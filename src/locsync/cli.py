"""Run orchestration: config parsing, subcommands, deterministic file outputs.

Configs are JSON and validated fail-closed (unknown keys rejected).  Every
run writes into its own directory below ``output_dir``; branch data goes to
``branch.csv`` with 17-significant-digit floats so byte-identical reruns
are reproducible.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import asymptotics, continuation, dynamics, model
from .lattice import BoundaryKind, CouplingKind, PolarState

__all__ = ["RunConfig", "load_config", "main"]

_CONTINUATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "ds_init": {"type": "number", "exclusiveMinimum": 0},
        "ds_min": {"type": "number", "exclusiveMinimum": 0},
        "ds_max": {"type": "number", "exclusiveMinimum": 0},
        "newton_tol": {"type": "number", "exclusiveMinimum": 0},
        "newton_max_iter": {"type": "integer", "minimum": 1},
        "max_steps": {"type": "integer", "minimum": 1},
        "mu_window": {
            "type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2,
        },
        "closure_tol": {"type": "number", "exclusiveMinimum": 0},
        "fold_refine_tol": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "coupling", "N", "eps", "boundary", "seed"],
    "properties": {
        "run_id": {"type": "string", "minLength": 1},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "polynomial_lambda": {
                    "type": "array", "items": {"type": "number"}, "minItems": 1,
                },
                "omega0_const": {"type": "number"},
                "mu_coefficient": {"type": "number"},
            },
        },
        "omega1": {
            "type": "object",
            "additionalProperties": False,
            "required": ["linear_coefficient"],
            "properties": {"linear_coefficient": {"type": "number"}},
        },
        "coupling": {
            "oneOf": [
                {"type": "string", "enum": ["dissipative", "conservative"]},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["c_re", "c_im"],
                    "properties": {
                        "c_re": {"type": "number"},
                        "c_im": {"type": "number"},
                    },
                },
            ],
        },
        "N": {"type": "integer", "minimum": 2},
        "eps": {"type": "number", "minimum": 0},
        "boundary": {"type": "string", "enum": ["on_site", "off_site"]},
        "seed": {
            "type": "object",
            "additionalProperties": False,
            "required": ["k", "mu"],
            "properties": {
                "k": {"type": "integer", "minimum": 1},
                "pattern": {
                    "type": "array",
                    "items": {"type": "string", "enum": ["plus", "minus"]},
                },
                "mu": {"type": "number"},
                "template": {
                    "type": "string", "enum": ["in_phase", "conservative"],
                },
            },
        },
        "continuation": _CONTINUATION_SCHEMA,
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["parameter", "values"],
            "properties": {
                "parameter": {"type": "string", "enum": ["eps", "k"]},
                "values": {"type": "array", "minItems": 1},
                # accepted so that existing configs stay valid; runs are serial
                "workers": {"type": "integer", "minimum": 1},
            },
            "if": {"properties": {"parameter": {"const": "k"}}},
            "then": {"properties": {"values": {"items": {"type": "integer", "minimum": 1}}}},
            "else": {"properties": {"values": {"items": {"type": "number", "minimum": 0}}}},
        },
        "output_dir": {"type": "string"},
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    spec: model.NonlinearitySpec
    coupling: CouplingKind
    n_nodes: int
    eps: float
    bc: BoundaryKind
    ansatz: asymptotics.SeedAnsatz
    mu_seed: float
    cont: continuation.ContinuationConfig
    run_id: str
    output_dir: Path

    def system(self) -> continuation.LatticeSystem:
        return continuation.LatticeSystem(self.spec, self.coupling, self.eps, self.bc)

    def run_dir(self) -> Path:
        return self.output_dir / self.run_id


def _build_spec(cfg: dict) -> model.NonlinearitySpec:
    mcfg = cfg["model"]
    if "name" in mcfg:
        if "polynomial_lambda" in mcfg:
            raise ConfigError("model: give either 'name' or 'polynomial_lambda'")
        spec = model.builtin_spec(mcfg["name"])
    elif "polynomial_lambda" in mcfg:
        spec = model.polynomial_spec(
            mcfg["polynomial_lambda"],
            omega0_const=mcfg.get("omega0_const", 0.0),
            mu_coefficient=mcfg.get("mu_coefficient", 0.0),
        )
    else:
        raise ConfigError("model: need 'name' or 'polynomial_lambda'")
    if "omega1" in cfg:
        c1 = float(cfg["omega1"]["linear_coefficient"])
        spec = spec.with_omega1(
            lambda r, mu, eps: c1 * np.asarray(r, dtype=float),
            lambda r, mu, eps: c1 + 0.0 * np.asarray(r, dtype=float),
            name=f"{spec.name}+omega1[{c1}*r]",
        )
    return spec


def _build_coupling(value) -> CouplingKind:
    if value == "dissipative":
        return CouplingKind.dissipative()
    if value == "conservative":
        return CouplingKind.conservative()
    return CouplingKind(float(value["c_re"]), float(value["c_im"]))


def load_config(data: dict) -> RunConfig:
    """Validate a raw config dict and build the run objects."""
    try:
        jsonschema.validate(data, CONFIG_SCHEMA)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"invalid config: {err.message}") from err

    spec = _build_spec(data)
    coupling = _build_coupling(data["coupling"])
    n = int(data["N"])
    eps = float(data["eps"])
    bc = BoundaryKind(data["boundary"])
    scfg = data["seed"]
    k = int(scfg["k"])
    template = scfg.get(
        "template", "conservative" if coupling.c_im != 0.0 else "in_phase"
    )
    pattern = tuple(scfg.get("pattern", ["plus"] * k))
    mu_seed = float(scfg["mu"])
    if not (0.0 < mu_seed < 1.0):
        raise ConfigError(f"seed mu={mu_seed} outside (0, 1)")
    try:
        ansatz = asymptotics.SeedAnsatz(k, pattern, template, bc, n)
        cont = continuation.ContinuationConfig(**{
            key: tuple(v) if key == "mu_window" else v
            for key, v in data.get("continuation", {}).items()
        })
    except (ValueError, asymptotics.AsymptoticsError) as err:
        raise ConfigError(str(err)) from err
    run_id = data.get("run_id", f"{spec.name}-N{n}-eps{eps:g}-k{k}")
    return RunConfig(
        raw=data,
        spec=spec,
        coupling=coupling,
        n_nodes=n,
        eps=eps,
        bc=bc,
        ansatz=ansatz,
        mu_seed=mu_seed,
        cont=cont,
        run_id=run_id,
        output_dir=Path(data.get("output_dir", "runs")),
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def branch_csv_header(n: int) -> list[str]:
    return (
        ["step", "arclength", "mu", "rho", "r_l2"]
        + [f"r_{i}" for i in range(1, n + 1)]
        + [f"phi_{i}" for i in range(1, n)]
        + ["is_fold", "newton_iters"]
    )


def write_branch_csv(branch: continuation.Branch, n: int, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(branch_csv_header(n))
        for step, p in enumerate(branch.points):
            st = p.state
            row = [str(step), _fmt(p.arclength), _fmt(st.mu), _fmt(st.rho),
                   _fmt(float(np.linalg.norm(st.r)))]
            row += [_fmt(v) for v in st.r]
            row += [_fmt(v) for v in st.phi]
            row += ["1" if p.is_fold else "0", str(p.newton_iters)]
            writer.writerow(row)


def read_branch_csv(path: Path, n: int) -> list[dict]:
    """Parse branch rows back into states; raises ConfigError on bad rows."""
    expected = len(branch_csv_header(n))
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != branch_csv_header(n):
            raise ConfigError(f"unexpected branch.csv header in {path}")
        for line in reader:
            if len(line) != expected:
                raise ConfigError(f"corrupted branch.csv row: {line[:3]}...")
            try:
                vals = [float(v) for v in line]
                rows.append({
                    "step": int(vals[0]),
                    "arclength": vals[1],
                    "r_l2": vals[4],
                    "is_fold": bool(int(vals[-2])),
                    "newton_iters": int(vals[-1]),
                    "state": PolarState(vals[5:5 + n], vals[5 + n:5 + 2 * n - 1],
                                        vals[3], vals[2]),
                })
            except (ValueError, OverflowError) as err:
                raise ConfigError(
                    f"corrupted branch.csv row at step {line[0]}: {err}") from err
    if not rows:
        raise ConfigError(f"no branch rows in {path}")
    return rows


def _state_dict(state: PolarState) -> dict:
    return {
        "mu": state.mu,
        "rho": state.rho,
        "r": state.r.tolist(),
        "phi": state.phi.tolist(),
    }


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def compute_branch(rc: RunConfig):
    """Seed, correct, and continue in both directions (one if it closes)."""
    system = rc.system()
    seed = asymptotics.build_seed(rc.spec, rc.mu_seed, rc.eps, rc.ansatz, rc.coupling)
    corrected = continuation.newton_correct(
        system, seed, tol=rc.cont.newton_tol, max_iter=rc.cont.newton_max_iter
    )
    plus = continuation.continue_branch(system, corrected, +1, rc.cont)
    if plus.closure == continuation.CLOSED_ISOLA:
        return plus
    minus = continuation.continue_branch(system, corrected, -1, rc.cont)
    return continuation.merge_branches(minus, plus)


def cmd_continue(rc: RunConfig) -> int:
    t0 = time.perf_counter()
    try:
        branch = compute_branch(rc)
    except continuation.ContinuationError as err:
        print(f"seed correction failed: {err}", file=sys.stderr)
        return 3
    out = rc.run_dir()
    out.mkdir(parents=True, exist_ok=True)
    write_branch_csv(branch, rc.n_nodes, out / "branch.csv")
    summary = {
        "run_id": rc.run_id,
        "config": rc.raw,
        "closure": branch.closure,
        "n_points": len(branch.points),
        "n_folds": len(branch.folds),
        "folds": [{"mu": f.mu, "arclength": f.arclength, "refined": f.refined}
                  for f in branch.folds],
        "endpoints": {
            "first": _state_dict(branch.points[0].state),
            "last": _state_dict(branch.points[-1].state),
        },
        "mu_range": [float(branch.mu_values.min()), float(branch.mu_values.max())],
        "wall_time_seconds": time.perf_counter() - t0,
    }
    _write_json(summary, out / "summary.json")
    print(f"{rc.run_id}: closure={branch.closure} folds={len(branch.folds)} "
          f"points={len(branch.points)}")
    if branch.closure == continuation.OPEN:
        print(f"{rc.run_id}: branch ended open at mu={branch.points[-1].state.mu!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_seed(rc: RunConfig) -> int:
    system = rc.system()
    seed = asymptotics.build_seed(rc.spec, rc.mu_seed, rc.eps, rc.ansatz, rc.coupling)
    payload = {"run_id": rc.run_id, "seed": _state_dict(seed),
               "seed_residual": system.residual_norm(seed)}
    try:
        corrected = continuation.newton_correct(
            system, seed, tol=rc.cont.newton_tol, max_iter=rc.cont.newton_max_iter
        )
    except (continuation.NoConvergence, continuation.SingularJacobian) as err:
        print(f"seed correction failed: {err}", file=sys.stderr)
        return 3
    payload["corrected"] = _state_dict(corrected)
    payload["corrected_residual"] = system.residual_norm(corrected)
    out = rc.run_dir()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(payload, out / "seed.json")
    print(f"{rc.run_id}: seed corrected, residual {payload['corrected_residual']:.3e}")
    return 0


def _rotation_period(rho: float) -> float:
    return 2.0 * np.pi / abs(rho) if abs(rho) >= 1e-6 else 10.0


def _relative_equilibrium_check(rc: RunConfig, states: list, horizons: list, dt=1e-3):
    """RK4 deviation from rigid rotation and completion of each state, as one batch."""
    devs, completed = dynamics.rotation_deviation(
        rc.spec, rc.coupling, [dynamics.unfold_state(s, rc.bc) for s in states],
        rc.eps, [s.mu for s in states], [s.rho for s in states],
        [int(round(h / dt)) for h in horizons], dt)
    return devs.tolist(), completed.tolist()


def cmd_verify(rc: RunConfig, branch_path: Path) -> int:
    if not branch_path.exists():
        print(f"branch file not found: {branch_path}", file=sys.stderr)
        return 2
    try:
        rows = read_branch_csv(branch_path, rc.n_nodes)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    system = rc.system()
    residuals = [system.residual_norm(row["state"]) for row in rows]
    max_res = max(residuals) if residuals else 0.0

    sample_idx = sorted(set(np.linspace(0, len(rows) - 1, 5).astype(int).tolist()))
    re_checks, tightened = [], []
    for i in sample_idx:
        state = rows[i]["state"]
        try:
            tight = continuation.newton_correct(system, state, tol=1e-13, max_iter=20)
        except (continuation.NoConvergence, continuation.SingularJacobian) as err:
            cause = f"{type(err).__name__}: {err}"
            print(f"row {i} at mu={state.mu!r}: re-tightening failed: {cause}",
                  file=sys.stderr)
            re_checks.append({"row": i, "mu": state.mu, "pass": False, "error": cause})
            continue
        tightened.append(tight)
        # slowly rotating states (|rho| ~ eps) would otherwise integrate for
        # hundreds of time units, letting unstable modes amplify roundoff past
        # any meaningful tolerance
        re_checks.append({"row": i, "mu": tight.mu, "rho": tight.rho,
                          "horizon": min(_rotation_period(tight.rho), 10.0)})
    checked = [c for c in re_checks if "error" not in c]
    devs, _ = _relative_equilibrium_check(rc, tightened,
                                          [c["horizon"] for c in checked])
    for check, dev in zip(checked, devs):
        check.update({"deviation": dev, "pass": dev <= 1e-6})

    fold_rows = [row for row in rows if row["is_fold"]]
    mu1_pred = asymptotics.fold_prediction_mu1(rc.eps)
    mu0_pred = asymptotics.fold_prediction_mu0(rc.eps)
    norm_factor = asymptotics.mu0_normalization(rc.spec)
    fold_mu1 = [
        {"mu": row["state"].mu,
         "rel_error": abs(1.0 - (1.0 - row["state"].mu) / rc.eps)}
        for row in fold_rows if row["state"].mu > 0.9
    ]
    low = [row["state"].mu for row in fold_rows if row["state"].mu <= 0.9]
    fold_mu0 = None
    if low and rc.eps > 0:
        smallest = min(low)
        fold_mu0 = {
            "mu": smallest,
            "ratio_normal_form_units": smallest / mu0_pred.mu,
            "ratio_normalized": smallest / (norm_factor * mu0_pred.mu),
        }

    report = {
        "run_id": rc.run_id,
        "branch_file": str(branch_path),
        "n_points": len(rows),
        "residual_check": {
            "pass": bool(max_res <= rc.cont.newton_tol),
            "max_residual": max_res,
            "tol": rc.cont.newton_tol,
        },
        "relative_equilibrium": {
            "pass": all(c["pass"] for c in re_checks),
            "samples": re_checks,
        },
        "fold_mu1": fold_mu1,
        "fold_mu0": fold_mu0,
    }
    out = rc.run_dir()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(report, out / "verify.json")
    ok = report["residual_check"]["pass"] and report["relative_equilibrium"]["pass"]
    print(f"{rc.run_id}: verify {'PASS' if ok else 'FAIL'} "
          f"(max residual {max_res:.3e})")
    return 0 if ok else 1


MISMATCH_EPS_SWEEP = (1e-2, 1e-3, 1e-4)


def cmd_mismatch(rc: RunConfig) -> int:
    bound = asymptotics.mismatch_bound(rc.spec, rc.mu_seed)
    k = rc.ansatz.k
    pattern = tuple(["plus"] * (k - 1) + ["minus"])
    sweep = []
    for eps in MISMATCH_EPS_SWEEP:
        system = continuation.LatticeSystem(rc.spec, rc.coupling, eps, rc.bc)
        ansatz = asymptotics.SeedAnsatz(k, pattern, "in_phase", rc.bc, rc.n_nodes)
        seed = asymptotics.build_seed(rc.spec, rc.mu_seed, eps, ansatz, rc.coupling)
        entry = {"eps": eps}
        try:
            corrected = continuation.newton_correct(
                system, seed, tol=rc.cont.newton_tol,
                max_iter=rc.cont.newton_max_iter,
            )
            entry["converged"] = True
            entry["sin_phi_k"] = float(np.sin(corrected.phi[k - 2]))
            entry["sin_phi_deviation"] = abs(
                entry["sin_phi_k"] - bound.sin_phi_limit
            )
        except (continuation.NoConvergence, continuation.SingularJacobian) as err:
            entry["converged"] = False
            entry["error"] = type(err).__name__
        sweep.append(entry)
    payload = {
        "run_id": rc.run_id,
        "mu": bound.mu,
        "delta": bound.delta,
        "threshold": bound.threshold,
        "obstructed": bound.obstructed,
        "sin_phi_limit": bound.sin_phi_limit,
        "has_real_solution": bound.has_real_solution,
        "core_k": k,
        "sweep": sweep,
    }
    out = rc.run_dir()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(payload, out / "mismatch.json")
    verdict = "obstructed" if bound.obstructed else "admissible"
    print(f"{rc.run_id}: mismatch delta={bound.delta:.6f} "
          f"threshold={bound.threshold:.6f} -> {verdict}")
    return 0


def cmd_simulate(rc: RunConfig) -> int:
    system = rc.system()
    seed = asymptotics.build_seed(rc.spec, rc.mu_seed, rc.eps, rc.ansatz, rc.coupling)
    try:
        state = continuation.newton_correct(
            system, seed, tol=rc.cont.newton_tol, max_iter=rc.cont.newton_max_iter
        )
    except (continuation.NoConvergence, continuation.SingularJacobian) as err:
        print(f"seed correction failed: {err}", file=sys.stderr)
        return 3
    sim = rc.raw.get("simulate", {})
    dt = float(sim.get("dt", 1e-3))
    horizon = float(sim.get("horizon", _rotation_period(state.rho)))
    if horizon < dt:
        print(f"config error: simulate horizon {horizon!r} is below dt {dt!r}",
              file=sys.stderr)
        return 2
    (dev,), (completed,) = _relative_equilibrium_check(rc, [state], [horizon], dt)
    payload = {
        "run_id": rc.run_id,
        "state": _state_dict(state),
        "horizon": horizon,
        "dt": dt,
        "completed": completed,
        "relative_equilibrium_deviation": dev,
    }
    out = rc.run_dir()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(payload, out / "simulate.json")
    print(f"{rc.run_id}: simulate deviation {dev:.3e} over horizon {horizon:.3f}")
    return 0


def cmd_sweep(rc: RunConfig) -> int:
    sweep = rc.raw.get("sweep")
    if sweep is None:
        print("config has no 'sweep' section", file=sys.stderr)
        return 2
    parameter, values = sweep["parameter"], sweep["values"]
    # Every job is built and validated before the first one runs, so a bad
    # value fails the whole sweep up front.
    configs = []
    for value in values:
        data = json.loads(json.dumps(rc.raw))
        data.pop("sweep", None)
        if parameter == "eps":
            data["eps"] = float(value)
        else:
            data["seed"]["k"] = int(value)
            data["seed"].pop("pattern", None)
        data["run_id"] = f"{rc.run_id}-{parameter}{value:g}"
        try:
            configs.append(load_config(data))
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2

    codes = [cmd_continue(job) for job in configs]
    summary = {
        "run_id": rc.run_id,
        "parameter": parameter,
        "values": list(values),
        "exit_codes": codes,
        "runs": [c.run_id for c in configs],
    }
    rc.output_dir.mkdir(parents=True, exist_ok=True)
    _write_json(summary, rc.output_dir / f"{rc.run_id}-sweep.json")
    return 0 if all(code == 0 for code in codes) else 1


_OVERRIDE_FLAGS = {
    "run_id": ("--run-id", str),
    "eps": ("--eps", float),
    "N": ("--n-nodes", int),
    "output_dir": ("--output-dir", str),
}


def _apply_overrides(data: dict, args) -> dict:
    for key, (_, cast) in _OVERRIDE_FLAGS.items():
        value = getattr(args, key.replace("-", "_").lower(), None)
        if value is not None:
            data[key] = cast(value)
    if args.k is not None:
        data.setdefault("seed", {})["k"] = int(args.k)
        data["seed"].pop("pattern", None)
    if args.mu is not None:
        data.setdefault("seed", {})["mu"] = float(args.mu)
    if args.max_steps is not None:
        data.setdefault("continuation", {})["max_steps"] = int(args.max_steps)
    return data


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run config")
    for key, (flag, _) in _OVERRIDE_FLAGS.items():
        parser.add_argument(flag, dest=key.replace("-", "_").lower(), default=None)
    parser.add_argument("--k", default=None, help="override seed core size")
    parser.add_argument("--mu", default=None, help="override seed mu")
    parser.add_argument("--max-steps", default=None, help="override step limit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="locsync",
        description="Continuation of localized synchrony patterns in "
                    "coupled oscillator chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("continue", "seed", "verify", "mismatch", "simulate", "sweep"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "verify":
            p.add_argument("branch", help="path to branch.csv")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        data = _apply_overrides(data, args)
        rc = load_config(data)
    except (OSError, json.JSONDecodeError, ConfigError, model.ModelError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.command == "continue":
        return cmd_continue(rc)
    if args.command == "seed":
        return cmd_seed(rc)
    if args.command == "verify":
        return cmd_verify(rc, Path(args.branch))
    if args.command == "mismatch":
        return cmd_mismatch(rc)
    if args.command == "simulate":
        return cmd_simulate(rc)
    if args.command == "sweep":
        return cmd_sweep(rc)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
