"""Run orchestration: config parsing, subcommands, deterministic file outputs.

Configs are JSON and validated fail-closed (unknown keys rejected).  Every
run writes into its own directory below ``output_dir``; branch data goes to
``branch.csv`` with 17-significant-digit floats so byte-identical reruns
are reproducible.

Commands return 0, or 1 for a run whose outputs are written but whose
result failed; any other failure is raised, and ``_run`` alone maps it to
its exit code and one stderr line: 2 for bad input (``config error: ...``,
or a ``CommandError``'s message as given), 3 for a continuation error (the
run id, seed and cause).

``continue`` has one prologue (start time, corrected seed, run directory);
then one ``continuation.continue_branch`` call alone, or a sweep group's one
``walk_batch`` of ``_branch``, walks the seed's +1 and -1 runs in lockstep.
"""
from __future__ import annotations

import argparse
import array
import csv
import functools
import io
import json
import math
import os
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import asymptotics, continuation, dynamics, model
from .lattice import BoundaryKind, CouplingKind, LatticeError, PolarState

__all__ = ["RunConfig", "load_config", "main"]
MAX_N = 4096  # a dense (2N+1) x (2N+1) float64 bordered matrix is then about 0.5 GB
RK4_DT = 1e-3  # the RK4 step of verify's check, and simulate's default dt
RESIDUAL_ENTRIES = 1 << 12  # packed-state entries of one stacked residual in verify

class ConfigError(ValueError):
    pass


class CommandError(Exception):
    """Bad input whose stderr line is the message as given (exit 2)."""


_BAD_INPUT = (ConfigError, LatticeError, model.ModelError, asymptotics.AsymptoticsError)  # exit 2


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


def _fail(where: str, message: str) -> NoReturn:
    raise ConfigError(f"invalid config at {where}: {message}")


def _object(value, where: str, required=(), optional=()) -> dict:
    """A JSON object with every required key and no key outside both lists."""
    if not isinstance(value, dict):
        _fail(where, f"{value!r} is not an object")
    for key in required:
        if key not in value:
            _fail(where, f"{key!r} is a required key")
    for key in value:
        if key not in required and key not in optional:
            _fail(where, f"unknown key {key!r}")
    return value


def _number(value, where: str, minimum=None, exclusive=False, integer=False):
    """A finite number at or above ``minimum`` (above it if ``exclusive``).
    JSON's NaN and Infinity and integers beyond the float range are not
    finite; a bool is not a number; an integral float such as 4.0 is an
    integer."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or (integer and not float(value).is_integer())):
        _fail(where, f"{value!r} is not a finite {'integer' if integer else 'number'}")
    if minimum is not None and (value <= minimum if exclusive else value < minimum):
        _fail(where, f"{value!r} is not {'>' if exclusive else '>='} {minimum}")
    return int(value) if integer else float(value)


def _choice(value, where: str, choices=None) -> str:
    """A string, and one of ``choices`` when they are given."""
    if not isinstance(value, str) or (choices is not None and value not in choices):
        _fail(where, f"{value!r} is not " + (f"one of {choices}" if choices else "a string"))
    return value


def _list(value, where: str, item, min_items=0, max_items=None) -> list:
    """A JSON array of min_items..max_items entries, each read by ``item``."""
    if not isinstance(value, list):
        _fail(where, f"{value!r} is not an array")
    if len(value) < min_items:
        _fail(where, f"has {len(value)} entries, fewer than {min_items}")
    if max_items is not None and len(value) > max_items:
        _fail(where, f"has {len(value)} entries, more than {max_items}")
    return [item(v, f"{where}.{i}") for i, v in enumerate(value)]


def _build_spec(cfg: dict) -> model.NonlinearitySpec:
    mcfg = _object(cfg["model"], "model",
                   optional=("name", "polynomial_lambda", "omega0_const", "mu_coefficient"))
    if "name" in mcfg:
        if len(mcfg) > 1:
            _fail("model", f"'name' takes no other key, got {sorted(mcfg)}")
        spec = model.builtin_spec(_choice(mcfg["name"], "model.name"))
    elif "polynomial_lambda" in mcfg:
        spec = model.NonlinearitySpec(
            "polynomial",
            _list(mcfg["polynomial_lambda"], "model.polynomial_lambda", _number, 1),
            omega0=_number(mcfg.get("omega0_const", 0.0), "model.omega0_const"),
            mu_coefficient=_number(mcfg.get("mu_coefficient", 0.0), "model.mu_coefficient"),
        )
    else:
        _fail("model", "need 'name' or 'polynomial_lambda'")
    if "omega1" in cfg:
        ocfg = _object(cfg["omega1"], "omega1", required=("linear_coefficient",))
        c1 = _number(ocfg["linear_coefficient"], "omega1.linear_coefficient")
        spec = spec.with_omega1((0.0, c1), name=f"{spec.name}+omega1[{c1}*r]")
    return spec


def _build_coupling(value) -> CouplingKind:
    """A named coupling, or a unit {c_re, c_im} object."""
    if not isinstance(value, dict):
        return getattr(CouplingKind, _choice(value, "coupling",
                                             ("dissipative", "conservative")))()
    _object(value, "coupling", required=("c_re", "c_im"))
    try:
        return CouplingKind(_number(value["c_re"], "coupling.c_re"),
                            _number(value["c_im"], "coupling.c_im"))
    except LatticeError as err:
        _fail("coupling", str(err))


def _build_continuation(section) -> continuation.ContinuationConfig:
    """Keys and types follow ContinuationConfig's fields and their defaults:
    an int is a count >= 1, the tuple is the mu window, a float is > 0."""
    defaults = {f.name: f.default for f in fields(continuation.ContinuationConfig)}
    values = {}
    for key, value in _object(section, "continuation", optional=defaults).items():
        where = f"continuation.{key}"
        if isinstance(defaults[key], tuple):
            values[key] = tuple(_list(value, where, _number, 2, 2))
        elif isinstance(defaults[key], int):
            values[key] = _number(value, where, 1, integer=True)
        else:
            values[key] = _number(value, where, 0, exclusive=True)
    try:
        return continuation.ContinuationConfig(**values)
    except ValueError as err:
        _fail("continuation", str(err))


def _check_sweep(section) -> None:
    """``values`` are counts >= 1 for a k sweep, numbers >= 0 for eps."""
    sweep = _object(section, "sweep", required=("parameter", "values"),
                    optional=("workers",))
    if _choice(sweep["parameter"], "sweep.parameter", ("eps", "k")) == "k":
        item = functools.partial(_number, minimum=1, integer=True)
    else:
        item = functools.partial(_number, minimum=0)
    _list(sweep["values"], "sweep.values", item, 1)
    if "workers" in sweep:
        _number(sweep["workers"], "sweep.workers", 1, integer=True)


def load_config(data: dict) -> RunConfig:
    """Check a raw config dict section by section and build the run objects."""
    _object(data, "top level", required=("model", "coupling", "N", "eps", "boundary", "seed"),
            optional=("run_id", "omega1", "continuation", "simulate", "sweep", "output_dir"))
    coupling = _build_coupling(data["coupling"])
    n = _number(data["N"], "N", 2, integer=True)
    if n > MAX_N:
        _fail("N", f"{n} is above {MAX_N}, the largest supported chain")
    eps = _number(data["eps"], "eps", 0)
    bc = BoundaryKind(_choice(data["boundary"], "boundary", ("on_site", "off_site")))
    scfg = _object(data["seed"], "seed", required=("k", "mu"),
                   optional=("pattern", "template"))
    k = _number(scfg["k"], "seed.k", 1, integer=True)
    if "pattern" in scfg:
        pattern = tuple(_list(scfg["pattern"], "seed.pattern",
                              functools.partial(_choice, choices=("plus", "minus"))))
    else:  # a k above N - 1 fails the ansatz below; min() keeps this short
        pattern = ("plus",) * min(k, n)
    mu_seed = _number(scfg["mu"], "seed.mu")
    if not (0.0 < mu_seed < 1.0):
        _fail("seed.mu", f"{mu_seed!r} is outside (0, 1)")
    default_template = "conservative" if coupling.c_im != 0.0 else "in_phase"
    template = _choice(scfg.get("template", default_template), "seed.template",
                       ("in_phase", "conservative"))
    cont = _build_continuation(data.get("continuation", {}))
    for key, value in _object(data.get("simulate", {}), "simulate",
                              optional=("horizon", "dt")).items():
        _number(value, f"simulate.{key}", 0, exclusive=True)
    if "sweep" in data:
        _check_sweep(data["sweep"])
    output_dir = Path(_choice(data.get("output_dir", "runs"), "output_dir"))
    spec = _build_spec(data)
    try:
        ansatz = asymptotics.SeedAnsatz(k, pattern, template, bc, n)
    except asymptotics.AsymptoticsError as err:
        _fail("seed", str(err))
    run_id = _choice(data.get("run_id", f"{spec.name}-N{n}-eps{eps:g}-k{k}"), "run_id")
    if not run_id:
        _fail("run_id", "is empty")
    return RunConfig(raw=data, spec=spec, coupling=coupling, n_nodes=n, eps=eps, bc=bc,
                     ansatz=ansatz, mu_seed=mu_seed, cont=cont, run_id=run_id,
                     output_dir=output_dir)


def branch_csv_header(n: int) -> list[str]:
    return (
        ["step", "arclength", "mu", "rho", "r_l2"]
        + [f"r_{i}" for i in range(1, n + 1)]
        + [f"phi_{i}" for i in range(1, n)]
        + ["is_fold", "newton_iters"]
    )


def write_branch_csv(branch: continuation.Branch, n: int, path: Path) -> None:
    """One row per point, formatted by one '%' string and streamed; the bytes
    a csv writer gives (no field needs quoting, lines end in CRLF)."""
    row = "%d," + "%.17g," * (2 * n + 3) + "%d,%d\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(branch_csv_header(n)) + "\r\n")
        for step, p in enumerate(branch.points):
            st = p.state
            fh.write(row % (step, p.arclength, st.mu, st.rho, math.sqrt(st.r.dot(st.r)),
                            *st.r.tolist(), *st.phi.tolist(), p.is_fold, p.newton_iters))


def read_branch_csv(path: Path, n: int) -> list[dict]:
    """Parse branch rows back into states; a file that is missing,
    unreadable or bad raises CommandError (exit 2).

    Each row's cells go into one float table as the file is read, and each
    state is a view into one packed (rows, 2N + 1) array; the step,
    is_fold, newton_iters and state cells are checked for finiteness once.
    The first bad row is named as a row-by-row parse names it, before
    whatever fails after it.
    """
    header = branch_csv_header(n)
    values, steps, stop = array.array("d"), [], None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise CommandError(f"unexpected branch.csv header in {path}")
            try:
                for line in reader:
                    if len(line) != len(header):
                        raise CommandError(f"corrupted branch.csv row: {line[:3]}...")
                    try:
                        values.extend(map(float, line))
                    except ValueError as err:
                        raise CommandError(
                            f"corrupted branch.csv row at step {line[0]}: {err}") from err
                    steps.append(line[0])
            except (CommandError, OSError, UnicodeDecodeError, csv.Error) as err:
                stop = err  # a bad row among those before it comes first
        table = np.frombuffer(values)[:len(steps) * len(header)]
        rows = _branch_rows(table.reshape(len(steps), len(header)), steps, n)
        if stop is not None:
            raise stop
    except FileNotFoundError:
        raise CommandError(f"branch file not found: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        reason = getattr(err, "strerror", None) or err
        raise CommandError(f"cannot read branch file {path}: {reason}") from err
    if not rows:
        raise CommandError(f"no branch rows in {path}")
    return rows


def _branch_rows(table: np.ndarray, steps: list[str], n: int) -> list[dict]:
    """The dicts of the rows of ``table``, whose step cells read ``steps``."""
    packed = np.r_[5:4 + 2 * n, 3, 2]  # the columns of r, phi, rho and mu
    bad = ~np.isfinite(table[:, np.r_[0, -2, -1, packed]]).all(axis=1)
    if bad.any():  # int() of the step, is_fold and newton_iters, then the state
        i = bad.argmax()
        try:
            int(table[i, 0].item()), int(table[i, -2].item()), int(table[i, -1].item())
            PolarState.from_packed(table[i, packed])
        except (ValueError, OverflowError) as err:
            raise CommandError(f"corrupted branch.csv row at step {steps[i]}: {err}") from err
    states = PolarState.rows(table.take(packed, axis=1))  # C order: each row contiguous
    step, arclength, r_l2, is_fold, iters = table[:, [0, 1, 4, -2, -1]].T.tolist()
    return [{"step": int(k), "arclength": s, "r_l2": l2, "is_fold": bool(int(fold)),
             "newton_iters": int(it), "state": state}
            for k, s, l2, fold, it, state in zip(step, arclength, r_l2, is_fold, iters, states)]


def _state_dict(state: PolarState) -> dict:
    return {
        "mu": state.mu,
        "rho": state.rho,
        "r": state.r.tolist(),
        "phi": state.phi.tolist(),
    }


def _make_dir(path: Path) -> None:
    """Create an output directory before computing."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err}") from err


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _corrected_seed(rc: RunConfig):
    """The system, the asymptotic seed and its Newton correction."""
    system = rc.system()
    seed = asymptotics.build_seed(rc.spec, rc.mu_seed, rc.eps, rc.ansatz, rc.coupling)
    corrected = continuation.newton_correct(system, seed)
    return system, seed, corrected


def _prologue(rc: RunConfig):
    """What ``continue`` does before its walk: the start time, the system
    and the corrected seed, with the run directory made."""
    t0 = time.perf_counter()
    system, _, corrected = _corrected_seed(rc)
    _make_dir(rc.run_dir())
    return t0, system, corrected


def _branch(rc: RunConfig):
    """``continue`` on ``rc`` up to its branch, as a member of a ``walk_batch``:
    the prologue, then ``continuation.walk``, the seed's +1 and -1 runs in
    lockstep (a run closed onto its own start is the whole isola, two runs
    that meet are their loop, else both are merged).  Returns (start time, branch)."""
    t0, system, corrected = _prologue(rc)
    return t0, (yield from continuation.walk(system, corrected, rc.cont))


def cmd_continue(rc: RunConfig, walked=None) -> int:
    """``walked`` is what ``_branch`` returned for ``rc`` in a sweep, or the
    exception it raised; without it the branch is one ``continue_branch`` call."""
    if walked is None:
        t0, system, corrected = _prologue(rc)
        walked = t0, continuation.continue_branch(system, corrected, rc.cont)
    if isinstance(walked, Exception):
        raise walked
    t0, branch = walked
    out = rc.run_dir()
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
    for mu in branch.open_ends:
        print(f"{rc.run_id}: branch ended open at mu={mu!r}", file=sys.stderr)
    # t_mu changes sign an even number of times around a closed loop
    odd = branch.closure == continuation.CLOSED_ISOLA and len(branch.folds) % 2
    if odd:
        print(f"{rc.run_id}: closed isola with an odd fold count, {len(branch.folds)}",
              file=sys.stderr)
    return 1 if branch.closure == continuation.OPEN or odd else 0


def cmd_seed(rc: RunConfig) -> int:
    system, seed, corrected = _corrected_seed(rc)
    _make_dir(rc.run_dir())
    payload = {"run_id": rc.run_id, "seed": _state_dict(seed),
               "seed_residual": system.residual_norm(seed),
               "corrected": _state_dict(corrected),
               "corrected_residual": system.residual_norm(corrected)}
    _write_json(payload, rc.run_dir() / "seed.json")
    print(f"{rc.run_id}: seed corrected, residual {payload['corrected_residual']:.3e}")
    return 0


def _check_horizon(rho: float) -> float:
    """One rotation period 2 pi/|rho|, at most 10 time units.

    Slowly rotating states (|rho| ~ eps) would otherwise integrate for
    hundreds of time units, letting unstable modes amplify roundoff past
    any meaningful tolerance, and take millions of RK4 steps.
    """
    return min(2.0 * np.pi / abs(rho), 10.0) if abs(rho) >= 1e-6 else 10.0


def _relative_equilibrium_check(rc: RunConfig, states: list, horizons: list, dt=RK4_DT):
    """RK4 deviation from rigid rotation and completion of each state, as one batch."""
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up unsets completed
        devs, completed = dynamics.rotation_deviation(
            rc.spec, rc.coupling, [dynamics.unfold_state(s, rc.bc) for s in states],
            rc.eps, [s.mu for s in states], [s.rho for s in states],
            [int(round(h / dt)) for h in horizons], dt)
    return devs.tolist(), completed.tolist()


def cmd_verify(rc: RunConfig, branch_path: Path) -> int:
    rows = read_branch_csv(branch_path, rc.n_nodes)
    _make_dir(rc.run_dir())
    system = rc.system()
    # residual_norm of every row, through stacked residuals: a row's arithmetic
    # is that of a stack of one, and a max is exact
    chunk = max(1, RESIDUAL_ENTRIES // (2 * rc.n_nodes + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row reads NaN
        res = np.concatenate([
            np.abs(system.residual(PolarState.from_packed(
                np.array([row["state"].x for row in rows[i:i + chunk]])))).max(axis=1)
            for i in range(0, len(rows), chunk)])
    max_res = float(res.max())  # NaN propagates
    failing = np.flatnonzero(~(res <= rc.cont.newton_tol))  # a NaN row fails
    if failing.size:
        i = failing[0]
        print(f"step {rows[i]['step']} at mu={rows[i]['state'].mu!r}: residual "
              f"{res[i]:.3e} exceeds newton_tol", file=sys.stderr)

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
        horizon = _check_horizon(tight.rho)
        re_checks.append({"row": i, "mu": tight.mu, "rho": tight.rho, "horizon": horizon})
        if horizon < RK4_DT:  # round(horizon / dt) = 0 RK4 steps read a deviation of 0.0
            cause = f"horizon {horizon!r} is below the RK4 step {RK4_DT!r}"
            print(f"row {i} at mu={tight.mu!r}: {cause}", file=sys.stderr)
            re_checks[-1].update({"pass": False, "error": cause})
        else:
            tightened.append(tight)
    checked = [c for c in re_checks if "error" not in c]
    devs, completed = _relative_equilibrium_check(rc, tightened,
                                                  [c["horizon"] for c in checked])
    for check, dev, done in zip(checked, devs, completed):
        check.update({"deviation": dev, "pass": done and dev <= 1e-6})
        if not done:
            # the deviation covers only the steps before the stop
            cause = "RK4 run turned non-finite before the horizon"
            print(f"row {check['row']} at mu={check['mu']!r}: {cause}", file=sys.stderr)
            check["error"] = cause

    fold_mu = [row["state"].mu for row in rows if row["is_fold"]]
    fold_mu1 = fold_mu0 = None  # the eps predictions have no relative error at eps = 0
    if rc.eps > 0:
        fold_mu1 = [{"mu": mu, "rel_error": abs(1.0 - (1.0 - mu) / rc.eps)}
                    for mu in fold_mu if mu > 0.9]
        low = [mu for mu in fold_mu if mu <= 0.9]
        if low:
            smallest, mu0_pred = min(low), asymptotics.fold_prediction_mu0(rc.eps)
            try:
                normalized = smallest / (asymptotics.mu0_normalization(rc.spec) * mu0_pred)
            except (model.ModelError, asymptotics.AsymptoticsError):
                normalized = None  # lambda(., 0) has no recruitment-fold shape
            fold_mu0 = {"mu": smallest, "ratio_normal_form_units": smallest / mu0_pred,
                        "ratio_normalized": normalized}

    report = {
        "run_id": rc.run_id,
        "branch_file": str(branch_path),
        "n_points": len(rows),
        "residual_check": {
            "pass": not failing.size,
            "max_residual": max_res if np.isfinite(max_res) else None,  # standard JSON
            "tol": rc.cont.newton_tol,
        },
        "relative_equilibrium": {
            "pass": all(c["pass"] for c in re_checks),
            "samples": re_checks,
        },
        "fold_mu1": fold_mu1,
        "fold_mu0": fold_mu0,
    }
    _write_json(report, rc.run_dir() / "verify.json")
    ok = report["residual_check"]["pass"] and report["relative_equilibrium"]["pass"]
    print(f"{rc.run_id}: verify {'PASS' if ok else 'FAIL'} "
          f"(max residual {max_res:.3e})")
    return 0 if ok else 1


MISMATCH_EPS_SWEEP = (1e-2, 1e-3, 1e-4)


def cmd_mismatch(rc: RunConfig) -> int:
    bound = asymptotics.mismatch_bound(rc.spec, rc.mu_seed)
    k = rc.ansatz.k
    if k < 2:  # the r+/r- interface phase is phi_{k-1}
        _fail("seed.k", f"mismatch needs k >= 2, got {k}")
    _make_dir(rc.run_dir())
    mixed = asymptotics.SeedAnsatz(k, ("plus",) * (k - 1) + ("minus",), "in_phase",
                                   rc.bc, rc.n_nodes)
    sweep = []
    for eps in MISMATCH_EPS_SWEEP:
        entry = {"eps": eps}
        try:
            corrected = _corrected_seed(replace(rc, eps=eps, ansatz=mixed))[2]
            entry["converged"] = True
            entry["sin_phi_k"] = float(np.sin(corrected.phi[k - 2]))
            entry["sin_phi_deviation"] = abs(entry["sin_phi_k"] - bound.sin_phi_limit)
        except (continuation.NoConvergence, continuation.SingularJacobian) as err:
            entry["converged"] = False
            entry["error"] = type(err).__name__
        sweep.append(entry)
    payload = {**asdict(bound), "run_id": rc.run_id, "core_k": k, "sweep": sweep}
    _write_json(payload, rc.run_dir() / "mismatch.json")
    verdict = "obstructed" if bound.obstructed else "admissible"
    print(f"{rc.run_id}: mismatch delta={bound.delta:.6f} "
          f"threshold={bound.threshold:.6f} -> {verdict}")
    return 0


def cmd_simulate(rc: RunConfig) -> int:
    state = _corrected_seed(rc)[2]
    sim = rc.raw.get("simulate", {})
    dt = float(sim.get("dt", RK4_DT))
    horizon = float(sim.get("horizon", _check_horizon(state.rho)))
    if horizon < dt:
        raise ConfigError(f"simulate horizon {horizon!r} is below dt {dt!r}")
    _make_dir(rc.run_dir())
    (dev,), (completed,) = _relative_equilibrium_check(rc, [state], [horizon], dt)
    payload = {
        "run_id": rc.run_id,
        "state": _state_dict(state),
        "horizon": horizon,
        "dt": dt,
        "completed": completed,
        "relative_equilibrium_deviation": dev,
    }
    _write_json(payload, rc.run_dir() / "simulate.json")
    if not completed:  # the deviation covers only the steps before the stop
        print(f"{rc.run_id}: simulate RK4 run turned non-finite before the horizon "
              f"{horizon:.3f} at dt {dt!r}", file=sys.stderr)
        return 1
    print(f"{rc.run_id}: simulate deviation {dev:.3e} over horizon {horizon:.3f}")
    return 0


def _run(command, rc: RunConfig, *args) -> int:
    """``command(rc, *args)``'s exit code, with each failure it raises mapped
    to its code and one stderr line."""
    try:
        return command(rc, *args)
    except (CommandError, *_BAD_INPUT) as err:
        print(err if isinstance(err, CommandError) else f"config error: {err}",
              file=sys.stderr)
        return 2
    except continuation.ContinuationError as err:
        print(f"{rc.run_id}: seed correction failed at mu={rc.mu_seed!r} "
              f"(k={rc.ansatz.k}, template {rc.ansatz.phase_template}): {err}",
              file=sys.stderr)
        return 3


def _run_job(job: RunConfig, walked) -> tuple[int, str, str]:
    """``continue`` on ``job``: its exit code and the text it printed to stdout and stderr."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        return _run(cmd_continue, job, walked), out.getvalue(), err.getvalue()


def _run_group(jobs: list) -> list:
    """``_run_job`` on each of ``jobs``, which share one system and N and
    walk as one batch, a group of one included."""
    walked = continuation.walk_batch(jobs[0].system(), [_branch(job) for job in jobs])
    return [_run_job(job, w) for job, w in zip(jobs, walked)]


def _groups(jobs: list, size: int) -> list:
    """Job indices in groups: the jobs that share one system and N, dealt
    round-robin into at most ``size`` groups."""
    shared = {}
    for i, job in enumerate(jobs):
        shared.setdefault((job.system(), job.n_nodes), []).append(i)
    return [same[g::min(size, len(same))] for same in shared.values()
            for g in range(min(size, len(same)))]


def cmd_sweep(rc: RunConfig) -> int:
    """``continue`` per sweep value, in groups that share one system and N,
    on min(workers, jobs, usable CPUs) forked processes.  Each group walks
    as one batch; output is printed and written in list order."""
    sweep = rc.raw.get("sweep")
    if sweep is None:
        raise CommandError("config has no 'sweep' section")
    parameter, values = sweep["parameter"], sweep["values"]
    # Every job is built and validated before the first one runs, so a bad
    # value fails the whole sweep up front.
    configs, value_of = [], {}
    for value in values:
        data = json.loads(json.dumps(rc.raw))
        data.pop("sweep", None)
        if parameter == "eps":
            _override(data, "eps", float(value))
        else:
            _override(data, "seed.k", int(value))
        data["run_id"] = run_id = f"{rc.run_id}-{parameter}{value:g}"
        if run_id in value_of:  # the second run would overwrite the first
            raise ConfigError(f"sweep values {value_of[run_id]!r} and {value!r} "
                              f"both give run id {run_id!r}")
        value_of[run_id] = value
        configs.append(load_config(data))
    for path in [rc.output_dir] + [job.run_dir() for job in configs]:
        _make_dir(path)

    import multiprocessing  # here, not at the top: about 25 ms of every command's start-up
    from concurrent.futures import ProcessPoolExecutor
    # a pool only where usable CPUs are known (Linux): no fork on Windows, unsafe on macOS
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = min(int(sweep.get("workers", cpus)), len(configs), cpus)
    groups = _groups(configs, size)
    results, shown = [None] * len(configs), 0
    with (ProcessPoolExecutor(size, multiprocessing.get_context("fork")) if size > 1
          else nullcontext()) as pool:
        for group, done in zip(groups, (pool.map if size > 1 else map)(
                _run_group, [[configs[i] for i in group] for group in groups])):
            for i, result in zip(group, done):
                results[i] = result
            while shown < len(results) and results[shown] is not None:  # list order
                _, out, err = results[shown]
                print(out, end="")
                print(err, end="", file=sys.stderr)
                shown += 1
    codes = [code for code, _, _ in results]
    summary = {
        "run_id": rc.run_id,
        "parameter": parameter,
        "values": list(values),
        "exit_codes": codes,
        "runs": [c.run_id for c in configs],
    }
    _write_json(summary, rc.output_dir / f"{rc.run_id}-sweep.json")
    return 0 if all(code == 0 for code in codes) else 1


_OVERRIDE_FLAGS = {  # flag: (config key, argparse type)
    "--run-id": ("run_id", str),
    "--eps": ("eps", float),
    "--n-nodes": ("N", int),
    "--output-dir": ("output_dir", str),
    "--k": ("seed.k", int),
    "--mu": ("seed.mu", float),
    "--max-steps": ("continuation.max_steps", int),
}


def _override(data: dict, path: str, value) -> None:
    """Set a dotted config ``path``; a new seed.k drops seed.pattern (one entry per core node)."""
    section, _, key = path.rpartition(".")
    target = data.setdefault(section, {}) if section else data
    if isinstance(target, dict):  # else load_config names the section
        target[key] = value
        if path == "seed.k":
            target.pop("pattern", None)


# command: its path arguments (name: help); main looks up cmd_<command> per call (tracers wrap it)
_COMMANDS = {"continue": {}, "seed": {}, "verify": {"branch": "path to branch.csv"},
             "mismatch": {}, "simulate": {}, "sweep": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="locsync",
        description="Continuation of localized synchrony patterns in "
                    "coupled oscillator chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, positionals in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        for flag, (path, cast) in _OVERRIDE_FLAGS.items():
            p.add_argument(flag, type=cast, help=f"override {path}")
        for arg, text in positionals.items():
            p.add_argument(arg, help=text)
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        for flag, (path, _) in _OVERRIDE_FLAGS.items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None:
                _override(data, path, value)
        rc = load_config(data)
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError,
            *_BAD_INPUT) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return _run(globals()[f"cmd_{args.command}"], rc,
                *(Path(getattr(args, arg)) for arg in _COMMANDS[args.command]))


if __name__ == "__main__":
    sys.exit(main())
