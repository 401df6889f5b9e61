#!/usr/bin/env python3
"""locsync benchmark: time to a complete, correct branch, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload snake --seed 1 --seconds 30 --trace 0

A run builds its inputs from ``--seed``, sets up (import, config, and for
``verify`` the input branch), runs the workload's command once to warm up,
then repeats it in a closed loop, in-process through ``locsync.cli``, for
about ``--seconds`` seconds.  Every repeat is gated for correctness
(``gates.py``).  With ``--trace 1`` each untraced repeat is followed by one
traced repeat (``tracer.py``) and the per-layer metrics are reported.

Human-readable lines go first: raw ``wall_s``, ``wall_ref``, ``setup_s``,
``peak_rss_mb`` and ``fail_ratio``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Command outputs and a run record (machine, inputs, samples, golden record)
are written below ``.bench_runs/`` in the repository root.

Self-test: ``python3 -m pytest -q bench/test_bench.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

WORKLOADS = {
    "snake": "continue on the dissipative off-site N=32 snake (about 2400 "
             "points, 62 folds): fold-dense, large N, writes the largest branch.csv",
    "isolas": "sweep over the conservative on-site N=10 isolas k=1..8 on nproc "
              "threads: small N, the closure path and the only fan-out",
    "verify": "verify of an N=10 snake branch made in set-up: RK4 dominates, "
              "reads branch.csv, continuation nearly idle",
}

# Which end-to-end metric each group of per-layer metrics should move, and on
# which workload, written down before any change is measured against it.  The
# shares come from serial profiles.  On isolas, traced span times are summed
# over the pool's threads and include waits for the interpreter lock.
PREDICTIONS = {
    "lattice.*": "wall_ref on snake (Jacobian ~4.2 of 9.9 s) and isolas "
                 "(~0.9 of 2.2 s); no change on verify",
    "continuation.*": "wall_ref on snake (detect_folds ~4.2 of 9.9 s) and isolas "
                      "(~1.1 of 2.2 s); no change on verify",
    "linalg.*": "wall_ref on snake (SVD ~2.4 s, grows like N^3); barely isolas; "
                "no change on verify",
    "dynamics.*": "wall_ref on verify only (~85% in chain_rhs)",
    "asymptotics.build_seed.s, model.bistable_roots.calls":
        "setup_s; wall_ref on isolas slightly (8 seeds)",
    "cli.write_branch_csv.*, cli.read_branch_csv.*":
        "at most ~2% of wall_ref on snake (writes) and verify (reads)",
    "cli.sweep.cpu_per_wall": "wall_ref on isolas only; ~1.0 while the sweep "
                              "pool is bound by the interpreter lock",
}

# (name, unit, better) of every per-layer metric a traced run reports.
LAYER_METRICS = [
    ("lattice.jacobian.calls", "count", "lower"),
    ("lattice.jacobian.s", "s", "lower"),
    ("lattice.residual.calls", "count", "lower"),
    ("lattice.residual.s", "s", "lower"),
    ("continuation.continue_branch.s", "s", "lower"),
    ("continuation.continue_branch.self_s", "s", "lower"),
    ("continuation.branch_tangent.calls", "count", "lower"),
    ("continuation.branch_tangent.s", "s", "lower"),
    ("continuation.detect_folds.s", "s", "lower"),
    ("continuation.fold_trials", "count", "lower"),
    ("continuation.fold_trials_per_fold", "ratio", "lower"),
    ("continuation.folds_refined_ratio", "ratio", "higher"),
    ("continuation.points", "count", "lower"),
    ("continuation.jacobians_per_point", "ratio", "lower"),
    ("continuation.newton_iters_per_point", "ratio", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.s", "s", "lower"),
    ("dynamics.integrate.s", "s", "lower"),
    ("dynamics.chain_rhs.calls", "count", "lower"),
    ("dynamics.chain_rhs.s", "s", "lower"),
    ("dynamics.rk4_steps", "count", "lower"),
    ("asymptotics.build_seed.s", "s", "lower"),
    ("model.bistable_roots.calls", "count", "lower"),
    ("cli.write_branch_csv.s", "s", "lower"),
    ("cli.write_branch_csv.bytes", "bytes", "lower"),
    ("cli.read_branch_csv.s", "s", "lower"),
    ("cli.read_branch_csv.bytes", "bytes", "lower"),
    ("cli.sweep.cpu_per_wall", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

SETUPS_PER_RUN = 3
REFERENCE_STEPS = 8000
# Program-side threads: the sweep pool gets nproc workers and BLAS one
# thread each, so the load never asks for more threads than cores.  The
# matrices are at most 65 x 65, where BLAS threads only add contention.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def snaking_config(run_id: str, n: int, mu: float) -> dict:
    """The shipped dissipative off-site snaking config at N nodes, seed mu."""
    return {
        "run_id": run_id,
        "model": {"name": "quintic"},
        "coupling": "dissipative",
        "N": n,
        "eps": 0.01,
        "boundary": "off_site",
        "seed": {"k": 1, "pattern": ["minus"], "mu": mu},
        "continuation": {"ds_init": 0.01, "ds_max": 0.05,
                         "mu_window": [0.03, 0.9985]},
    }


class Workload:
    """Inputs, set-up, command and correctness gates of one workload."""

    n_ops = 1

    def __init__(self, seed: int, run_dir: Path):
        self.rng = random.Random(seed)
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.config_path = run_dir / "config.json"
        self.data = self.make_config()
        self.data["output_dir"] = str(self.out_dir)
        self.rc = None

    def make_config(self) -> dict:
        raise NotImplementedError

    def inputs(self) -> dict:
        return {"seed_mu": self.data["seed"]["mu"]}

    def setup(self) -> None:
        """Write, build and validate the config; subclasses add inputs."""
        self.config_path.write_text(json.dumps(self.data, indent=2), encoding="utf-8")
        self.rc = cli.load_config(json.loads(self.config_path.read_text(encoding="utf-8")))

    def command(self) -> list[str]:
        raise NotImplementedError

    def check(self, code, err: str) -> list[list[str]]:
        """Failure reasons for each operation of the last repeat."""
        if code != 0:
            why = err.strip().splitlines()[-1:] or [""]
            return [[f"exit code {code}: {why[0]}"]] * self.n_ops
        return self.check_outputs()

    def check_outputs(self) -> list[list[str]]:
        raise NotImplementedError

    def golden(self) -> dict:
        raise NotImplementedError


class Snake(Workload):
    def make_config(self) -> dict:
        self.reference = json.loads((BENCH / "reference.json").read_text(
            encoding="utf-8"))["snake_fold_mu"]
        return snaking_config("snake", 32, 0.4 + 0.2 * self.rng.random())

    def command(self) -> list[str]:
        return ["continue", "--config", str(self.config_path)]

    def check_outputs(self) -> list[list[str]]:
        return [gates.check_branch(self.rc, self.out_dir / "snake", "window_exit",
                                   2 * (self.rc.n_nodes - 1), self.reference)]

    def golden(self) -> dict:
        return gates.golden_record(self.out_dir / "snake")


class Isolas(Workload):
    n_ops = 8

    def make_config(self) -> dict:
        # Start mu stays at the shipped 0.5.  Across start mu in [0.4, 0.6]
        # about half the values make some isola fail (a crash, an unrefined
        # fold, extra folds) and the sweep's work moves up to eightfold, so
        # the seed orders the jobs the pool hands out instead.
        values = list(range(1, self.n_ops + 1))
        self.rng.shuffle(values)
        return {
            "run_id": "isolas",
            "model": {"name": "quintic"},
            "coupling": "conservative",
            "N": 10,
            "eps": 0.01,
            "boundary": "on_site",
            "seed": {"k": 1, "mu": 0.5},
            "continuation": {"ds_init": 0.01, "ds_max": 0.05},
            "sweep": {"parameter": "k", "values": values, "workers": nproc()},
        }

    def inputs(self) -> dict:
        return {"seed_mu": 0.5, "sweep_order": self.data["sweep"]["values"],
                "workers": self.data["sweep"]["workers"]}

    def command(self) -> list[str]:
        return ["sweep", "--config", str(self.config_path)]

    def check_outputs(self) -> list[list[str]]:
        values = self.data["sweep"]["values"]
        try:
            codes = json.loads((self.out_dir / "isolas-sweep.json").read_text(
                encoding="utf-8"))["exit_codes"]
        except (OSError, ValueError) as err:
            return [[f"no readable sweep summary: {err}"]] * self.n_ops
        return [[f"k={k}: exit code {code}"] if code != 0 else
                [f"k={k}: {why}" for why in gates.check_branch(
                    self.rc, self.out_dir / f"isolas-k{k}", "closed_isola", 4)]
                for k, code in zip(values, codes)]

    def golden(self) -> dict:
        return {f"k{k}": gates.golden_record(self.out_dir / f"isolas-k{k}")
                for k in sorted(self.data["sweep"]["values"])}


class Verify(Workload):
    def make_config(self) -> dict:
        return snaking_config("verify", 10, 0.4 + 0.2 * self.rng.random())

    @property
    def branch_path(self) -> Path:
        return self.run_dir / "input" / "verify" / "branch.csv"

    def setup(self) -> None:
        super().setup()
        argv = ["continue", "--config", str(self.config_path),
                "--output-dir", str(self.run_dir / "input")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up could not make the input branch (exit {code})")

    def command(self) -> list[str]:
        return ["verify", "--config", str(self.config_path), str(self.branch_path)]

    def check_outputs(self) -> list[list[str]]:
        return [gates.check_verify(self.out_dir / "verify")]

    def golden(self) -> dict:
        report = json.loads((self.out_dir / "verify" / "verify.json").read_text(
            encoding="utf-8"))
        return {
            "input_branch_sha256": gates.file_sha256(self.branch_path),
            "residual_pass": report["residual_check"]["pass"],
            "relative_equilibrium_pass": report["relative_equilibrium"]["pass"],
        }


WORKLOAD_TYPES = {"snake": Snake, "isolas": Isolas, "verify": Verify}


def cold_import_seconds() -> float:
    """Time to import ``locsync.cli`` in a fresh interpreter, startup excluded."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import locsync.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def timed_setup(wl: Workload) -> float:
    """One set-up: cold import of locsync, then the workload's own set-up."""
    seconds = cold_import_seconds()
    t0 = time.perf_counter()
    wl.setup()
    return seconds + time.perf_counter() - t0


def run_once(wl: Workload, tr=None) -> tuple[float, list[list[str]]]:
    """One repeat of the command: its wall time and per-operation failures."""
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    traced = tr.installed() if tr is not None else contextlib.nullcontext()
    with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(wl.command())
        except Exception:
            code = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return wall, wl.check(code, err.getvalue())


def make_tracer():
    """A tracer on the names each layer's callers look up at call time."""
    from locsync import asymptotics, continuation, dynamics, model

    def walk_points(tr, args, branch):
        walk = [p for p in branch.points if not p.is_fold]
        tr.count("points", len(walk))
        tr.count("newton_iters", sum(p.newton_iters for p in walk))

    def folds(tr, args, records):
        tr.count("folds", len(records))
        tr.count("folds_refined", sum(r.refined for r in records))

    def rk4_steps(tr, args, traj):
        tr.count("rk4_steps", traj.times.size - 1)

    def written(tr, args, result):
        tr.count("write_bytes", os.path.getsize(args[2]))

    def read(tr, args, result):
        tr.count("read_bytes", os.path.getsize(args[0]))

    tr = tracer.Tracer()
    tr.target(continuation, "residual", "lattice.residual")
    tr.target(continuation, "jacobian", "lattice.jacobian")
    tr.target(continuation, "continue_branch", "continuation.continue_branch",
              walk_points)
    tr.target(continuation, "branch_tangent", "continuation.branch_tangent")
    tr.target(continuation, "detect_folds", "continuation.detect_folds", folds)
    tr.target(np.linalg, "svd", "linalg.svd")
    tr.target(np.linalg, "solve", "linalg.solve")
    tr.target(dynamics, "integrate", "dynamics.integrate", rk4_steps)
    tr.target(dynamics, "chain_rhs", "dynamics.chain_rhs")
    tr.target(asymptotics, "build_seed", "asymptotics.build_seed")
    tr.target(asymptotics, "bistable_roots", "model.bistable_roots")
    tr.target(model, "bistable_roots", "model.bistable_roots")
    tr.target(cli, "write_branch_csv", "cli.write_branch_csv", written)
    tr.target(cli, "read_branch_csv", "cli.read_branch_csv", read)
    tr.target(cli, "cmd_sweep", "cli.sweep", cpu=True)
    return tr


def layer_metrics(tr) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since the last reset."""
    spans = tr.summary()
    count = tr.counters.get

    def ratio(num, den):
        return num / den if den else 0.0

    points, n_folds = count("points", 0), count("folds", 0)
    trials = tr.calls_under("continuation.branch_tangent", "continuation.detect_folds")
    out = {}
    for layer in ("lattice.jacobian", "lattice.residual", "continuation.branch_tangent",
                  "linalg.svd", "linalg.solve", "dynamics.chain_rhs"):
        out[f"{layer}.calls"] = spans[layer]["calls"]
    for layer in ("lattice.jacobian", "lattice.residual", "continuation.continue_branch",
                  "continuation.branch_tangent", "continuation.detect_folds",
                  "linalg.svd", "linalg.solve", "dynamics.integrate",
                  "dynamics.chain_rhs", "asymptotics.build_seed",
                  "cli.write_branch_csv", "cli.read_branch_csv"):
        out[f"{layer}.s"] = spans[layer]["s"]
    out.update({
        "continuation.continue_branch.self_s":
            spans["continuation.continue_branch"]["self_s"],
        "continuation.fold_trials": trials,
        "continuation.fold_trials_per_fold": ratio(trials, n_folds),
        "continuation.folds_refined_ratio": ratio(count("folds_refined", 0), n_folds),
        "continuation.points": points,
        "continuation.jacobians_per_point":
            ratio(spans["lattice.jacobian"]["calls"], points),
        "continuation.newton_iters_per_point": ratio(count("newton_iters", 0), points),
        "dynamics.rk4_steps": count("rk4_steps", 0),
        "model.bistable_roots.calls": spans["model.bistable_roots"]["calls"],
        "cli.write_branch_csv.bytes": count("write_bytes", 0),
        "cli.read_branch_csv.bytes": count("read_bytes", 0),
        "cli.sweep.cpu_per_wall": ratio(spans["cli.sweep"]["cpu_s"],
                                        spans["cli.sweep"]["s"]),
    })
    return out


def reference_seconds() -> float:
    """Wall time of a fixed kernel that owes nothing to locsync.

    RK4 steps of a 20-node complex chain written with NumPy: small-array
    calls paced by the interpreter, as most of locsync's time is.  Timed
    right before and after each repeat, it measures how fast this shared
    machine runs at that moment; its speed drifts by tens of percent over
    minutes, which a repeat's ``wall_ref`` divides out.
    """
    z = np.exp(1j * np.linspace(0.0, 1.0, 20))
    dt = 1e-3

    def rhs(z):
        m = np.abs(z)
        lap = np.concatenate([z[1:], z[-1:]]) - 2.0 * z + np.concatenate([z[:1], z[:-1]])
        return (0.5 + m**2 - m**4 + 1j * (1.0 + m**2)) * z + 0.01 * lap

    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    seconds = time.perf_counter() - t0
    if not np.all(np.isfinite(z)):
        raise RuntimeError("reference kernel diverged")
    return seconds


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Warm up once, then repeat in a closed loop for about ``seconds``.

    Each untraced repeat runs between two timings of the reference kernel;
    its wall time over their mean is the repeat's ``wall_ref``.
    """
    tr = make_tracer() if trace else None
    failures: list[list[str]] = []
    _, fails = run_once(wl)
    failures += fails
    walls, refs, kernels, traced_walls, layers = [], [], [], [], []
    t_start = time.perf_counter()
    before = reference_seconds()
    while True:
        wall, fails = run_once(wl)
        after = reference_seconds()
        walls.append(wall)
        refs.append(wall / (0.5 * (before + after)))
        kernels.append(after)
        failures += fails
        before = after
        if tr is not None:
            tr.reset()
            wall, fails = run_once(wl, tr)
            traced_walls.append(wall)
            failures += fails
            layers.append(layer_metrics(tr))
            before = reference_seconds()
        elapsed = time.perf_counter() - t_start
        # Start another repeat only if it should end within the budget.
        if elapsed + elapsed / len(walls) > seconds:
            break
    return {"walls": walls, "refs": refs, "kernels": kernels,
            "traced_walls": traced_walls, "layers": layers, "failures": failures}


def highest_percentile(samples: list[float]):
    """(p, value) of the highest percentile with ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def blas_threads():
    """OpenBLAS's own thread count if its library is loaded, else the env value."""
    libs = []
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def compare_golden(workload: str, seed: int, record: dict) -> str:
    stored = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    want = stored.get(workload, {}).get(str(seed))
    if want is None:
        return f"no golden record for {workload} seed {seed}"
    if want == record:
        return "identical to bench/golden.json"
    differs = sorted(key for key in set(want) | set(record)
                     if want.get(key) != record.get(key))
    return f"differs from bench/golden.json in {', '.join(differs)}"


def update_golden(workload: str, seed: int, record: dict) -> None:
    path = BENCH / "golden.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    stored.setdefault(workload, {})[str(seed)] = record
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_program() -> None:
    """Import locsync from this checkout's ``src/``, with one BLAS thread.

    Deferred to here because BLAS reads its thread count when NumPy is
    first imported, and the sources must be found before they are imported.
    """
    global cli, gates, np, tracer
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    from locsync import cli
    import gates
    import tracer


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="store this run's golden record in bench/golden.json")
    args = parser.parse_args(argv)

    if not (SRC / "locsync" / "__init__.py").is_file():
        print(f"locsync sources not found under {SRC}", file=sys.stderr)
        return 2
    load_program()
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOAD_TYPES[args.workload](args.seed, run_dir)
    setups = [timed_setup(wl) for _ in range(SETUPS_PER_RUN)]
    result = measure(wl, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = result["failures"]
    failed = sum(1 for reasons in failures if reasons)
    try:
        golden = wl.golden()
    except (OSError, ValueError, KeyError) as err:
        golden = {"error": str(err)}
    if args.update_golden and not failed:
        update_golden(args.workload, args.seed, golden)
    walls = result["walls"]
    wall_s = statistics.median(walls)
    wall_ref = statistics.median(result["refs"])
    pct = highest_percentile(walls)
    print(f"workload {args.workload}  seed {args.seed}  inputs {wl.inputs()}")
    print(f"wall_s       {wall_s:.4f} s   median of {len(walls)} repeats after "
          f"1 warm-up; " + (f"p{pct[0]} {pct[1]:.4f} s" if pct else
                            "no percentile with ten samples beyond it"))
    print(f"wall_ref     {wall_ref:.4f} ref  median of wall time over the reference "
          f"kernel's ({statistics.median(result['kernels']):.4f} s) around each repeat")
    print(f"setup_s      {statistics.median(setups):.4f} s   median of {len(setups)}")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"fail_ratio   {failed / len(failures):.4f}   "
          f"({failed} of {len(failures)} operations failed)")
    print(f"golden       {compare_golden(args.workload, args.seed, golden)}")
    for i, reasons in enumerate(failures):
        for why in reasons:
            print(f"FAIL op {i}: {why}", file=sys.stderr)

    if args.trace:
        layers = result["layers"]
        metrics = {}
        for name, unit, _ in LAYER_METRICS[:-1]:
            values = [layer[name] for layer in layers]
            if unit in ("count", "bytes") and len(set(values)) > 1:
                print(f"warning: {name} differs between traced repeats: {values}",
                      file=sys.stderr)
            metrics[name] = metric(statistics.median(values), unit)
        metrics["trace.overhead_s"] = metric(
            statistics.median(result["traced_walls"]) - wall_s, "s")
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "wall_ref": metric(wall_ref, "ref"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    record = {
        "workload": args.workload, "why": WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": wl.inputs(), "environment": environment(),
        "setup_samples_s": setups, "wall_samples_s": walls,
        "traced_wall_samples_s": result["traced_walls"],
        "wall_ref_samples": result["refs"], "reference_samples_s": result["kernels"],
        "failures": failures, "golden": golden, "metrics": metrics,
        "predictions": PREDICTIONS,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"record       {run_dir / 'record.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(failures),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
