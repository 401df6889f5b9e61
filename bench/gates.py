"""Correctness gates for benchmark operations.

Each gate returns the reasons an operation failed; an empty list is a pass.
The gates read what the command wrote (``summary.json``, ``branch.csv``,
``verify.json``) and recompute row residuals with ``locsync.lattice``, so a
wrong branch fails even when the command exits 0.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from locsync import cli, lattice

FOLD_MU_TOL = 1e-9


def max_row_residual(rc: cli.RunConfig, csv_path: Path) -> float:
    """Largest residual max-norm over the rows of a ``branch.csv``."""
    n = rc.n_nodes
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != cli.branch_csv_header(n):
            raise ValueError(f"unexpected branch.csv header in {csv_path}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    worst = 0.0
    for row in rows:
        state = lattice.PolarState(row[5:5 + n], row[5 + n:4 + 2 * n], row[3], row[2])
        res = lattice.residual(rc.spec, rc.coupling, state, rc.eps, rc.bc)
        worst = np.maximum(worst, np.max(np.abs(res)))  # NaN propagates
    return float(worst)


def check_branch(rc: cli.RunConfig, run_dir: Path, closure: str, n_folds: int,
                 reference_mu: list[float] | None = None) -> list[str]:
    """Gate one branch written by ``continue``: closure, folds, residuals."""
    try:
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        got_closure = summary["closure"]
        fold_mu = [f["mu"] for f in summary["folds"]]
        refined = [f["refined"] for f in summary["folds"]]
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"no readable summary.json: {err!r}"]
    reasons = []
    if got_closure != closure:
        reasons.append(f"closure {got_closure}, expected {closure}")
    if len(fold_mu) != n_folds:
        reasons.append(f"{len(fold_mu)} folds, expected {n_folds}")
    unrefined = [mu for mu, ok in zip(fold_mu, refined) if not ok]
    if unrefined:
        reasons.append(f"unrefined folds at mu={unrefined}")
    if reference_mu is not None:
        off = [(i, mu, ref) for i, (mu, ref) in enumerate(zip(fold_mu, reference_mu))
               if abs(mu - ref) > FOLD_MU_TOL]
        if off:
            i, got, ref = off[0]
            reasons.append(f"{len(off)} fold mu off the reference by more than "
                           f"{FOLD_MU_TOL:g}; first: fold {i} at {got!r}, "
                           f"reference {ref!r}")
    try:
        worst = max_row_residual(rc, run_dir / "branch.csv")
    except (OSError, ValueError) as err:
        return reasons + [f"unreadable branch.csv: {err}"]
    if not worst <= rc.cont.newton_tol:
        reasons.append(f"branch.csv row residual {worst:.3e} above "
                       f"newton_tol={rc.cont.newton_tol:g}")
    return reasons


def check_verify(run_dir: Path) -> list[str]:
    """Gate one ``verify`` report by its ``pass`` fields, not its exit code."""
    keys = ("residual_check", "relative_equilibrium")
    try:
        report = json.loads((run_dir / "verify.json").read_text(encoding="utf-8"))
        passed = [report[key]["pass"] for key in keys]
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"no readable verify.json: {err!r}"]
    return [f"verify {key} failed" for key, ok in zip(keys, passed) if ok is not True]


def golden_record(run_dir: Path) -> dict:
    """Closure, fold mu list and branch.csv sha256 of one written branch."""
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    return {
        "closure": summary["closure"],
        "fold_mu": [f["mu"] for f in summary["folds"]],
        "branch_sha256": file_sha256(run_dir / "branch.csv"),
    }


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
