"""Self-test of the benchmark: every gate can fail, tracing is exact.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

run.load_program()

import gates  # noqa: E402
import tracer  # noqa: E402


class SmallSnake(run.Snake):
    """The snake workload at N=5, without a stored fold reference."""

    def make_config(self) -> dict:
        self.reference = None
        return run.snaking_config("snake", 5, 0.5)


@pytest.fixture(scope="module")
def verify_wl(tmp_path_factory) -> run.Verify:
    """A verify workload after set-up: its N=10 input branch exists."""
    wl = run.Verify(1, tmp_path_factory.mktemp("verify"))
    wl.setup()
    return wl


@pytest.fixture
def branch_dir(verify_wl, tmp_path) -> Path:
    """A private copy of the verify workload's input branch directory."""
    return Path(shutil.copytree(verify_wl.branch_path.parent, tmp_path / "branch"))


def nudge_row(csv_path: Path, row: int, column: str, delta: float) -> None:
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_summary(run_dir: Path, edit) -> None:
    path = run_dir / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    edit(summary)
    path.write_text(json.dumps(summary), encoding="utf-8")


def fold_mu(run_dir: Path) -> list[float]:
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    return [f["mu"] for f in summary["folds"]]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in run.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref", "setup_s", "peak_rss_mb"}


def test_verify_counts_a_failure_on_a_nudged_row(verify_wl):
    _, failures = run.run_once(verify_wl)
    assert failures == [[]]
    saved = verify_wl.branch_path.read_bytes()
    try:
        nudge_row(verify_wl.branch_path, 100, "r_3", 1e-6)
        _, failures = run.run_once(verify_wl)
    finally:
        verify_wl.branch_path.write_bytes(saved)
    assert failures == [["verify residual_check failed"]]


def test_branch_gate_passes_the_written_branch(verify_wl, branch_dir):
    assert gates.check_branch(verify_wl.rc, branch_dir, "window_exit", 18,
                              fold_mu(branch_dir)) == []


def test_shifted_reference_fold_mu_fails(verify_wl, branch_dir):
    reference = fold_mu(branch_dir)
    reference[7] += 2e-9
    reasons = gates.check_branch(verify_wl.rc, branch_dir, "window_exit", 18, reference)
    assert len(reasons) == 1 and "fold 7" in reasons[0]


def test_dropped_fold_fails_the_fold_count(verify_wl, branch_dir):
    edit_summary(branch_dir, lambda s: s["folds"].pop(3))
    assert gates.check_branch(verify_wl.rc, branch_dir, "window_exit", 18) \
        == ["17 folds, expected 18"]


def test_wrong_closure_and_unrefined_fold_fail(verify_wl, branch_dir):
    def edit(summary):
        summary["closure"] = "open"
        summary["folds"][0]["refined"] = False

    edit_summary(branch_dir, edit)
    reasons = gates.check_branch(verify_wl.rc, branch_dir, "window_exit", 18)
    assert reasons[0] == "closure open, expected window_exit"
    assert reasons[1].startswith("unrefined folds at mu=")


def test_row_residual_gate_fails_on_a_nudged_row(verify_wl, branch_dir):
    nudge_row(branch_dir / "branch.csv", 100, "r_3", 1e-6)
    reasons = gates.check_branch(verify_wl.rc, branch_dir, "window_exit", 18)
    assert len(reasons) == 1 and "row residual" in reasons[0]


def test_nonzero_exit_fails_every_operation(tmp_path):
    wl = run.Isolas(1, tmp_path)
    assert wl.check(1, "config error: boom\n") == [["exit code 1: config error: boom"]] * 8


def test_traced_counts_repeat_exactly(tmp_path):
    wl = SmallSnake(1, tmp_path)
    wl.setup()
    layers = []
    for _ in range(2):
        tr = run.make_tracer()
        _, failures = run.run_once(wl, tr)
        assert failures == [[]]
        layers.append(run.layer_metrics(tr))
    counts = [{name: layer[name] for name, unit, _ in run.LAYER_METRICS[:-1]
               if unit in ("count", "bytes")} for layer in layers]
    assert counts[0] == counts[1]
    assert counts[0]["continuation.fold_trials"] > 0
    assert counts[0]["continuation.points"] > 0
    assert layers[0]["continuation.folds_refined_ratio"] == 1.0


def test_self_time_and_ancestry():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(1000))
    ns.outer = lambda: ns.inner() + ns.inner()
    tr = tracer.Tracer()
    tr.target(ns, "inner", "inner")
    tr.target(ns, "outer", "outer")
    with tr.installed():
        ns.outer()
        ns.inner()
    spans = tr.summary()
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 3
    durations = [e - s for s, e in zip(tr.start, tr.end)]
    assert spans["outer"]["self_s"] == pytest.approx(
        durations[0] - durations[1] - durations[2])
    assert tr.calls_under("inner", "outer") == 2
    assert ns.outer.__name__ == "<lambda>" and not hasattr(ns.outer, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "snake", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
