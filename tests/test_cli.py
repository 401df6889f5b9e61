import json
import os
import pickle
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from locsync import cli, continuation, dynamics
from locsync.cli import (
    MAX_N,
    ConfigError,
    branch_csv_header,
    load_config,
    main,
    read_branch_csv,
    write_branch_csv,
)
from locsync.lattice import LatticeError, PolarState
from reference import csv_writer_branch_csv, row_by_row_branch_csv, walked_alone


def base_config(tmp_path, **overrides):
    cfg = {
        "run_id": "test-run",
        "model": {"name": "quintic"},
        "coupling": "dissipative",
        "N": 4,
        "eps": 0.01,
        "boundary": "off_site",
        "seed": {"k": 1, "pattern": ["minus"], "mu": 0.5},
        "continuation": {"ds_init": 0.01, "ds_max": 0.05,
                         "mu_window": [0.03, 0.9985]},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def _no_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_load_config_builds_objects(tmp_path):
    rc = load_config(base_config(tmp_path))
    assert rc.n_nodes == 4
    assert rc.spec.name == "quintic"
    assert rc.ansatz.pattern == ("minus",)
    assert rc.cont.mu_window == (0.03, 0.9985)


def test_unknown_keys_rejected(tmp_path):
    cfg = base_config(tmp_path)
    cfg["surprise"] = 1
    with pytest.raises(ConfigError):
        load_config(cfg)
    cfg = base_config(tmp_path)
    cfg["seed"]["extra"] = True
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_invalid_values_rejected(tmp_path):
    for patch in (
        {"N": 1},
        {"eps": -0.1},
        {"boundary": "periodic"},
        {"coupling": "magnetic"},
        {"seed": {"k": 9, "mu": 0.5}},
        {"seed": {"k": 1, "mu": 1.5}},
    ):
        cfg = base_config(tmp_path)
        cfg.update(patch)
        with pytest.raises(ConfigError):
            load_config(cfg)


@pytest.mark.parametrize("section, key", [(None, "eps"), ("continuation", "ds_max"),
                                          ("seed", "mu"), (None, "N"), ("seed", "k"),
                                          ("continuation", "max_steps")])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, section, key, value):
    # NaN fails no "< minimum" test and Infinity passes every "> minimum";
    # an integer literal too large for a float is not finite either, for a
    # number or an integer key
    cfg = base_config(tmp_path)
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    with pytest.raises(ConfigError, match=f"at {'.'.join(filter(None, (section, key)))}:"):
        load_config(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["continue", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_DELETE = object()


def _patched(cfg, path, value):
    *sections, key = path.split(".")
    target = cfg
    for section in sections:
        target = target.setdefault(section, {})
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    return cfg


_K_SWEEP = {"parameter": "k", "values": [1, 2]}

_REJECTED = [  # (key path set or deleted, value, where the message points)
    # types; a bool is not a number and 4.5 is not an integer
    ("N", "4", "N"), ("N", True, "N"), ("N", 4.5, "N"), ("eps", True, "eps"),
    ("eps", [], "eps"), ("seed.mu", None, "seed.mu"), ("model", [], "model"),
    ("model.name", 3, "model.name"), ("run_id", 3, "run_id"),
    ("output_dir", None, "output_dir"), ("seed", "k=1", "seed"),
    ("continuation.mu_window", {"lo": 0.1}, "continuation.mu_window"),
    # enums
    ("boundary", "periodic", "boundary"), ("seed.template", "x", "seed.template"),
    ("seed.pattern", ["up"], "seed.pattern.0"),
    ("sweep", {"parameter": "mu", "values": [0.5]}, "sweep.parameter"),
    # minimums and exclusive minimums
    ("N", 1, "N"), ("eps", -0.1, "eps"), ("seed.k", 0, "seed.k"),
    ("continuation.max_steps", 0, "continuation.max_steps"),
    ("continuation.ds_init", 0, "continuation.ds_init"),
    ("simulate", {"dt": 0.0}, "simulate.dt"), ("simulate", {"horizon": -1}, "simulate.horizon"),
    ("sweep", {**_K_SWEEP, "workers": 0}, "sweep.workers"),
    ("run_id", "", "run_id"),
    # minItems and maxItems
    ("continuation.mu_window", [0.1], "continuation.mu_window"),
    ("continuation.mu_window", [0.1, 0.5, 0.9], "continuation.mu_window"),
    ("model", {"polynomial_lambda": []}, "model.polynomial_lambda"),
    ("sweep", {"parameter": "eps", "values": []}, "sweep.values"),
    # required keys
    ("N", _DELETE, "top level"), ("seed.mu", _DELETE, "seed"), ("model", {}, "model"),
    ("omega1", {}, "omega1"), ("coupling", {"c_re": 1.0}, "coupling"),
    ("sweep", {"values": [1]}, "sweep"),
    # unknown keys, at every level
    ("surprise", 1, "top level"), ("seed.extra", True, "seed"),
    ("model.extra", 1, "model"), ("omega1", {"linear_coefficient": 1, "x": 1}, "omega1"),
    ("coupling", {"c_re": 1.0, "c_im": 0.0, "x": 0}, "coupling"),
    ("continuation.ds", 0.1, "continuation"), ("simulate.steps", 10, "simulate"),
    ("sweep", {**_K_SWEEP, "jobs": 2}, "sweep"),
    # the string-or-{c_re, c_im} coupling
    ("coupling", "magnetic", "coupling"), ("coupling", 5, "coupling"),
    ("coupling", {"c_re": "1", "c_im": 0.0}, "coupling.c_re"),
    # sweep.values typed by sweep.parameter
    ("sweep", {"parameter": "k", "values": [1.5]}, "sweep.values.0"),
    ("sweep", {"parameter": "k", "values": [1, 0]}, "sweep.values.1"),
    ("sweep", {"parameter": "eps", "values": [-0.1]}, "sweep.values.0"),
    ("sweep", {"parameter": "eps", "values": ["a"]}, "sweep.values.0"),
    # the finite rule
    ("eps", float("nan"), "eps"), ("omega1", {"linear_coefficient": float("inf")},
                                   "omega1.linear_coefficient"),
    ("continuation.mu_window", [0.1, float("inf")], "continuation.mu_window.1"),
    ("sweep", {**_K_SWEEP, "workers": 10**400}, "sweep.workers"),
    ("sweep", {"parameter": "k", "values": [10**400]}, "sweep.values.0"),
    # the method's fixed constants are not config keys
    ("continuation.ds_min", 1e-7, "continuation"),
    ("continuation.newton_max_iter", 12, "continuation"),
    ("continuation.closure_tol", 1e-6, "continuation"),
    ("continuation.fold_refine_tol", 1e-10, "continuation"),
    ("continuation.newton_tol", 1e-10, "continuation"),
    ("continuation.ds_init", 1e-8, "continuation"),  # below DS_MIN
]


@pytest.mark.parametrize("path, value, where", _REJECTED)
def test_config_reader_rejects(tmp_path, path, value, where):
    with pytest.raises(ConfigError, match=f"^invalid config at {where}: "):
        load_config(_patched(base_config(tmp_path), path, value))


@pytest.mark.parametrize("path, value, check", [
    ("N", 4.0, lambda rc: rc.n_nodes == 4 and type(rc.n_nodes) is int),
    ("continuation.max_steps", 7.0, lambda rc: type(rc.cont.max_steps) is int),
    # the smallest ds_init the walk takes
    ("continuation.ds_init", 1e-7, lambda rc: rc.cont.ds_init == continuation.DS_MIN),
    ("output_dir", "", lambda rc: rc.output_dir == Path("")),
    ("sweep", {**_K_SWEEP, "workers": 2}, lambda rc: rc.raw["sweep"]["workers"] == 2),
    ("sweep", {"parameter": "k", "values": [2.0, 3]}, lambda rc: True),
    ("sweep", {"parameter": "eps", "values": [0, 0.5]}, lambda rc: True),
    ("coupling", {"c_re": 0.6, "c_im": 0.8}, lambda rc: rc.coupling.c_im == 0.8),
])
def test_config_reader_accepts(tmp_path, path, value, check):
    assert check(load_config(_patched(base_config(tmp_path), path, value)))


def test_non_unit_coupling_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path, coupling={"c_re": 2.0, "c_im": 0.0}))
    assert main(["seed", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config at coupling: ")
    assert "|c| = 1" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["omega0_const", "mu_coefficient"])
def test_model_name_takes_no_other_key(tmp_path, key):
    cfg = base_config(tmp_path, model={"name": "quintic", key: 1.0})
    with pytest.raises(ConfigError, match="^invalid config at model: "):
        load_config(cfg)


def test_k_override_beyond_the_index_range_is_a_config_error(tmp_path, capsys):
    # ["plus"] * k cannot be built for this k; the ansatz check rejects it first
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["seed", "--config", path, "--k", str(10**20)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config at seed: need 1 <= k <= N-1")
    assert not (tmp_path / "out").exists()


def test_configs_load_with_only_stdlib_and_numpy():
    # any other top-level import fails, as it would where only numpy is installed
    root = Path(__file__).resolve().parents[1]
    code = ("import json, pathlib, sys\n"
            "allowed = sys.stdlib_module_names | {'numpy', 'locsync'}\n"
            "class Only:\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name.partition('.')[0] not in allowed:\n"
            "            raise ModuleNotFoundError(f'blocked: {name}')\n"
            "sys.meta_path.insert(0, Only)\n"
            "from locsync.cli import load_config\n"
            # no command imports these (sweep forks its children directly)
            "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            f"for p in sorted(pathlib.Path({str(root / 'configs')!r}).glob('*.json')):\n"
            "    load_config(json.loads(p.read_text(encoding='utf-8')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


def test_sweep_imports_neither_multiprocessing_nor_concurrent_futures(tmp_path):
    # a sweep of two processes, run through cli.main in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    cfg = _k_sweep(tmp_path, [1, 2], workers=2)
    cfg["continuation"]["max_steps"] = 5
    code = ("import sys\n"
            "from locsync import cli\n"
            "assert cli.main(['sweep', '--config', sys.argv[1]]) == 0\n"
            "loaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code, write_config(tmp_path, cfg)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("test-run-k1: ")
    assert json.loads((tmp_path / "out" / "test-run-sweep.json").read_text())["exit_codes"] \
        == [0, 0]


@pytest.mark.parametrize("flag, section", [("--k", "seed"), ("--max-steps", "continuation")])
def test_override_into_a_section_that_is_not_an_object_exits_2(tmp_path, capsys, flag,
                                                                section):
    # the flag leaves the section alone, and the reader names it
    path = write_config(tmp_path, base_config(tmp_path, **{section: 5}))
    assert main(["seed", "--config", path, flag, "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: invalid config at {section}: 5 is not an object\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, argv, shown", [(10**20, [], 10**20),
                                            (4, ["--n-nodes", str(MAX_N + 1)], MAX_N + 1)])
def test_n_above_the_bound_exits_2_naming_n(tmp_path, capsys, n, argv, shown):
    # rejected while reading the config, before any array is allocated
    path = write_config(tmp_path, base_config(tmp_path, N=n))
    assert main(["seed", "--config", path, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid config at N: {shown} is above {MAX_N}")
    assert "Traceback" not in err and not (tmp_path / "out").exists()
    assert load_config(base_config(tmp_path, N=MAX_N)).n_nodes == MAX_N


@pytest.mark.parametrize("flag, value", [("--eps", "abc"), ("--mu", "x"),
                                         ("--max-steps", "1.5"), ("--k", "two"),
                                         ("--n-nodes", "4.0")])
def test_bad_numeric_override_exits_2_with_usage(tmp_path, capsys, flag, value):
    path = write_config(tmp_path, base_config(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["seed", "--config", path, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_polynomial_model_config(tmp_path):
    cfg = base_config(tmp_path, model={
        "polynomial_lambda": [0.0, 2.0, -1.0], "mu_coefficient": -1.0,
    })
    rc = load_config(cfg)
    assert float(rc.spec.lam(1.0, 1.0)) == pytest.approx(0.0)


def test_conservative_template_default(tmp_path):
    cfg = base_config(tmp_path, coupling="conservative",
                      boundary="on_site",
                      seed={"k": 2, "mu": 0.5})
    rc = load_config(cfg)
    assert rc.ansatz.phase_template == "conservative"
    assert rc.ansatz.pattern == ("plus", "plus")


def test_cmd_continue_and_verify(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["continue", "--config", path]) == 0
    run_dir = tmp_path / "out" / "test-run"
    assert (run_dir / "branch.csv").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["closure"] == "window_exit"
    assert summary["n_folds"] == 6
    assert main(["verify", "--config", path, str(run_dir / "branch.csv")]) == 0
    report = json.loads((run_dir / "verify.json").read_text())
    assert report["residual_check"]["pass"]
    assert report["relative_equilibrium"]["pass"]
    assert all(f["rel_error"] <= 0.5 for f in report["fold_mu1"])


def test_summary_recomputable_from_csv(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    main(["continue", "--config", path])
    run_dir = tmp_path / "out" / "test-run"
    rows = read_branch_csv(run_dir / "branch.csv", 4)
    summary = json.loads((run_dir / "summary.json").read_text())
    fold_mus = sorted(r["state"].mu for r in rows if r["is_fold"])
    assert fold_mus == sorted(f["mu"] for f in summary["folds"])
    mus = [r["state"].mu for r in rows]
    assert summary["mu_range"] == [min(mus), max(mus)]
    assert summary["n_points"] == len(rows)
    for r in rows:
        assert r["r_l2"] == float(np.linalg.norm(r["state"].r))


def test_csv_roundtrip_preserves_doubles(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    main(["continue", "--config", path])
    run_dir = tmp_path / "out" / "test-run"
    rows = read_branch_csv(run_dir / "branch.csv", 4)
    from locsync.cli import load_config as lc
    rc = lc(base_config(tmp_path))
    system = rc.system()
    worst = max(system.residual_norm(r["state"]) for r in rows)
    assert worst <= rc.cont.newton_tol


def test_reproducibility_byte_identical(tmp_path):
    cfg = base_config(tmp_path)
    p1 = write_config(tmp_path, dict(cfg, run_id="r1"), "c1.json")
    p2 = write_config(tmp_path, dict(cfg, run_id="r2"), "c2.json")
    main(["continue", "--config", p1])
    main(["continue", "--config", p2])
    a = (tmp_path / "out" / "r1" / "branch.csv").read_bytes()
    b = (tmp_path / "out" / "r2" / "branch.csv").read_bytes()
    assert a == b
    sa = json.loads((tmp_path / "out" / "r1" / "summary.json").read_text())
    sb = json.loads((tmp_path / "out" / "r2" / "summary.json").read_text())
    for s in (sa, sb):
        s.pop("wall_time_seconds")
        s.pop("run_id")
        s["config"].pop("run_id")
    assert sa == sb


def test_exit_code_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {"name": "quintic"}}', encoding="utf-8")
    assert main(["continue", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    assert main(["continue", "--config", str(notjson)]) == 2
    capsys.readouterr()
    # a valid config with no sweep section: no config error prefix, no run
    assert main(["sweep", "--config", write_config(tmp_path, base_config(tmp_path))]) == 2
    assert capsys.readouterr().err == "config has no 'sweep' section\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [b'{"run_id": "r\xff"}', b"[" * 200_000 + b"]" * 200_000],
                         ids=["not-utf8", "deeply-nested"])
def test_undecodable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["continue", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_verify_exit_code_follows_the_verdict(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path, N=10))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    assert main(["verify", "--config", path, str(csv_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("r_3")
    cells = lines[101].split(",")
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[101] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--config", path, str(csv_path)]) == 1
    report = json.loads((csv_path.parent / "verify.json").read_text())
    assert not report["residual_check"]["pass"]


def test_verify_reports_newton_failure_at_eps_zero(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((root / "snaking_offsite.json").read_text(encoding="utf-8"))
    cfg.update(eps=0.0, output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert main(["continue", "--config", path]) == 1
    run_dir = tmp_path / "out" / cfg["run_id"]
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["closure"] == "open"
    # both runs fail, near mu 0.49994 and 0.50006: one line per end, in branch order
    ends = summary["endpoints"]
    assert capsys.readouterr().err == "".join(
        f"{cfg['run_id']}: branch ended open at mu={ends[end]['mu']!r}\n"
        for end in ("first", "last"))
    csv_path = run_dir / "branch.csv"
    assert main(["verify", "--config", path, str(csv_path)]) == 1
    report = json.loads((csv_path.parent / "verify.json").read_text())
    failed = [s for s in report["relative_equilibrium"]["samples"] if "error" in s]
    assert failed and not report["relative_equilibrium"]["pass"]
    assert {"row", "mu", "error"} <= set(failed[0])
    assert failed[0]["error"].startswith("SingularJacobian")
    assert f"row {failed[0]['row']} at mu=" in capsys.readouterr().err


@pytest.mark.parametrize("seed_mu, failed_end", [(0.4, "last"), (0.6, "first")])
def test_merged_branch_reports_its_failed_end(tmp_path, capsys, seed_mu, failed_end):
    # At theta = 0.35 one run leaves the mu window and the other stops on a
    # corrector failure at mu 0.6811, inside the window: the branch is open,
    # not a window exit, and the failed end is named.  From mu 0.4 it is the
    # +1 run's end, the last point; from mu 0.6 the -1 run's, the first.
    root = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((root / "snaking_offsite.json").read_text(encoding="utf-8"))
    cfg.update(N=8, coupling={"c_re": np.cos(0.35), "c_im": np.sin(0.35)},
               seed={"k": 1, "mu": seed_mu, "template": "conservative"},
               output_dir=str(tmp_path / "out"))
    assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 1
    summary = json.loads((tmp_path / "out" / cfg["run_id"] / "summary.json").read_text())
    assert summary["closure"] == "open"
    mu = summary["endpoints"][failed_end]["mu"]
    assert 0.68 < mu < 0.69
    assert capsys.readouterr().err == f"{cfg['run_id']}: branch ended open at mu={mu!r}\n"


def test_verify_at_eps_zero_reports_no_mu1_fold_error(tmp_path, capsys):
    # the branch has folds above mu = 0.9, where (1 - mu) / eps was taken
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    assert any(r["is_fold"] and r["state"].mu > 0.9 for r in read_branch_csv(csv_path, 4))
    assert main(["verify", "--config", path, "--eps", "0", str(csv_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((csv_path.parent / "verify.json").read_text())
    assert report["fold_mu1"] is None and report["fold_mu0"] is None
    assert not report["residual_check"]["pass"]


def test_exit_code_missing_branch_file(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["verify", "--config", path, str(tmp_path / "nope.csv")]) == 2
    assert capsys.readouterr().err == f"branch file not found: {tmp_path / 'nope.csv'}\n"
    assert not (tmp_path / "out").exists()
    # a path that exists but is a directory is unreadable, not a traceback
    assert main(["verify", "--config", path, str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"cannot read branch file {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


def test_exit_code_corrupted_csv(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    # a byte that is not UTF-8: exit 2 with the path, before any run directory
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(",".join(branch_csv_header(4)).encode() + b"\r\n0,\xff\r\n")
    assert main(["verify", "--config", path, str(undecodable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read branch file {undecodable}: 'utf-8' codec")
    assert err.count("\n") == 1 and "Traceback" not in err
    # a field above the csv module's size limit
    oversized = tmp_path / "oversized.csv"
    oversized.write_text(",".join(branch_csv_header(4)) + "\r\n" + "1" * 200_000 + "\r\n",
                         encoding="utf-8")
    assert main(["verify", "--config", path, str(oversized)]) == 2
    assert capsys.readouterr().err == f"cannot read branch file {oversized}: " \
        "field larger than field limit (131072)\n"
    assert not (tmp_path / "out").exists()
    main(["continue", "--config", path])
    good = (tmp_path / "out" / "test-run" / "branch.csv").read_bytes()
    lines = good.split(b"\r\n")
    assert lines[-1] == b"" and len(lines) > 40

    def edit(data, row, line):
        rows = data.split(b"\r\n")
        rows[row] = line(rows[row])
        return b"\r\n".join(rows)

    def cell(data, row, col, value):
        return edit(data, row, lambda line: b",".join(
            value if i == col % len(line.split(b",")) else v
            for i, v in enumerate(line.split(b","))))

    def decoded(path):
        """What stops reading ``path`` line by line, if anything does."""
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                list(fh)
        except UnicodeDecodeError as err:
            return str(err)

    def row_error(row, why):
        return f"corrupted branch.csv row at step {lines[row].split(b',')[0].decode()}: {why}"

    head = [v.decode() for v in lines[5].split(b",")[:3]]
    r_1 = branch_csv_header(4).index("r_1")
    late = len(good) - 100  # a byte in the file's last read, past every row before it
    cases = {
        "header": (b"x" + good, "unexpected branch.csv header in {}"),
        "empty": (b"", "unexpected branch.csv header in {}"),
        "header-only": (lines[0] + b"\r\n", "no branch rows in {}"),
        "short": (edit(good, 5, lambda line: line.rsplit(b",", 1)[0]),
                  f"corrupted branch.csv row: {head}..."),
        "long": (edit(good, 5, lambda line: line + b",1"), f"corrupted branch.csv row: {head}..."),
        "oops": (cell(good, 7, -2, b"oops"),
                 row_error(7, "could not convert string to float: 'oops'")),
        "inf-r": (cell(good, 9, r_1, b"inf"), row_error(9, "non-finite entries in state")),
        "nan-rho": (cell(good, 9, 3, b"nan"), row_error(9, "non-finite entries in state")),
        "nan-step": (cell(good, 4, 0, b"nan"),
                     "corrupted branch.csv row at step nan: cannot convert float NaN to integer"),
        "inf-fold": (cell(good, 4, -2, b"inf"),
                     row_error(4, "cannot convert float infinity to integer")),
        "nan-iters": (cell(good, 6, -1, b"nan"),
                      row_error(6, "cannot convert float NaN to integer")),
        "non-utf8": (good[:1000] + b"\xff" + good[1001:],
                     "cannot read branch file {}: 'utf-8' codec can't decode byte 0xff in "
                     "position 1000: invalid start byte"),
        # past the first read, after every row before it is parsed: the position
        # is the one reading the file line by line names
        "non-utf8-late": (good[:late] + b"\xff" + good[late + 1:],
                          "cannot read branch file {}: {decoded}"),
        "oversized": (cell(good, 3, r_1, b"9" * 200_000),
                      "cannot read branch file {}: field larger than field limit (131072)"),
        # a bad row is named before whatever fails after it
        "oops-then-short": (edit(cell(good, 7, r_1, b"oops"), 12,
                                 lambda line: line.rsplit(b",", 1)[0]),
                            row_error(7, "could not convert string to float: 'oops'")),
        "inf-then-non-utf8": (cell(good[:late] + b"\xff" + good[late + 1:], 8, r_1, b"inf"),
                              row_error(8, "non-finite entries in state")),
        "nan-iters-then-inf-r": (cell(cell(good, 6, -1, b"nan"), 9, r_1, b"inf"),
                                 row_error(6, "cannot convert float NaN to integer")),
        "inf-r-then-oops": (cell(cell(good, 6, r_1, b"inf"), 9, 1, b"oops"),
                            row_error(6, "non-finite entries in state")),
    }
    for name, (data, want) in cases.items():
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_bytes(data)
        assert main(["verify", "--config", path, "--output-dir", str(tmp_path / name),
                     str(csv_path)]) == 2, name
        assert capsys.readouterr().err == want.format(
            csv_path, decoded=decoded(csv_path)) + "\n", name
        assert not (tmp_path / name).exists(), name
    # a non-finite arclength or r_l2 is read as given
    csv_path = tmp_path / "non-finite-scalars.csv"
    csv_path.write_bytes(cell(cell(good, 6, 1, b"inf"), 7, 4, b"nan"))
    rows = read_branch_csv(csv_path, 4)
    assert rows[5]["arclength"] == np.inf and np.isnan(rows[6]["r_l2"])


@pytest.mark.parametrize("config, seed_mu", [
    ("snaking_offsite.json", None), ("snaking_onsite.json", None),
    # the input of the bench's verify workload at --seed 3
    ("snaking_offsite.json", 0.4 + 0.2 * random.Random(3).random())])
def test_branch_csv_read_as_one_table_has_the_row_parse_bits(tmp_path, config, seed_mu):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / config).read_text(
        encoding="utf-8"))
    cfg["output_dir"] = str(tmp_path)
    if seed_mu is not None:
        cfg["seed"]["mu"] = seed_mu
    assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 0
    csv_path = tmp_path / cfg["run_id"] / "branch.csv"
    rows, want = read_branch_csv(csv_path, 10), row_by_row_branch_csv(csv_path, 10)
    assert len(rows) == len(want) > 100
    table = rows[0]["state"].x.base  # every state a row of one packed table, in C order
    assert table.shape == (len(rows), 21) and table.flags.c_contiguous
    for row, ref in zip(rows, want):
        assert row.keys() == ref.keys() and row["state"].x.base is table
        assert row["state"].x.tobytes() == ref["state"].x.tobytes()
        assert row["state"].r.tobytes() == ref["state"].r.tobytes()
        assert row["state"].phi.tobytes() == ref["state"].phi.tobytes()
        for key in ("step", "arclength", "r_l2", "is_fold", "newton_iters"):
            assert type(row[key]) is type(ref[key]), key
            assert repr(row[key]) == repr(ref[key]), key  # repr round-trips a finite float


def test_verify_rejects_non_finite_branch_row(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path, N=10))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("r_3")
    cells = lines[51].split(",")
    assert cells[0] == "50"
    cells[col] = "nan"
    lines[51] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--config", path, str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "step 50" in err and "non-finite" in err
    assert not (csv_path.parent / "verify.json").exists()


def test_verify_fails_a_row_whose_residual_overflows(tmp_path, capsys):
    # r_1 = 1e200 makes lambda overflow: the row's residual is NaN, which a
    # plain max over the rows would drop
    path = write_config(tmp_path, base_config(tmp_path, N=10))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("r_1")
    cells = lines[10].split(",")
    assert cells[0] == "9"
    cells[col] = "1e200"
    lines[10] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning leaks out
        assert main(["verify", "--config", path, str(csv_path)]) == 1
    assert capsys.readouterr().err.startswith(f"step 9 at mu={float(cells[2])!r}: ")
    text = (csv_path.parent / "verify.json").read_text()
    check = json.loads(text, parse_constant=_no_constant)["residual_check"]  # standard JSON
    assert not check["pass"] and check["max_residual"] is None


def test_verify_checks_residuals_in_stacked_chunks(tmp_path, monkeypatch):
    # the rows go through a few stacked residuals, not one call each, and
    # the report has the bytes of a run with one-row chunks
    path = write_config(tmp_path, base_config(tmp_path, N=10))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    rows = read_branch_csv(csv_path, 10)
    system = load_config(base_config(tmp_path, N=10)).system()
    calls, residual = [], continuation.residual

    def counted(spec, c, state, *args):
        calls.append(state.x.shape)
        return residual(spec, c, state, *args)

    monkeypatch.setattr(continuation, "residual", counted)
    assert main(["verify", "--config", path, str(csv_path)]) == 0
    report = (csv_path.parent / "verify.json").read_bytes()
    chunk = cli.RESIDUAL_ENTRIES // 21
    n_chunks = -(-len(rows) // chunk)
    assert n_chunks < 5 < len(rows)
    assert [shape[0] for shape in calls[:n_chunks]] == \
        [chunk] * (n_chunks - 1) + [len(rows) - chunk * (n_chunks - 1)]
    assert len(calls) - n_chunks <= 5 * 21  # the samples' re-tightening
    assert json.loads(report)["residual_check"]["max_residual"] == \
        max(system.residual_norm(r["state"]) for r in rows)

    monkeypatch.setattr(cli, "RESIDUAL_ENTRIES", 1)  # one row per call
    calls.clear()
    assert main(["verify", "--config", path, str(csv_path)]) == 0
    assert [shape[0] for shape in calls[:len(rows)]] == [1] * len(rows)
    assert (csv_path.parent / "verify.json").read_bytes() == report


def test_verify_fails_a_sample_whose_residual_overflows(tmp_path, capsys):
    # r_1 = 1e200 on a sampled row: its re-tightening names the overflow
    path = write_config(tmp_path, base_config(tmp_path, N=10))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    row = int(np.linspace(0, len(lines) - 2, 5).astype(int)[2])
    col = lines[0].split(",").index("r_1")
    cells = lines[row + 1].split(",")
    cells[col] = "1e200"
    lines[row + 1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning leaks out
        assert main(["verify", "--config", path, str(csv_path)]) == 1
    report = json.loads((csv_path.parent / "verify.json").read_text())
    failed = [s for s in report["relative_equilibrium"]["samples"] if not s["pass"]]
    assert [(s["row"], s["error"]) for s in failed] == [
        (row, "NoConvergence: residual is not finite")]
    assert (f"row {row} at mu={float(cells[2])!r}: re-tightening failed: "
            "NoConvergence: residual is not finite\n") in capsys.readouterr().err


def test_verify_fails_a_sample_whose_horizon_is_below_the_rk4_step(tmp_path, capsys):
    # rho = 20000: one period is 3.1e-4, below RK4_DT, so round(horizon / dt)
    # would be 0 steps and a deviation of exactly 0.0
    cfg = base_config(tmp_path, N=10, model={"polynomial_lambda": [0, 2, -1],
                                             "mu_coefficient": -1, "omega0_const": 20000})
    cfg["continuation"]["max_steps"] = 40
    path = write_config(tmp_path, cfg)
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"
    capsys.readouterr()
    assert main(["verify", "--config", path, str(csv_path)]) == 1
    samples = json.loads((csv_path.parent / "verify.json").read_text())[
        "relative_equilibrium"]["samples"]
    assert len(samples) == 5
    cause = f"horizon {2 * np.pi / 20000!r} is below the RK4 step {cli.RK4_DT!r}"
    for s in samples:
        assert s["pass"] is False and s["error"] == cause and "deviation" not in s
    out, err = capsys.readouterr()
    assert err.count(cause) == 5 and "verify FAIL" in out


def test_verify_rejects_header_only_branch(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    csv_path = tmp_path / "branch.csv"
    csv_path.write_text(",".join(branch_csv_header(4)) + "\n", encoding="utf-8")
    assert main(["verify", "--config", path, str(csv_path)]) == 2
    assert "no branch rows" in capsys.readouterr().err


def test_simulate_horizon_below_dt_is_a_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path, model={"name": "quintic_rotating"})
    cfg["simulate"] = {"dt": 1e-2, "horizon": 5e-3}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 2
    assert "below dt" in capsys.readouterr().err
    assert not (tmp_path / "out" / "test-run" / "simulate.json").exists()
    assert not (tmp_path / "out" / "test-run").exists()


def test_max_steps_override_truncates(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["continue", "--config", path, "--max-steps", "1",
                 "--run-id", "trunc"]) == 0
    summary = json.loads((tmp_path / "out" / "trunc" / "summary.json").read_text())
    assert summary["closure"] == "step_limit"


def test_cmd_seed(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["seed", "--config", path]) == 0
    payload = json.loads((tmp_path / "out" / "test-run" / "seed.json").read_text())
    assert payload["corrected_residual"] <= 1e-10
    assert len(payload["seed"]["r"]) == 4


def test_seed_tail_overflow_exits_2_naming_its_cause(tmp_path, capsys):
    # the shipped off-site snake at eps 100, N 200: the tail ratio
    # eps / |lambda(0, 0.5)| = 200 overflows over 199 tail nodes
    path = write_config(tmp_path, base_config(tmp_path, eps=100, N=200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning leaks out
        assert main(["seed", "--config", path]) == 2
    assert capsys.readouterr().err == ("config error: far-field tail overflows: "
                                       "eps/|lambda(0, mu)| = 200 over 199 tail nodes\n")
    assert not (tmp_path / "out").exists()


def test_seed_whose_residual_overflows_exits_3_naming_its_cause(tmp_path, capsys):
    # the shipped off-site snake at eps 1e30: its tail passes farfield_tail,
    # but the first Newton residual overflows
    path = write_config(tmp_path, base_config(tmp_path, N=10, eps=1e30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning leaks out
        assert main(["seed", "--config", path]) == 3
    assert capsys.readouterr().err == ("test-run: seed correction failed at mu=0.5 "
                                       "(k=1, template in_phase): residual is not finite\n")
    assert not (tmp_path / "out").exists()


def test_lattice_error_exits_2_from_the_command_looked_up_at_call_time(
        tmp_path, capsys, monkeypatch):
    # main looks cmd_seed up when it runs, as the bench tracer's wrappers need
    def bad_state(rc):
        raise LatticeError("non-finite entries in state")

    monkeypatch.setattr(cli, "cmd_seed", bad_state)
    assert main(["seed", "--config", write_config(tmp_path, base_config(tmp_path))]) == 2
    assert capsys.readouterr().err == "config error: non-finite entries in state\n"


def test_cmd_simulate(tmp_path):
    cfg = base_config(tmp_path, model={"name": "quintic_rotating"})
    cfg["simulate"] = {"dt": 1e-3}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    payload = json.loads(
        (tmp_path / "out" / "test-run" / "simulate.json").read_text()
    )
    assert payload["relative_equilibrium_deviation"] <= 1e-6
    assert payload["completed"]


def test_simulate_exits_1_when_its_rk4_run_stops(tmp_path, capsys):
    # dt 3.0 is far beyond the RK4 stability limit: the run blows up
    root = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((root / "simulate_rotating.json").read_text(encoding="utf-8"))
    cfg.update(output_dir=str(tmp_path / "out"), simulate={"dt": 3.0, "horizon": 300})
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning leaks out
        assert main(["simulate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.count("simulate RK4 run turned non-finite before the horizon") == 1
    assert len(err.splitlines()) == 1
    payload = json.loads(
        (tmp_path / "out" / cfg["run_id"] / "simulate.json").read_text())
    assert payload["completed"] is False


def test_shipped_branches_match_the_recorded_folds(tmp_path):
    # closure and every refined fold mu of the shipped snaking config and of
    # the k = 1..8 isolas, against values recorded before the lattice moved
    # to complex arithmetic and fold trials to warm starts
    root = Path(__file__).resolve().parents[1]
    recorded = json.loads((root / "tests" / "fold_reference.json").read_text(
        encoding="utf-8"))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(root / "configs" / "snaking_offsite.json"),
                 "--output-dir", str(out)]) == 0
    cfg = json.loads((root / "configs" / "isola_stack.json").read_text(encoding="utf-8"))
    cfg["sweep"]["workers"] = 1
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--output-dir", str(out)]) == 0
    runs = {"snaking-offsite": recorded["snaking_offsite"]}
    runs.update({f"isola-stack-k{k}": v for k, v in recorded["isola_stack"].items()})
    assert len(runs) == 9
    for run_id, want in runs.items():
        summary = json.loads((out / run_id / "summary.json").read_text(encoding="utf-8"))
        assert summary["closure"] == want["closure"], run_id
        assert all(f["refined"] for f in summary["folds"]), run_id
        got = [f["mu"] for f in summary["folds"]]
        assert len(got) == len(want["fold_mu"]), run_id
        assert np.max(np.abs(np.subtract(got, want["fold_mu"]))) <= 1e-9, run_id


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: at ds_max 0.1 the corrector lands on another sheet "
    "of the snake inside the drift guard's 2 ds, and the walk ends at the window "
    "with 7 folds instead of 18",
)
def test_shipped_snake_keeps_its_folds_at_ds_max_0_1(tmp_path):
    # a schema-valid step bound; ds_max 0.05 gives the 2(N - 1) = 18 folds
    root = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((root / "snaking_offsite.json").read_text(encoding="utf-8"))
    cfg["continuation"]["ds_max"] = 0.1
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 0
    summary = json.loads(
        (tmp_path / "out" / cfg["run_id"] / "summary.json").read_text(encoding="utf-8"))
    assert sum(f["refined"] for f in summary["folds"]) == 2 * (cfg["N"] - 1)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: from these seed mu the corrector lands on another sheet "
    "near the upper folds (from 0.41, a 9-iteration correction at mu 0.9904; from 0.4114, "
    "a 12-iteration one at mu 0.9905), and the walk ends at the window with 9 folds and "
    "276 points instead of 62 folds",
)
@pytest.mark.parametrize("mu", [0.4100341968333112, 0.53666252552326, 0.41136732759968736])
def test_bench_snake_keeps_its_folds_at_seed_mu(tmp_path, mu):
    # the N = 32 dissipative off-site snake that the benchmark's snake workload
    # continues, at three of its seed mu (bench seeds 922, 956 and 3407); 98 of
    # its seeds 900-999 give 62 folds
    cfg = {"run_id": "snake", "model": {"name": "quintic"}, "coupling": "dissipative",
           "N": 32, "eps": 0.01, "boundary": "off_site",
           "seed": {"k": 1, "pattern": ["minus"], "mu": mu},
           "continuation": {"ds_init": 0.01, "ds_max": 0.05, "mu_window": [0.03, 0.9985]},
           "output_dir": str(tmp_path / "out")}
    assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "snake" / "summary.json").read_text(encoding="utf-8"))
    assert summary["closure"] == "window_exit"
    assert sum(f["refined"] for f in summary["folds"]) == 2 * (cfg["N"] - 1)


def test_simulate_default_horizon_is_capped_for_slow_rotation(tmp_path):
    # omega1 at eps 1e-3 rotates the snaking seed at rho ~ 5e-4: one period
    # is over 11 000 time units, about 11.6 M steps at dt 1e-3
    root = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((root / "snaking_offsite.json").read_text(encoding="utf-8"))
    cfg.update(eps=1e-3, output_dir=str(tmp_path / "out"))
    cfg["omega1"] = {"linear_coefficient": 1.0}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    payload = json.loads(
        (tmp_path / "out" / cfg["run_id"] / "simulate.json").read_text())
    assert 2 * np.pi / abs(payload["state"]["rho"]) > 1e4
    assert payload["horizon"] == 10.0 and payload["completed"]
    # an explicit horizon is kept as given, above the cap too
    cfg["simulate"] = {"horizon": 10.5, "dt": 0.05}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    payload = json.loads(
        (tmp_path / "out" / cfg["run_id"] / "simulate.json").read_text())
    assert payload["horizon"] == 10.5


def test_verify_fails_a_sample_whose_rk4_run_stopped(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["continue", "--config", path]) == 0
    csv_path = tmp_path / "out" / "test-run" / "branch.csv"

    def stopped_first(spec, c, z0, eps, mu, rho, n_steps, dt):
        # a small deviation from the steps before the stop, as a row that
        # turns non-finite late would report
        completed = np.ones(len(z0), dtype=bool)
        completed[0] = False
        return np.full(len(z0), 1e-9), completed

    monkeypatch.setattr(dynamics, "rotation_deviation", stopped_first)
    capsys.readouterr()
    assert main(["verify", "--config", path, str(csv_path)]) == 1
    report = json.loads((csv_path.parent / "verify.json").read_text())
    first, *rest = report["relative_equilibrium"]["samples"]
    assert not report["relative_equilibrium"]["pass"]
    assert first["pass"] is False and first["deviation"] == 1e-9
    assert "non-finite" in first["error"]
    assert rest and all(s["pass"] for s in rest)
    assert all(set(s) == {"row", "mu", "rho", "horizon", "deviation", "pass"}
               for s in rest)
    err = capsys.readouterr().err
    assert f"row {first['row']} at mu={first['mu']!r}: " in err and "non-finite" in err


def test_cmd_mismatch(tmp_path):
    cfg = base_config(tmp_path, N=8, seed={"k": 4, "mu": 0.75})
    cfg["omega1"] = {"linear_coefficient": 1.0}
    path = write_config(tmp_path, cfg)
    assert main(["mismatch", "--config", path]) == 0
    payload = json.loads(
        (tmp_path / "out" / "test-run" / "mismatch.json").read_text()
    )
    assert not payload["obstructed"]
    assert payload["sin_phi_limit"] == pytest.approx(-0.298858, abs=1e-6)
    assert all(entry["converged"] for entry in payload["sweep"])


def test_mismatch_with_a_one_node_core_is_a_config_error(tmp_path, capsys):
    # k = 1 has no r+/r- interface: phi_{k-1} would be the chain's last phase
    config = Path(__file__).resolve().parents[1] / "configs" / "mismatch_below_threshold.json"
    code = main(["mismatch", "--config", str(config), "--k", "1",
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "seed.k" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_mismatch_with_an_overflowing_omega1_exits_2_before_the_sweep(
        tmp_path, capsys, monkeypatch):
    # omega1(r+) = 1.5e308 r+ overflows: the bound is not finite, so no Newton
    # sweep runs and no mismatch.json with "delta": Infinity is written
    config = Path(__file__).resolve().parents[1] / "configs" / "mismatch_above_threshold.json"
    cfg = json.loads(config.read_text(encoding="utf-8"))
    cfg.update(omega1={"linear_coefficient": 1.5e308}, output_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "_corrected_seed", _not_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning leaks out
        assert main(["mismatch", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: omega1 mismatch at mu=0.75 is not finite: ")
    assert "omega1(r+) = inf" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _run_outputs(out: Path) -> dict:
    """Every file below ``out`` by relative path; a summary.json without its
    wall time and output directory."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            data = json.loads(data)
            del data["wall_time_seconds"], data["config"]["output_dir"]
        files[path.relative_to(out).as_posix()] = data
    return files


def _two_cpus(pid):
    """Usable CPUs as the sweep reads them: two, so workers: 2 forks a child."""
    return {0, 1}


def _no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2])
def test_cmd_sweep(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
    cfg = base_config(tmp_path)
    cfg["sweep"] = {"parameter": "eps", "values": [0.02, 0.01, 0.015], "workers": workers}
    cfg["continuation"]["max_steps"] = 40
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    _no_child_left()
    summary = json.loads(
        (tmp_path / "out" / "test-run-sweep.json").read_text()
    )
    assert summary["exit_codes"] == [0, 0, 0]
    for rid in summary["runs"]:
        assert (tmp_path / "out" / rid / "branch.csv").exists()
    # in the order the values are listed, whichever job ends first
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == summary["runs"] == [
        "test-run-eps0.02", "test-run-eps0.01", "test-run-eps0.015"]
    # the same bytes as a serial, in-process sweep
    cfg["sweep"]["workers"], cfg["output_dir"] = 1, str(tmp_path / "serial")
    assert main(["sweep", "--config", write_config(tmp_path, cfg, "serial.json")]) == 0
    assert _run_outputs(tmp_path / "out") == _run_outputs(tmp_path / "serial")


def _k_sweep(tmp_path, values, **sweep):
    """A k sweep of conservative on-site N=10 isolas: every job shares one system and N."""
    cfg = base_config(tmp_path, N=10, coupling="conservative", boundary="on_site",
                      seed={"k": 1, "mu": 0.5})
    cfg["sweep"] = {"parameter": "k", "values": values, **sweep}
    return cfg


@pytest.mark.parametrize("workers, cpus, size", [
    (10**18, 64, 5), (None, 64, 5), (2, 64, 2), (10**18, 2, 2), (1, 64, 1), (None, 1, 1)])
def test_sweep_size_is_capped_by_jobs_and_cpus(tmp_path, capsys, monkeypatch, workers, cpus,
                                               size):
    # a sweep of size processes is this one and size - 1 forked children; the
    # jobs of a k sweep share one system and N and are dealt round-robin into
    # one group per process, while the jobs of an eps sweep share none, and
    # their groups are dealt round-robin to the processes
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    def group(jobs):  # each job's stderr names its group and the process that ran it
        ran = [job.ansatz.k if job.eps == 0.01 else job.eps for job in jobs]
        return [(0, f"{job.run_id}: ran\n", f"{ran} {os.getpid()}\n") for job in jobs]

    def groups(err):
        """Each group that ran, in group order, and the share it was dealt:
        the index of the first group its process ran."""
        ran = [line.rpartition(" ") for line in dict.fromkeys(err.splitlines())]
        pids = [int(pid) for _, _, pid in ran]
        assert pids[0] == os.getpid()  # this process walks share 0
        return [seen for seen, _, _ in ran], [pids.index(pid) for pid in pids]

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "_run_group", group)
    cfg = _k_sweep(tmp_path, [1, 2, 3, 4, 5])
    if workers is not None:
        cfg["sweep"]["workers"] = workers
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(forks) == size - 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"test-run-k{k}: ran" for k in range(1, 6)]  # list order
    assert groups(err) == ([str([1, 2, 3, 4, 5][g::size]) for g in range(size)],  # round-robin
                           list(range(size)))
    cfg["sweep"].update(parameter="eps", values=[0.02, 0.015, 0.03])
    forks.clear()
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(forks) == min(size, 3) - 1
    assert groups(capsys.readouterr().err) == (["[0.02]", "[0.015]", "[0.03]"],
                                               [g % min(size, 3) for g in range(3)])
    _no_child_left()


def test_sweep_prints_in_list_order_when_a_later_job_ends_first(tmp_path, capsys,
                                                                monkeypatch):
    # with two workers, k = 1 and 3 form one group and k = 2 the other; the
    # first group ends last, and the output still comes in list order
    def branch(rc):
        return rc
        yield  # a walk that needs no correction

    def job(rc, walked):
        if rc.ansatz.k == 1:
            time.sleep(0.3)
        print(f"{rc.run_id}: ran")
        print(f"{rc.run_id}: note", file=sys.stderr)
        return 0 if rc.ansatz.k == 1 else 1

    monkeypatch.setattr(cli, "_branch", branch)
    monkeypatch.setattr(cli, "cmd_continue", job)
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
    cfg = _k_sweep(tmp_path, [1, 2, 3], workers=2)
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    _no_child_left()
    runs = ["test-run-k1", "test-run-k2", "test-run-k3"]
    out, err = capsys.readouterr()
    assert out == "".join(f"{run}: ran\n" for run in runs)
    assert err == "".join(f"{run}: note\n" for run in runs)
    summary = json.loads((tmp_path / "out" / "test-run-sweep.json").read_text())
    assert summary["exit_codes"] == [0, 1, 1] and summary["runs"] == runs


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_sweep_writes_the_bytes_of_single_runs(tmp_path, monkeypatch, workers):
    # the shipped isola stack swept as groups of batched walks, and a two-value
    # eps sweep of the shipped snake, whose every job is a group of one, against
    # one standalone continue per value
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
    root = Path(__file__).resolve().parents[1] / "configs"
    for name, sweep, flag in (("isola_stack", {}, "--k"),
                              ("snaking_offsite", {"parameter": "eps", "values": [0.01, 0.02]},
                               "--eps")):
        cfg = json.loads((root / f"{name}.json").read_text(encoding="utf-8"))
        cfg.setdefault("sweep", {}).update(sweep, workers=workers)
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--output-dir",
                     str(tmp_path / name / "sweep")]) == 0
        _no_child_left()
        parameter, values = cfg["sweep"]["parameter"], cfg.pop("sweep")["values"]
        single = write_config(tmp_path, cfg, "single.json")
        for value in values:
            assert main(["continue", "--config", single, flag, str(value), "--run-id",
                         f"{cfg['run_id']}-{parameter}{value:g}",
                         "--output-dir", str(tmp_path / name / "single")]) == 0
        swept = _run_outputs(tmp_path / name / "sweep")
        del swept[f"{cfg['run_id']}-sweep.json"]
        assert swept == _run_outputs(tmp_path / name / "single")
        assert len(swept) == 2 * len(values)


def test_batch_row_cap_holds_one_row_at_large_n(tmp_path, monkeypatch):
    # a batch's stacked bordered matrices stay within BATCH_ENTRIES entries:
    # one row per stack from the N where one (2N + 1)^2 matrix takes them all
    n_one = next(n for n in range(2, MAX_N) if continuation.batch_rows(n) == 1)
    assert (2 * n_one + 1) ** 2 > continuation.BATCH_ENTRIES // 2
    for n in (2, 10, n_one - 1, n_one, MAX_N):
        rows = continuation.batch_rows(n)
        assert rows >= 1 and (rows == 1 or rows * (2 * n + 1) ** 2 <= continuation.BATCH_ENTRIES)
    assert continuation.batch_rows(10) == continuation.BATCH_ENTRIES // 21 ** 2 > 8
    assert continuation.batch_rows(MAX_N) == 1
    stacks, real = [], continuation._newton_solve

    def solve(system, x, border, tol, max_iter):
        stacks.append(len(x))
        return real(system, x, border, tol, max_iter)

    monkeypatch.setattr(continuation, "_newton_solve", solve)
    cfg = _k_sweep(tmp_path, [1, 2], workers=1)
    cfg.update(N=n_one)
    cfg["continuation"]["max_steps"] = 3
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert stacks and max(stacks) == 1
    del cfg["sweep"]
    single = write_config(tmp_path, cfg, "single.json")
    for k in (1, 2):
        assert main(["continue", "--config", single, "--k", str(k), "--run-id",
                     f"test-run-k{k}", "--output-dir", str(tmp_path / "single")]) == 0
    swept = _run_outputs(tmp_path / "out")
    del swept["test-run-sweep.json"]
    assert swept == _run_outputs(tmp_path / "single")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_job_that_raises_surfaces_and_leaves_no_child(tmp_path, capsys, monkeypatch,
                                                            workers):
    def job(rc, walked):
        if rc.eps == 0.01:
            raise RuntimeError(f"{rc.run_id} failed")
        print(f"{rc.run_id}: ran")
        return 0

    monkeypatch.setattr(cli, "cmd_continue", job)
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
    cfg = base_config(tmp_path)
    cfg["sweep"] = {"parameter": "eps", "values": [0.02, 0.01, 0.015], "workers": workers}
    with pytest.raises(RuntimeError, match="^test-run-eps0.01 failed$"):
        main(["sweep", "--config", write_config(tmp_path, cfg)])
    _no_child_left()
    # as in a serial loop: the jobs before it printed, and no summary is written
    assert capsys.readouterr().out == "test-run-eps0.02: ran\n"
    assert not (tmp_path / "out" / "test-run-sweep.json").exists()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_sweep_error_in_this_process_waits_for_every_child(tmp_path, capsys, monkeypatch,
                                                           error):
    # k = 1 is this process's share and fails at once, while the child's k = 2
    # still runs: the sweep waits for the child's end and reaps it, then raises
    def branch(rc):
        return rc
        yield  # a walk that needs no correction

    def job(rc, walked):
        if rc.ansatz.k == 1:
            raise error(f"{rc.run_id} failed")
        time.sleep(0.3)
        (tmp_path / f"{rc.run_id}.done").touch()
        print(f"{rc.run_id}: ran")
        return 0

    monkeypatch.setattr(cli, "_branch", branch)
    monkeypatch.setattr(cli, "cmd_continue", job)
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
    cfg = _k_sweep(tmp_path, [1, 2], workers=2)
    with pytest.raises(error, match="^test-run-k1 failed$"):
        main(["sweep", "--config", write_config(tmp_path, cfg)])
    _no_child_left()
    assert (tmp_path / "test-run-k2.done").exists()
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out" / "test-run-sweep.json").exists()


def test_sweep_child_that_dies_without_a_reply_is_named(tmp_path, capsys, monkeypatch):
    # the child's share is the group of k = 2 and 4; its k = 2 job ends the
    # child with exit status 3 before it replies
    parent = os.getpid()

    def branch(rc):
        return rc
        yield  # a walk that needs no correction

    def job(rc, walked):
        if rc.ansatz.k == 2:
            assert os.getpid() != parent, "k = 2 ran in this process"
            os._exit(3)
        print(f"{rc.run_id}: ran")
        return 0

    monkeypatch.setattr(cli, "_branch", branch)
    monkeypatch.setattr(cli, "cmd_continue", job)
    monkeypatch.setattr(os, "sched_getaffinity", _two_cpus, raising=False)
    cfg = _k_sweep(tmp_path, [1, 2, 3, 4], workers=2)
    with pytest.raises(RuntimeError, match="^the sweep process of test-run-k2, test-run-k4 "
                                           "exited with status 3 and no reply$"):
        main(["sweep", "--config", write_config(tmp_path, cfg)])
    _no_child_left()
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out" / "test-run-sweep.json").exists()


@pytest.mark.parametrize("values", [[1, 10], ["a"], [0.5]])
def test_sweep_config_error_exits_2_before_any_run(tmp_path, capsys, values):
    cfg = base_config(tmp_path, N=10, coupling="conservative", boundary="on_site",
                      seed={"k": 1, "mu": 0.5})
    cfg["sweep"] = {"parameter": "k", "values": values}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [[0.01, 0.0100000001], [0.02, 0.01, 0.02]])
def test_sweep_run_id_collision_exits_2_before_any_run(tmp_path, capsys, values):
    cfg = base_config(tmp_path)
    cfg["sweep"] = {"parameter": "eps", "values": values}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    first, second = values[0], values[-1]
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"{first!r} and {second!r}" in err and f"'test-run-eps{second:g}'" in err
    assert not (tmp_path / "out").exists()


def test_branch_csv_header_layout():
    header = branch_csv_header(4)
    assert header[:5] == ["step", "arclength", "mu", "rho", "r_l2"]
    assert header[5:9] == ["r_1", "r_2", "r_3", "r_4"]
    assert header[9:12] == ["phi_1", "phi_2", "phi_3"]
    assert header[-2:] == ["is_fold", "newton_iters"]


def test_branch_csv_rows_match_csv_writer_and_read_back_bit_for_bit(tmp_path):
    # fold rows, signed zeros, a far tail down to subnormals, and a huge
    # amplitude; every value must survive the round trip
    rng = np.random.default_rng(7)
    n = 6
    points = []
    for step in range(40):
        r = rng.uniform(0.0, 1.5, n)
        r[-3:] = [1e-300, 2.5e-301 * (1 + rng.random()), 5e-324 * (step % 3)]
        phi = rng.normal(0.0, 2.0, n - 1)
        phi[step % (n - 1)] = -0.0
        rho = -0.0 if step % 4 == 0 else rng.normal()
        state = PolarState(r, phi, rho, rng.uniform(0.0, 1.0))
        points.append(continuation.BranchPoint(
            state, step * 0.01 + 1e-17 * step, np.zeros(2 * n + 1),
            is_fold=step % 7 == 3, newton_iters=int(rng.integers(0, 13))))
    points[5].state.r[0] = 1.2345678901234567e150
    branch = continuation.Branch(points=points)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_branch_csv(branch, n, got)
    csv_writer_branch_csv(branch, n, want)
    assert got.read_bytes() == want.read_bytes()
    assert b"-0," in got.read_bytes() and b"e-300" in got.read_bytes()
    rows = read_branch_csv(got, n)
    assert [r["is_fold"] for r in rows] == [p.is_fold for p in points]
    assert [r["newton_iters"] for r in rows] == [p.newton_iters for p in points]
    for row, p in zip(rows, points):
        assert row["state"].x.tobytes() == p.state.x.tobytes()
        assert np.float64(row["arclength"]).tobytes() == np.float64(p.arclength).tobytes()
        assert row["r_l2"] == float(np.linalg.norm(p.state.r))


def _not_run(*args, **kwargs):
    raise AssertionError("computed before the output directory was made")


def test_continue_output_dir_that_cannot_be_made_exits_2_before_the_walk(
        tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    monkeypatch.setattr(continuation, "continue_branch", _not_run)
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["continue", "--config", path, "--output-dir", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory "
                          f"{blocker / 'test-run'}: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_sweep_output_dir_that_cannot_be_made_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(continuation, "walk", _not_run)  # every sweep job's walk
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    cfg = base_config(tmp_path, output_dir=str(blocker))
    cfg["sweep"] = {"parameter": "eps", "values": [0.02, 0.01]}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot create output directory {blocker}: ")
    # the output directory is fine, but a file sits where the second job's
    # run directory goes: still nothing runs
    out = tmp_path / "out"
    out.mkdir()
    (out / "test-run-eps0.01").write_text("", encoding="utf-8")
    cfg = base_config(tmp_path)
    cfg["sweep"] = {"parameter": "eps", "values": [0.02, 0.01]}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory "
                          f"{out / 'test-run-eps0.01'}: ")
    assert not (out / "test-run-sweep.json").exists()


def test_general_coupling_config(tmp_path):
    c = np.cos(0.4), np.sin(0.4)
    cfg = base_config(tmp_path, coupling={"c_re": c[0], "c_im": c[1]})
    rc = load_config(cfg)
    assert rc.coupling.c_re == pytest.approx(c[0])
    assert rc.ansatz.phase_template == "conservative"  # c_im != 0


def test_isola_run_and_verify_via_cli(tmp_path):
    cfg = base_config(
        tmp_path,
        run_id="isola",
        N=6,
        coupling="conservative",
        boundary="on_site",
        seed={"k": 2, "mu": 0.5},
        continuation={"ds_init": 0.01, "ds_max": 0.05},
    )
    path = write_config(tmp_path, cfg, "isola.json")
    assert main(["continue", "--config", path]) == 0
    run_dir = tmp_path / "out" / "isola"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["closure"] == "closed_isola"
    assert main(["verify", "--config", path, str(run_dir / "branch.csv")]) == 0
    report = json.loads((run_dir / "verify.json").read_text())
    assert report["residual_check"]["pass"]
    assert report["relative_equilibrium"]["pass"]


def test_k_sweep_isolas(tmp_path, capsys):
    cfg = base_config(
        tmp_path,
        run_id="stack",
        N=6,
        coupling="conservative",
        boundary="on_site",
        seed={"k": 2, "mu": 0.5},
        continuation={"ds_init": 0.01, "ds_max": 0.05},
    )
    cfg["sweep"] = {"parameter": "k", "values": [2, 3]}
    path = write_config(tmp_path, cfg, "stack.json")
    assert main(["sweep", "--config", path]) == 0
    for rid in (f"stack-k2", f"stack-k3"):
        summary = json.loads(
            (tmp_path / "out" / rid / "summary.json").read_text()
        )
        assert summary["closure"] == "closed_isola"
    capsys.readouterr()
    # at mu 0.51 the conservative template seeds the k = 5 isola of N = 10
    # too far from it for Newton: that job exits 3 naming itself, k = 4 still runs
    cfg.update(N=10, seed={"k": 1, "mu": 0.51})
    cfg["sweep"] = {"parameter": "k", "values": [4, 5], "workers": 1}
    assert main(["sweep", "--config", write_config(tmp_path, cfg, "stack.json")]) == 1
    summary = json.loads((tmp_path / "out" / "stack-sweep.json").read_text())
    assert summary["exit_codes"] == [0, 3]
    out, err = capsys.readouterr()
    assert out == "stack-k4: closure=closed_isola folds=4 points=123\n"
    assert err == ("stack-k5: seed correction failed at mu=0.51 (k=5, template "
                   "conservative): Newton did not reach tol=1e-10 within 12 iterations\n")


def test_cmd_seed_newton_failure_exit_3(tmp_path, capsys):
    cfg = base_config(
        tmp_path,
        N=8,
        seed={"k": 4, "pattern": ["plus", "plus", "plus", "minus"], "mu": 0.75},
    )
    cfg["omega1"] = {"linear_coefficient": 5.0}
    path = write_config(tmp_path, cfg, "blocked.json")
    line = ("test-run: seed correction failed at mu=0.75 (k=4, template in_phase): "
            "Newton did not reach tol=1e-10 within 12 iterations\n")
    for command in ("seed", "continue", "simulate"):
        assert main([command, "--config", path]) == 3, command
        assert capsys.readouterr() == ("", line), command
    assert not (tmp_path / "out").exists()


def test_seed_residual_failure_exit_3(tmp_path, capsys, monkeypatch):
    # an uncorrected seed fails continue_branch's residual precondition
    monkeypatch.setattr(continuation, "newton_correct", lambda system, state, **kw: state)
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["continue", "--config", path]) == 3
    assert "seed residual" in capsys.readouterr().err


def test_isola_next_to_negative_tail_amplitude(tmp_path):
    # The corrected seed has r_7 = -1.15e-8 next to r_8 = -2.8e-10; a signed
    # max over that pair used to pin phi_7 and push the residual over tol.
    cfg = base_config(tmp_path, run_id="iso", N=10, coupling="conservative",
                      boundary="on_site", seed={"k": 2, "mu": 0.41},
                      continuation={"ds_init": 0.01, "ds_max": 0.05})
    path = write_config(tmp_path, cfg)
    assert main(["continue", "--config", path]) == 0
    summary = json.loads((tmp_path / "out" / "iso" / "summary.json").read_text())
    assert summary["closure"] == "closed_isola"
    assert summary["n_folds"] == 4


def test_closed_minus_run_is_not_merged(tmp_path):
    # At seed mu 0.42 the k=8 isola closes in the -1 direction only; the
    # open +1 run must not be glued onto it.
    cfg = base_config(tmp_path, run_id="iso8", N=10, coupling="conservative",
                      boundary="on_site", seed={"k": 8, "mu": 0.42},
                      continuation={"ds_init": 0.01, "ds_max": 0.05})
    path = write_config(tmp_path, cfg)
    assert main(["continue", "--config", path]) == 0
    summary = json.loads((tmp_path / "out" / "iso8" / "summary.json").read_text())
    assert summary["closure"] == "closed_isola"
    assert summary["n_folds"] == 4
    assert all(f["refined"] for f in summary["folds"])


def _isola_stack(tmp_path, **overrides):
    """The shipped isola stack config without its sweep, writing below tmp_path."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                      "isola_stack.json").read_text(encoding="utf-8"))
    del cfg["sweep"]
    cfg.update(output_dir=str(tmp_path / "out"), **overrides)
    return cfg


def test_isola_runs_meet_or_one_closes_onto_its_start(tmp_path):
    # At eps 0.01 the k = 3 isola's two runs meet: one loop that starts and
    # ends at the seed, arclength increasing.  At eps 1e-3 its -1 run closes
    # onto its own start first, and is written as a met loop is.
    path = write_config(tmp_path, _isola_stack(tmp_path, run_id="met", seed={"k": 3, "mu": 0.5}))
    assert main(["continue", "--config", path]) == 0
    assert main(["continue", "--config", path, "--eps", "1e-3", "--run-id", "start"]) == 0
    for run in ("met", "start"):
        rows = read_branch_csv(tmp_path / "out" / run / "branch.csv", 10)
        assert rows[0]["state"].x.tobytes() == rows[-1]["state"].x.tobytes()
        assert all(a["arclength"] <= b["arclength"] for a, b in zip(rows, rows[1:]))
    summary = json.loads((tmp_path / "out" / "start" / "summary.json").read_text())
    assert summary["closure"] == "closed_isola" and summary["n_folds"] == 4
    assert all(f["refined"] for f in summary["folds"])


def test_every_closed_isola_is_written_in_plus_order(tmp_path):
    # whichever run closes, an isola is written from the seed in the +1
    # direction, its folds upper, lower, upper, lower; at eps 1e-3 the k = 3
    # and k = 5 isolas close by their -1 run alone, and k = 2 by meeting
    cfg = _isola_stack(tmp_path)
    cfg["sweep"] = {"parameter": "k", "values": list(range(1, 9)), "workers": 1}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    cfg["sweep"]["values"] = [2, 3, 5]
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--eps", "1e-3", "--run-id", "small"]) == 0
    folds = {}
    for run in [f"isola-stack-k{k}" for k in range(1, 9)] + ["small-k2", "small-k3", "small-k5"]:
        rows = read_branch_csv(tmp_path / "out" / run / "branch.csv", 10)
        assert rows[1]["state"].mu > rows[0]["state"].mu, run
        folds[run] = [row["state"].mu for row in rows if row["is_fold"]]
        assert [mu > 0.5 for mu in folds[run]] == [True, False, True, False], run
    for run in ("small-k3", "small-k5"):
        assert np.allclose(folds[run], folds["small-k2"], rtol=0, atol=1e-3), run


def test_closed_isola_with_an_odd_fold_count_exits_1(tmp_path, capsys):
    # t_mu changes sign an even number of times around a closed loop; at eps
    # 1e-4 the k = 5 isola closes with 11 folds
    cfg = _isola_stack(tmp_path, eps=1e-4, seed={"k": 5, "mu": 0.5})
    assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 1
    summary = json.loads((tmp_path / "out" / "isola-stack" / "summary.json").read_text())
    assert summary["closure"] == "closed_isola" and summary["n_folds"] == 11
    assert capsys.readouterr().err == "isola-stack: closed isola with an odd fold count, 11\n"
    cfg["sweep"] = {"parameter": "k", "values": [5]}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    summary = json.loads((tmp_path / "out" / "isola-stack-sweep.json").read_text())
    assert summary["exit_codes"] == [1]
    assert capsys.readouterr().err == ("isola-stack-k5: closed isola with an odd fold "
                                       "count, 11\n")


@pytest.mark.parametrize("config, overrides", [
    ("snaking_offsite.json", {}), ("snaking_onsite.json", {}),
    ("snaking_offsite.json", {"N": 32, "seed": {"k": 1, "pattern": ["minus"], "mu": 0.45}}),
    ("snaking_offsite.json", {"N": 32, "seed": {"k": 1, "pattern": ["minus"], "mu": 0.57}})])
def test_open_branch_walked_in_lockstep_is_both_runs_merged(tmp_path, config, overrides):
    # the shipped snakes and the N = 32 snake at two seeds: the runs never
    # meet, and the branch is merge_branches of the two runs walked alone
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                      config).read_text(encoding="utf-8"))
    rc = load_config({**cfg, **overrides})
    system, _, seed = cli._corrected_seed(rc)
    both = continuation.continue_branch(system, seed, rc.cont)
    merged = continuation.merge_branches(walked_alone(system, seed, -1, rc.cont),
                                         walked_alone(system, seed, +1, rc.cont))
    assert both.closure == merged.closure != "closed_isola"
    assert both.open_ends == merged.open_ends and len(both.points) == len(merged.points)
    for p, q in zip(both.points, merged.points):
        assert p.state.x.tobytes() == q.state.x.tobytes()
        assert p.tangent.tobytes() == q.tangent.tobytes()
        assert (p.arclength, p.is_fold, p.newton_iters, p.refined) == \
            (q.arclength, q.is_fold, q.newton_iters, q.refined)


def test_non_bistable_model_is_a_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path, model={"polynomial_lambda": [-1.0, 0.5]})
    path = write_config(tmp_path, cfg)
    for command in ("continue", "seed", "simulate", "mismatch"):
        assert main([command, "--config", path]) == 2, command
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("config error:"), command
    assert not (tmp_path / "out").exists()


def test_config_built_spec_pickles(tmp_path):
    for model in ({"name": "quintic_rotating"},
                  {"polynomial_lambda": [0.0, 2.0, -1.0], "mu_coefficient": -1.0,
                   "omega0_const": 0.5}):
        spec = load_config(base_config(tmp_path, model=model)).spec
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
    spec = load_config(base_config(tmp_path, omega1={"linear_coefficient": 1.0})).spec
    assert spec.name == "quintic+omega1[1.0*r]"
    assert pickle.loads(pickle.dumps(spec)) == spec


@pytest.mark.parametrize("pattern", ["minus", "plus"])
def test_seed_with_upper_root_above_ten(tmp_path, pattern):
    # lambda = -mu + 0.02 r^2 - 1e-4 r^4: r- = 5.41 and r+ = 13.07 at mu = 0.5
    cfg = base_config(tmp_path, model={"polynomial_lambda": [0.0, 0.02, -1e-4],
                                       "mu_coefficient": -1.0})
    cfg["seed"]["pattern"] = [pattern]
    assert main(["seed", "--config", write_config(tmp_path, cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "test-run" / "seed.json").read_text())
    assert payload["corrected_residual"] <= 1e-10
    # the core node sits on the root up to its O(eps) coupling correction
    assert payload["seed"]["r"][0] == pytest.approx(
        5.412 if pattern == "minus" else 13.066, abs=0.1)


@pytest.mark.parametrize("is_fold", [0, 1])
def test_verify_without_recruitment_fold_shape(tmp_path, capsys, is_fold):
    # lambda = 1 has no r^2 growth, so the mu=0 fold normalization is undefined
    cfg = base_config(tmp_path, model={"polynomial_lambda": [1.0]})
    path = write_config(tmp_path, cfg)
    csv_path = tmp_path / "branch.csv"
    row = ["0", "0", "0.5", "0", "0"] + ["0"] * 7 + [str(is_fold), "0"]
    csv_path.write_text(",".join(branch_csv_header(4)) + "\n" + ",".join(row) + "\n",
                        encoding="utf-8")
    assert main(["verify", "--config", path, str(csv_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "test-run" / "verify.json").read_text())
    assert report["residual_check"]["pass"] and report["relative_equilibrium"]["pass"]
    if is_fold:
        assert report["fold_mu0"]["mu"] == 0.5
        assert report["fold_mu0"]["ratio_normalized"] is None
    else:
        assert report["fold_mu0"] is None


def test_shipped_configs_parse(tmp_path):
    root = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(root.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        rc = load_config(data)
        assert rc.n_nodes >= 2


def test_shipped_snaking_config_runs_truncated(tmp_path):
    root = Path(__file__).resolve().parents[1] / "configs"
    path = root / "snaking_offsite.json"
    assert main([
        "continue", "--config", str(path),
        "--output-dir", str(tmp_path), "--max-steps", "5",
        "--run-id", "smoke",
    ]) == 0
    summary = json.loads((tmp_path / "smoke" / "summary.json").read_text())
    assert summary["closure"] == "step_limit"


def test_module_entry_point_runs_without_warning():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "locsync.cli", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
