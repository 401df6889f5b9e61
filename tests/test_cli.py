import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from locsync import continuation
from locsync.cli import (
    ConfigError,
    branch_csv_header,
    load_config,
    main,
    read_branch_csv,
)


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


def test_exit_code_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {"name": "quintic"}}', encoding="utf-8")
    assert main(["continue", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    assert main(["continue", "--config", str(notjson)]) == 2


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
    last_mu = summary["endpoints"]["last"]["mu"]
    assert capsys.readouterr().err == (
        f"{cfg['run_id']}: branch ended open at mu={last_mu!r}\n")
    csv_path = run_dir / "branch.csv"
    assert main(["verify", "--config", path, str(csv_path)]) == 1
    report = json.loads((csv_path.parent / "verify.json").read_text())
    failed = [s for s in report["relative_equilibrium"]["samples"] if "error" in s]
    assert failed and not report["relative_equilibrium"]["pass"]
    assert {"row", "mu", "error"} <= set(failed[0])
    assert failed[0]["error"].startswith("SingularJacobian")
    assert f"row {failed[0]['row']} at mu=" in capsys.readouterr().err


def test_exit_code_missing_branch_file(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["verify", "--config", path, str(tmp_path / "nope.csv")]) == 2


def test_exit_code_corrupted_csv(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    main(["continue", "--config", path])
    run_dir = tmp_path / "out" / "test-run"
    csv_path = run_dir / "branch.csv"
    lines = csv_path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 3)[0] + ",oops,0,1"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--config", path, str(csv_path)]) == 2


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


def test_cmd_sweep(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["sweep"] = {"parameter": "eps", "values": [0.02, 0.01, 0.015], "workers": 2}
    cfg["continuation"]["max_steps"] = 40
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    summary = json.loads(
        (tmp_path / "out" / "test-run-sweep.json").read_text()
    )
    assert summary["exit_codes"] == [0, 0, 0]
    for rid in summary["runs"]:
        assert (tmp_path / "out" / rid / "branch.csv").exists()
    # serial, in the order the values are listed
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == summary["runs"] == [
        "test-run-eps0.02", "test-run-eps0.01", "test-run-eps0.015"]


@pytest.mark.parametrize("values", [[1, 10], ["a"], [0.5]])
def test_sweep_config_error_exits_2_before_any_run(tmp_path, capsys, values):
    cfg = base_config(tmp_path, N=10, coupling="conservative", boundary="on_site",
                      seed={"k": 1, "mu": 0.5})
    cfg["sweep"] = {"parameter": "k", "values": values}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_branch_csv_header_layout():
    header = branch_csv_header(4)
    assert header[:5] == ["step", "arclength", "mu", "rho", "r_l2"]
    assert header[5:9] == ["r_1", "r_2", "r_3", "r_4"]
    assert header[9:12] == ["phi_1", "phi_2", "phi_3"]
    assert header[-2:] == ["is_fold", "newton_iters"]


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


def test_k_sweep_isolas(tmp_path):
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


def test_cmd_seed_newton_failure_exit_3(tmp_path):
    cfg = base_config(
        tmp_path,
        N=8,
        seed={"k": 4, "pattern": ["plus", "plus", "plus", "minus"], "mu": 0.75},
    )
    cfg["omega1"] = {"linear_coefficient": 5.0}
    path = write_config(tmp_path, cfg, "blocked.json")
    assert main(["seed", "--config", path]) == 3
    assert main(["continue", "--config", path]) == 3


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


def test_config_built_spec_pickles(tmp_path):
    for model in ({"name": "quintic_rotating"},
                  {"polynomial_lambda": [0.0, 2.0, -1.0], "mu_coefficient": -1.0,
                   "omega0_const": 0.5}):
        spec = load_config(base_config(tmp_path, model=model)).spec
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)


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
