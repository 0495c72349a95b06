import json

import pytest

from ledgaze.cli import main
from ledgaze.session import SessionConfig


@pytest.fixture
def small_config_file(tmp_path):
    cfg = SessionConfig(seed=4, grid_rows=2, grid_cols=2, augment_points=3,
                        eval_fixations=5, fix_duration_ms=300.0,
                        eval_fixation_min_ms=300.0, eval_fixation_max_ms=500.0,
                        augment_dwell_ms=200.0, task_count=4, task_dwell_ms=700.0)
    path = tmp_path / "config.json"
    cfg.save(path)
    return str(path)


def test_calibrate_command(tmp_path, small_config_file):
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", small_config_file, "--out", str(out)]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert len(payload["means"]) == 4
    assert payload["config"]["seed"] == 4


def test_run_then_eval_with_trace(tmp_path, small_config_file):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", small_config_file, "--out", str(run_dir)]) == 0
    log_path = run_dir / "session.jsonl"
    assert log_path.exists()
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--config", small_config_file, "--log", str(log_path),
                 "--out", str(eval_dir), "--trace"]) == 0
    for name in ("accuracy.json", "accuracy.csv", "histogram.csv", "trace.csv"):
        assert (eval_dir / name).exists()
    payload = json.loads((eval_dir / "accuracy.json").read_text())
    assert payload["method"] == "gpr-minkowski"
    assert "config" in payload and "seed" in payload
    header = (eval_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "t_us,target_x,target_y,gaze_x,gaze_y,estimate_x,estimate_y,excluded"


@pytest.mark.parametrize("command, flag", [("eval", "--log"), ("run", "--config")],
                         ids=["eval-log", "run-config"])
def test_missing_input_file_is_one_error_line(tmp_path, capsys, command, flag):
    missing = tmp_path / "missing"
    assert main([command, flag, str(missing), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


def test_seed_override_changes_output(tmp_path, small_config_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", small_config_file, "--out", str(a), "--seed", "21"])
    main(["run", "--config", small_config_file, "--out", str(b), "--seed", "22"])
    assert (a / "session.jsonl").read_bytes() != (b / "session.jsonl").read_bytes()


def test_rerun_byte_identical(tmp_path, small_config_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", small_config_file, "--out", str(a)])
    main(["run", "--config", small_config_file, "--out", str(b)])
    assert (a / "session.jsonl").read_bytes() == (b / "session.jsonl").read_bytes()


def test_sweep_command(tmp_path, small_config_file):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", small_config_file, "--out", str(out),
                 "--axis", "led_count", "--values", "4,12"]) == 0
    rows = (out / "sweep_led_count.csv").read_text().splitlines()
    assert rows[0] == "value,mean_deg,median_deg,std_deg,n_used"
    assert len(rows) == 3


def test_compare_command(tmp_path, small_config_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", small_config_file, "--out", str(out),
                 "--all-measures"]) == 0
    payload = json.loads((out / "compare.json").read_text())
    methods = [r["method"] for r in payload["reports"]]
    assert methods[:2] == ["gpr-minkowski", "svr-rbf"]
    assert {"gpr-cosine", "gpr-manhattan", "gpr-canberra"} <= set(methods)
    assert payload["svr_sigma"] in SessionConfig().sigma_grid


def test_scenarios_command(tmp_path, small_config_file):
    out = tmp_path / "sc"
    assert main(["scenarios", "--config", small_config_file, "--out", str(out),
                 "--seeds", "2"]) == 0
    rows = (out / "scenarios.csv").read_text().splitlines()
    assert rows[0] == "scenario,seed,success_ratio,first_half,second_half,final_points"
    assert len(rows) == 1 + 3 * 2
    payload = json.loads((out / "scenarios.json").read_text())
    assert set(payload["summary"]) == {"calibrated", "same_user_prior", "cross_user_prior"}


def test_wire_test_command(tmp_path):
    out = tmp_path / "wt"
    assert main(["wire-test", "--out", str(out), "--frames", "200"]) == 0
    payload = json.loads((out / "wire_test.json").read_text())
    assert payload["roundtrip_ok"] == 200
    assert payload["recovered_from_garbage_stream"] == 200


def test_default_config_when_none_given(tmp_path):
    out = tmp_path / "wt2"
    assert main(["wire-test", "--out", str(out), "--frames", "50", "--seed", "8"]) == 0
    assert json.loads((out / "wire_test.json").read_text())["seed"] == 8


def test_malformed_log_is_one_error_line(tmp_path, small_config_file, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", small_config_file, "--out", str(run_dir)]) == 0
    log_path = run_dir / "session.jsonl"
    text = log_path.read_text()
    log_path.write_text(text[:len(text) - 40])  # a write cut short inside the last frame
    n_lines = text.count("\n")
    capsys.readouterr()
    assert main(["eval", "--config", small_config_file, "--log", str(log_path),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed session log {log_path}, line {n_lines}: invalid JSON")
    assert err.count("\n") == 1


def test_non_finite_config_value_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"noise_std": NaN}\n')  # json.load accepts the token
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "error: config field 'noise_std' must be finite, got nan\n"
    assert not (tmp_path / "run" / "session.jsonl").exists()


def test_sweep_values_must_be_integers(tmp_path, small_config_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", small_config_file, "--out", str(tmp_path / "sw"),
              "--axis", "led_count", "--values", "4,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --values: not a comma-separated list of integers: '4,x'" in err
