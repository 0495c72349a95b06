import json

import pytest

from ledgaze.cli import main
from ledgaze.session import SessionConfig

from oracles import pack_frames_reference, sealed, unpack_frames_reference


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_scenarios_json_is_strict_json_at_the_fewest_tasks(tmp_path):
    config = tmp_path / "config.json"
    SessionConfig(seed=4, grid_rows=2, grid_cols=2, task_count=2, task_dwell_ms=700.0).save(config)
    out = tmp_path / "sc"
    assert main(["scenarios", "--config", str(config), "--out", str(out), "--seeds", "1"]) == 0
    payload = json.loads((out / "scenarios.json").read_text(), parse_constant=_refuse_constant)
    assert all(0.0 <= row[half] <= 1.0 for row in payload["rows"]
               for half in ("first_half", "second_half"))


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
    body = text[:text.rstrip("\n").rfind("\n") + 1]  # the lines before the digest record
    log_path.write_text(body[:len(body) - 40])  # a write cut short inside the last frame
    n_lines = body.count("\n")
    capsys.readouterr()
    assert main(["eval", "--config", small_config_file, "--log", str(log_path),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed session log {log_path}, line {n_lines}: invalid JSON")
    assert err.count("\n") == 1


def test_eval_refuses_a_log_with_one_raw_digit_changed(tmp_path, capsys):
    # Without the digest, eval scored this log and reported a mean error in
    # the seventh digit away from the written log's.
    run_dir = tmp_path / "run"
    assert main(["run", "--seed", "1", "--out", str(run_dir)]) == 0
    log_path = run_dir / "session.jsonl"
    lines = log_path.read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if '"type": "frames"' in line)
    rec = json.loads(lines[k])
    t_us, raw = unpack_frames_reference(rec)
    count = raw[1000][3]
    raw[1000][3] = count - 1 if count % 10 else count + 1  # one digit, still a valid count
    lines[k] = json.dumps({**rec, **pack_frames_reference(t_us, raw)}, sort_keys=True) + "\n"
    log_path.write_text("".join(lines))
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--log", str(log_path), "--out", str(eval_dir)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: session log {log_path} does not match its digest: it was changed "
                   "after it was written\n")
    assert not (eval_dir / "accuracy.json").exists()


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


def test_sweep_refuses_a_negative_calibration_point_count(tmp_path, small_config_file, capsys):
    assert main(["sweep", "--config", small_config_file, "--out", str(tmp_path / "sw"),
                 "--axis", "calibration_points", "--values=-4"]) == 2
    assert capsys.readouterr().err == "error: calibration_points value -4 is not a square grid\n"
    assert not (tmp_path / "sw" / "sweep_calibration_points.json").exists()


@pytest.mark.parametrize("frames", ["-3", "0", "x"])
def test_wire_test_refuses_fewer_than_one_frame(tmp_path, capsys, frames):
    with pytest.raises(SystemExit) as exc:
        main(["wire-test", "--out", str(tmp_path / "wt"), f"--frames={frames}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument --frames: not an integer of at "
                                         f"least 1: '{frames}'")
    assert not (tmp_path / "wt").exists()


@pytest.mark.parametrize("text, problem", [
    ('{"seed": 3,', "is not valid JSON"),
    ("[1]", "a config must be a JSON object, not list"),
], ids=["truncated", "not-an-object"])
def test_config_file_that_is_not_a_json_object_is_one_error_line(tmp_path, capsys, text, problem):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and problem in err
    if problem == "is not valid JSON":
        assert str(path) in err


def test_eval_refuses_a_log_from_another_display(tmp_path, capsys, small_config_file):
    path = tmp_path / "coarse.json"
    SessionConfig.load(small_config_file).replace(degrees_per_pixel=0.2).save(path)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    # a config of the default 0.12 degrees per pixel would score the log wrongly
    assert main(["eval", "--config", small_config_file, "--log", str(run_dir / "session.jsonl"),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'degrees_per_pixel': 0.2" in err and "'degrees_per_pixel': 0.12" in err
    assert not (tmp_path / "eval").exists()
    assert main(["eval", "--config", str(path), "--log", str(run_dir / "session.jsonl"),
                 "--out", str(tmp_path / "eval")]) == 0
    # without --config, eval scores on the display the log's config records
    assert main(["eval", "--log", str(run_dir / "session.jsonl"),
                 "--out", str(tmp_path / "eval2")]) == 0
    assert ((tmp_path / "eval2" / "accuracy.json").read_bytes()
            == (tmp_path / "eval" / "accuracy.json").read_bytes())


def test_eval_names_the_run_it_scored(tmp_path, capsys, small_config_file):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", small_config_file, "--seed", "7", "--out", str(run_dir)]) == 0
    log_path = str(run_dir / "session.jsonl")
    assert main(["eval", "--log", log_path, "--out", str(tmp_path / "eval")]) == 0
    payload = json.loads((tmp_path / "eval" / "accuracy.json").read_text())
    assert payload["seed"] == 7 and payload["config"]["seed"] == 7
    assert payload["config"] == SessionConfig.load(small_config_file).replace(seed=7).to_dict()
    assert main(["eval", "--log", log_path, "--seed", "7", "--out", str(tmp_path / "eval7")]) == 0
    assert ((tmp_path / "eval7" / "accuracy.json").read_bytes()
            == (tmp_path / "eval" / "accuracy.json").read_bytes())
    capsys.readouterr()
    for extra in (["--seed", "8"], ["--config", small_config_file]):  # the file's seed is 4
        assert main(["eval", "--log", log_path, *extra, "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        given = extra[1] if extra[0] == "--seed" else "4"
        assert err == (f"error: session log {log_path} was recorded with seed 7, "
                       f"not the seed {given} given\n")
    assert not (tmp_path / "bad").exists()


def test_eval_refuses_a_log_whose_config_has_another_version(tmp_path, capsys, small_config_file):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", small_config_file, "--out", str(run_dir)]) == 0
    log_path = run_dir / "session.jsonl"
    meta, rest = log_path.read_text().split("\n", 1)
    meta = json.loads(meta)
    meta["config"].update(config_version=1, sample_interval_ms=10.0)  # as version 1 saved it
    body = rest[:rest.rstrip("\n").rfind("\n") + 1]  # the lines before the digest record
    log_path.write_text(sealed(json.dumps(meta, sort_keys=True) + "\n" + body))
    capsys.readouterr()
    for extra in ([], ["--config", small_config_file]):
        assert main(["eval", "--log", str(log_path), *extra, "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot read the config session log {log_path} records: "
                       "config_version 1 is not readable here (this code reads 2)\n")


@pytest.mark.parametrize("text, field", [
    ('{"noise_sd": 0.2}', "noise_sd"),
    ('{"task_count": -3}', "task_count"),
    ('{"task_count": 1}', "task_count"),
    ('{"augment_points": -5}', "augment_points"),
    ('{"eval_fixations": -1}', "eval_fixations"),
    ('{"seed": 1.5}', "seed"),
    ('{"minkowski_m": true}', "minkowski_m"),
    ('{"target_radius_deg": -1}', "target_radius_deg"),
    ('{"task_window_threshold": 2.0}', "task_window_threshold"),
    ('{"remount_shift_std_mm": -1}', "remount_shift_std_mm"),
    ('{"eval_fixation_min_ms": 900.0, "eval_fixation_max_ms": 800.0}', "eval_fixation_min_ms"),
    ('{"sample_interval_ms": 10.0}', "sample_interval_ms"),
    ('{"fix_duration_ms": 14.0}', "fix_duration_ms"),
    ('{"signal_scale": -1.0}', "signal_scale"),
    ('{"lobe_sharpness": 0}', "lobe_sharpness"),
    ('{"eyelid_level": 1.5}', "eyelid_level"),
    ('{"grid_margin": 300}', "grid_margin"),
])
def test_config_file_with_a_bad_field_is_one_error_line(tmp_path, capsys, text, field):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(field) in err
    assert not (tmp_path / "run").exists()


def test_config_file_of_version_1_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    saved = {**SessionConfig().to_dict(), "config_version": 1, "sample_interval_ms": 10.0}
    path.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == ("error: config_version 1 is not readable here "
                                       "(this code reads 2)\n")
