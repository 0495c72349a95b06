"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import time
from dataclasses import replace

import numpy as np

from ledgaze.cli import main
from ledgaze.core import CalibrationSet, ScreenPoint, SensorFrame
from ledgaze.eyesim import GazeScript, ScriptEvent, run_script
from ledgaze.evaluate import (
    compare_estimators,
    evaluate_accuracy,
    excluded_mask,
    run_scenarios,
    sweep,
)
from ledgaze.kernels import MeasureSpec, manhattan, minkowski, rbf, canberra, cosine
from ledgaze.regress import GprModel
from ledgaze.session import SessionConfig, calibration_phase, run_benchmark_session
from ledgaze import wire

from oracles import gpr_oracle


def report(n, ok, detail):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_gpr_interpolation_exactness():
    t0 = time.perf_counter()
    cfg = SessionConfig(noise_std=0.0, seed=1)
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    model = GprModel(cal, MeasureSpec("minkowski"), jitter=1e-8)
    E = model.estimate_batch(cal.means)
    worst = float(np.max(np.abs(E - cal.targets)))
    elapsed = time.perf_counter() - t0
    ok = cal.point_count == 16 and worst < 1e-4 and elapsed < 1.0
    report(1, ok, f"P={cal.point_count}, worst interpolation error "
                  f"{worst:.2e} px (limit 1e-4), {elapsed:.2f}s (limit 1s)")


def test_c02_solver_matches_gaussian_elimination_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        P = int(rng.integers(2, 51))
        M = int(rng.integers(4, 13))
        cal = CalibrationSet(rng.uniform(0, 1, (P, M)), rng.uniform(0, 600, (P, 2)))
        model = GprModel(cal, MeasureSpec("minkowski"), jitter=1e-8)
        frame = rng.uniform(0, 1, M)
        got = model.estimate_batch(frame[None, :])[0]
        ex, ey = gpr_oracle(cal.means.tolist(), cal.targets.tolist(),
                            frame.tolist(), model.effective_jitter)
        scale = max(abs(ex), abs(ey), 1.0)
        worst = max(worst, abs(got[0] - ex) / scale, abs(got[1] - ey) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(2, ok, f"100 systems, worst relative deviation {worst:.2e} "
                  f"(limit 1e-9), {elapsed:.2f}s (limit 10s)")


def test_c03_desk_scale_accuracy_regime():
    cfg = SessionConfig()  # the default synthetic benchmark
    log, cal = run_benchmark_session(cfg)
    model = GprModel(cal, MeasureSpec("minkowski"), jitter=cfg.jitter)
    rep = evaluate_accuracy(log, model, cfg.geometry())
    ok = (cal.point_count == 82 and cfg.noise_std == 0.01
          and rep.mean_deg <= 1.6 and rep.median_deg <= 1.2)
    report(3, ok, f"P={cal.point_count}, mean {rep.mean_deg:.3f} deg (limit 1.6), "
                  f"median {rep.median_deg:.3f} deg (limit 1.2)")


def test_c04_gpr_beats_svr_across_subjects():
    t0 = time.perf_counter()
    n_seeds = 20
    wins = 0
    for s in range(n_seeds):
        cfg = SessionConfig(seed=s, subject_seed=200 + s)
        log, cal = run_benchmark_session(cfg)
        result = compare_estimators(log, cal, cfg)
        wins += int(result["gpr_beats_svr"])
    elapsed = time.perf_counter() - t0
    ok = wins >= 0.7 * n_seeds and elapsed < 120.0
    report(4, ok, f"GPR-Minkowski beat SVR-RBF in {wins}/{n_seeds} paired runs "
                  f"(needs >= {int(0.7 * n_seeds)}), {elapsed:.1f}s (limit 120s)")


def test_c05_scenario_ordering_and_online_training():
    t0 = time.perf_counter()
    cfg = SessionConfig()
    result = run_scenarios(cfg, n_seeds=20)
    s = result["summary"]
    med = [s[k]["median"] for k in ("calibrated", "same_user_prior", "cross_user_prior")]
    halves_ok = (s["cross_user_prior"]["second_half_mean"]
                 >= s["cross_user_prior"]["first_half_mean"])
    elapsed = time.perf_counter() - t0
    ok = med[0] >= med[1] >= med[2] and halves_ok and elapsed < 300.0
    report(5, ok, f"medians {med[0]:.3f} >= {med[1]:.3f} >= {med[2]:.3f}, "
                  f"cross-user halves {s['cross_user_prior']['first_half_mean']:.3f}"
                  f" -> {s['cross_user_prior']['second_half_mean']:.3f}, "
                  f"{elapsed:.1f}s (limit 300s)")


def test_c06_excluded_frames_contribute_nothing():
    cfg = SessionConfig(seed=6)
    layout = cfg.layout()
    subject = replace(cfg.subject(), blink_rate_per_min=0.0)
    script = GazeScript((
        ScriptEvent("fixation", 1_500_000, ScreenPoint(250, 200)),
        ScriptEvent("blink", 200_000),
        ScriptEvent("fixation", 1_000_000, ScreenPoint(250, 200)),
        ScriptEvent("saccade", 0, ScreenPoint(550, 400)),
        ScriptEvent("fixation", 1_500_000, ScreenPoint(550, 400)),
    ))
    log = run_script(layout, subject, script, cfg.sim_config(), seed=cfg.seed)
    cal = calibration_phase(cfg, subject, layout, cfg.seed)
    model = GprModel(cal, MeasureSpec("minkowski"), jitter=cfg.jitter)
    full = evaluate_accuracy(log, model, cfg.geometry())
    trimmed = evaluate_accuracy(log.subset(~excluded_mask(log)), model, cfg.geometry())
    devs = [abs(full.mean_deg - trimmed.mean_deg) / max(full.mean_deg, 1e-30),
            abs(full.median_deg - trimmed.median_deg) / max(full.median_deg, 1e-30),
            abs(full.std_deg - trimmed.std_deg) / max(full.std_deg, 1e-30)]
    worst = max(devs)
    n_blinks = sum(1 for e in log.events if e["kind"] == "blink")
    n_moves = sum(1 for e in log.events if e["kind"] == "target_move")
    ok = n_blinks == 1 and n_moves == 1 and worst < 1e-12
    report(6, ok, f"one blink + one saccade injected; statistics with excluded "
                  f"frames deleted deviate by {worst:.2e} relative (limit 1e-12)")


def test_c07_kernel_identities():
    rng = np.random.default_rng(7)
    n = 10_000
    ok = True
    for _ in range(n):
        dim = int(rng.integers(1, 13))
        a = rng.uniform(-5, 5, dim)
        b = rng.uniform(-5, 5, dim)
        if minkowski(a, b, 1.0) != manhattan(a, b):
            ok = False
            break
        if minkowski(a, b, 2.0) != minkowski(b, a, 2.0):
            ok = False
            break
        if manhattan(a, b) != manhattan(b, a) or canberra(a, b) != canberra(b, a):
            ok = False
            break
        if rbf(a, b, 0.5) != rbf(b, a, 0.5):
            ok = False
            break
        if minkowski(a, a, 2.0) != 0.0 or manhattan(a, a) != 0.0 or canberra(a, a) != 0.0:
            ok = False
            break
        if rbf(a, a, 0.5) != 1.0:
            ok = False
            break
        c = np.abs(a) + 0.1  # keep cosine away from the zero vector
        d = np.abs(b) + 0.1
        if abs(cosine(c, d) - cosine(d, c)) != 0.0:
            ok = False
            break
    report(7, ok, f"{n} random pairs: minkowski(m=1) == manhattan exactly, "
                  f"self-distances 0, rbf self-similarity 1, all measures symmetric")


def test_c08_wire_roundtrip_and_corruption():
    rng = np.random.default_rng(8)
    n = 10_000
    frames = []
    for _ in range(n):
        m = int(rng.integers(1, 17))
        frames.append(SensorFrame(int(rng.integers(0, 2**32)),
                                  tuple(int(v) for v in rng.integers(0, 1024, m))))
    # bit-exact round trip
    roundtrip_ok = all(wire.decode(wire.encode(f))[0] == [f] for f in frames)

    # garbage-laced stream with single-bit corruption of a random subset
    corrupt_every = 10
    stream = bytearray()
    kept = []
    for i, f in enumerate(frames):
        stream.extend(rng.bytes(int(rng.integers(0, 4))))
        blob = bytearray(wire.encode(f))
        if i % corrupt_every == 0:
            pos = int(rng.integers(0, len(blob)))
            blob[pos] ^= 1 << int(rng.integers(0, 8))
        else:
            kept.append(f)
        stream.extend(blob)
    decoded, stats = wire.decode(bytes(stream))
    kept_set = {(f.timestamp_us, f.channels) for f in kept}
    never_misdecoded = all((f.timestamp_us, f.channels) in kept_set for f in decoded)
    all_clean_recovered = len(decoded) == len(kept) and decoded == kept
    dropped = n - len(kept)
    counted = (stats.checksum_failures + stats.invalid_fields) >= 1
    ok = roundtrip_ok and all_clean_recovered and never_misdecoded and counted
    report(8, ok, f"{n} frames bit-exact; {len(kept)} clean frames all recovered "
                  f"from noisy stream; {dropped} corrupted frames dropped "
                  f"({stats.checksum_failures} checksum fails, "
                  f"{stats.invalid_fields} invalid fields), none mis-decoded")


def test_c09_iir_properties():
    from ledgaze.sigproc import IirFilter
    alpha = 0.3
    # DC gain
    f = IirFilter(alpha)
    f.step(np.array([0.9]))
    y = None
    for _ in range(2000):
        y = f.step(np.array([0.37]))
    dc_err = abs(float(y[0]) - 0.37)
    # geometric convergence on a step input
    f2 = IirFilter(alpha)
    f2.step(np.array([0.0]))
    rate_ok = True
    for k in range(1, 60):
        yk = float(f2.step(np.array([1.0]))[0])
        expect = 1.0 - (1.0 - alpha) ** k
        if abs(yk - expect) > 1e-12:
            rate_ok = False
            break
    ok = dc_err < 1e-12 and rate_ok
    report(9, ok, f"DC gain error {dc_err:.2e} (limit 1e-12); step response "
                  f"follows 1-(1-a)^n to 1e-12 for 60 steps")


def test_c10_cli_determinism(tmp_path):
    cfg = SessionConfig(seed=10, grid_rows=3, grid_cols=3, augment_points=5,
                        eval_fixations=8, fix_duration_ms=400.0,
                        eval_fixation_min_ms=300.0, eval_fixation_max_ms=500.0,
                        augment_dwell_ms=200.0, task_count=5, task_dwell_ms=700.0)
    cfg_path = tmp_path / "config.json"
    cfg.save(cfg_path)
    commands = {
        "run": ["run"],
        "eval": None,  # filled in after run produces a log
        "calibrate": ["calibrate"],
        "compare": ["compare"],
        "sweep": ["sweep", "--axis", "led_count", "--values", "4,12"],
        "scenarios": ["scenarios", "--seeds", "1"],
        "wire-test": ["wire-test", "--frames", "500"],
    }
    mismatches = []
    for name, argv in commands.items():
        outs = []
        for rep_i in (1, 2):
            out = tmp_path / f"{name}{rep_i}"
            if name == "eval":
                log = tmp_path / "run1" / "session.jsonl"
                argv_full = ["eval", "--log", str(log), "--trace"]
            else:
                argv_full = list(argv)
            code = main(argv_full + ["--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            outs.append(out)
        for f1 in sorted(outs[0].iterdir()):
            f2 = outs[1] / f1.name
            if f1.read_bytes() != f2.read_bytes():
                mismatches.append(f"{name}/{f1.name}")
    ok = not mismatches
    report(10, ok, f"7 CLI commands re-run byte-identically"
                   + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_c11_sweep_monotone_trends():
    cfg = SessionConfig()
    tol = 0.1
    led = sweep(cfg, "led_count", [4, 6, 8, 10, 12])["rows"]
    cal = sweep(cfg, "calibration_points", [4, 9, 16, 25])["rows"]
    led_means = [r["mean_deg"] for r in led]
    cal_means = [r["mean_deg"] for r in cal]
    led_ok = all(led_means[i + 1] <= led_means[i] + tol for i in range(len(led_means) - 1))
    cal_ok = all(cal_means[i + 1] <= cal_means[i] + tol for i in range(len(cal_means) - 1))
    ok = led_ok and cal_ok
    report(11, ok, f"led 4->12 means {[round(v, 3) for v in led_means]}, "
                   f"calibration 4->25 means {[round(v, 3) for v in cal_means]}, "
                   f"both non-increasing within +{tol} deg")
