"""Command-line entry points: session running, evaluation, and reports.

Every subcommand takes a JSON config file (all fields optional; defaults
reproduce the standard benchmark), plus ``--seed`` and ``--out`` overrides.
``eval`` defaults to the config its session log records, and refuses a seed
other than the log's.
Outputs are a session log (line-delimited JSON) and CSV/JSON reports whose
bytes depend only on the config and seed. A package error (a bad config, a
malformed session log) or a file that cannot be opened ends the command with
one ``error: ...`` line on stderr and exit status 2, the status argparse uses
for a bad argument.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import ConfigError, LedGazeError, SensorFrame
from .evaluate import (
    SCENARIOS,
    compare_estimators,
    evaluate_accuracy,
    run_scenarios,
    sweep,
    trace_rows,
)
from .session import (
    SessionConfig,
    calibration_phase,
    read_session_log,
    run_benchmark_session,
    write_session_log,
)
from . import wire


def _load_config(args) -> SessionConfig:
    cfg = SessionConfig.load(args.config) if args.config else SessionConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_records(path: Path, header: list[str], records) -> None:
    """CSV of one row per record, each row the record's values for the header's keys."""
    _write_csv(path, header, ([r[k] for k in header] for r in records))


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    cal = calibration_phase(cfg, cfg.subject(), cfg.layout(), cfg.seed)
    _write_json(out / "calibration.json", {
        "config": cfg.to_dict(), "seed": cfg.seed, **cal.to_dict(),
    })
    print(f"calibration: {cal.point_count} points, {cal.channel_count} channels "
          f"-> {out / 'calibration.json'}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    log, cal = run_benchmark_session(cfg)
    path = out / "session.jsonl"
    write_session_log(log, path, calibration=cal)
    print(f"session: {log.n_frames} frames, calibration {cal.point_count} points "
          f"-> {path}")
    return 0


def _scoring_config(args, log) -> SessionConfig:
    """The config to score a log with: its meta's, or ``--config``; seeds must agree.

    Either way the log's recorded config is read through ``from_dict``, so a
    meta from another config version is refused, naming the version.
    """
    try:
        recorded = SessionConfig.from_dict(log.meta.get("config"))
    except ConfigError as exc:
        raise ConfigError(f"cannot read the config session log {args.log} records: {exc}") from None
    cfg = SessionConfig.load(args.config) if args.config else recorded
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if cfg.seed != recorded.seed:
        raise ConfigError(f"session log {args.log} was recorded with seed {recorded.seed}, "
                          f"not the seed {cfg.seed} given")
    return cfg


def cmd_eval(args) -> int:
    log, cal = read_session_log(args.log)
    if cal is None:
        raise ConfigError(f"session log {args.log} carries no calibration set")
    cfg = _scoring_config(args, log)
    geom = cfg.geometry()
    if log.meta.get("display") != asdict(geom):
        raise ConfigError(f"session log {args.log} was simulated on display "
                          f"{log.meta.get('display')}, the config sets {asdict(geom)}")
    out = _outdir(args)
    estimator = cfg.build_estimator(cal)
    report = evaluate_accuracy(log, estimator, geom)
    _write_json(out / "accuracy.json", report.to_dict(config=cfg, seed=cfg.seed))
    _write_csv(out / "accuracy.csv",
               ["metric", "value"],
               [["method", report.method],
                ["mean_deg", report.mean_deg],
                ["median_deg", report.median_deg],
                ["std_deg", report.std_deg],
                ["n_frames", report.n_frames],
                ["n_excluded", report.n_excluded],
                ["n_used", report.n_used]])
    _write_csv(out / "histogram.csv",
               ["bin_lo_deg", "bin_hi_deg", "mass"],
               [[report.hist_edges_deg[i], report.hist_edges_deg[i + 1], report.hist_mass[i]]
                for i in range(len(report.hist_mass))])
    if args.trace:
        _write_records(out / "trace.csv",
                       ["t_us", "target_x", "target_y", "gaze_x", "gaze_y",
                        "estimate_x", "estimate_y", "excluded"],
                       trace_rows(log, estimator))
    print(f"accuracy[{report.method}]: mean {report.mean_deg:.3f} deg, "
          f"median {report.median_deg:.3f} deg over {report.n_used} frames -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    result = sweep(cfg, args.axis, args.values)
    _write_json(out / f"sweep_{args.axis}.json", result)
    _write_records(out / f"sweep_{args.axis}.csv",
                   ["value", "mean_deg", "median_deg", "std_deg", "n_used"], result["rows"])
    for r in result["rows"]:
        print(f"{args.axis}={r['value']}: mean {r['mean_deg']:.3f} deg, "
              f"median {r['median_deg']:.3f} deg")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    log, cal = run_benchmark_session(cfg)
    result = compare_estimators(log, cal, cfg, all_measures=args.all_measures)
    _write_json(out / "compare.json", result)
    _write_records(out / "compare.csv",
                   ["method", "mean_deg", "median_deg", "std_deg", "n_used"], result["reports"])
    for r in result["reports"]:
        print(f"{r['method']}: mean {r['mean_deg']:.3f} deg, median {r['median_deg']:.3f} deg")
    print(f"svr sigma (grid-searched): {result['svr_sigma']}")
    return 0


def cmd_scenarios(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    result = run_scenarios(cfg, scenarios, n_seeds=args.seeds)
    _write_json(out / "scenarios.json", result)
    _write_records(out / "scenarios.csv",
                   ["scenario", "seed", "success_ratio", "first_half", "second_half",
                    "final_points"], result["rows"])
    for name, s in result["summary"].items():
        print(f"{name}: median {s['median']:.3f}, mean {s['mean']:.3f}, "
              f"halves {s['first_half_mean']:.3f} -> {s['second_half_mean']:.3f}")
    return 0


def cmd_wire_test(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 91]))
    n = args.frames
    ok = 0
    stream = bytearray()
    originals = []
    for _ in range(n):
        m = int(rng.integers(1, 17))
        frame = SensorFrame(int(rng.integers(0, 2**32)),
                            tuple(int(v) for v in rng.integers(0, 1024, m)))
        blob = wire.encode(frame)
        if wire.decode(blob)[0] == [frame]:
            ok += 1
        originals.append(frame)
        stream.extend(rng.bytes(int(rng.integers(0, 4))))  # inter-frame garbage
        stream.extend(blob)
    frames, stats = wire.decode(bytes(stream))
    recovered = sum(1 for a, b in zip(frames, originals) if a == b)
    payload = {
        "frames": n,
        "roundtrip_ok": ok,
        "recovered_from_garbage_stream": recovered,
        "decoder_stats": stats.as_dict(),
        "seed": cfg.seed,
    }
    _write_json(out / "wire_test.json", payload)
    print(f"wire: {ok}/{n} round-trips, {recovered}/{n} recovered from noisy stream, "
          f"{stats.bytes_skipped} bytes skipped")
    return 0 if ok == n and recovered == n else 1


def _integers(text: str) -> list[int]:
    """A comma-separated list of integers, as an argparse type."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _count(text: str) -> int:
    """An integer of at least 1, as an argparse type."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer of at least 1: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ledgaze",
        description="LED-only gaze estimation pipeline on a synthetic eye simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file (defaults if omitted)")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default="out", help="output directory")

    sp = sub.add_parser("calibrate", help="run the dwell calibration phase only")
    common(sp)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("run", help="full session: calibrate, augment, evaluation script")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("eval", help="accuracy report from a stored session log")
    common(sp)
    sp.add_argument("--log", required=True, help="session .jsonl produced by 'run'")
    sp.add_argument("--trace", action="store_true", help="emit per-frame trace.csv")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="error vs calibration-point or LED count")
    common(sp)
    sp.add_argument("--axis", required=True, choices=["calibration_points", "led_count"])
    sp.add_argument("--values", required=True, type=_integers, help="comma-separated values")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("compare", help="GPR-Minkowski vs grid-searched SVR-RBF")
    common(sp)
    sp.add_argument("--all-measures", action="store_true",
                    help="also report cosine/manhattan/canberra under GPR")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("scenarios", help="success-ratio scenarios over seeded sessions")
    common(sp)
    sp.add_argument("--scenario", default="all", choices=["all", *SCENARIOS])
    sp.add_argument("--seeds", type=int, default=20, help="sessions per scenario")
    sp.set_defaults(func=cmd_scenarios)

    sp = sub.add_parser("wire-test", help="serial-format round-trip and resync check")
    common(sp)
    sp.add_argument("--frames", type=_count, default=1000)
    sp.set_defaults(func=cmd_wire_test)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LedGazeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
