"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from a seed in ``setup`` and then runs any
number of identical passes; ``run_pass`` times the work a user waits for
and, outside that timed region, checks the outputs and digests them.

- ``session``: the default benchmark session as ``ledgaze run``, ``eval``
  and ``compare --all-measures`` perform it. Long simulated runs that mostly
  take the vectorised exposure shortcut, large kernel batches and JSONL log
  I/O.
- ``scenarios``: ``run_scenarios`` over all three scenarios for
  ``SCENARIO_SEEDS`` sessions each. Many short dwell blocks, a larger share
  of per-frame exposure replay, ~300-frame estimate batches and one GPR
  refactorisation per failed task; no log I/O.
- ``stream``: the device path. Set-up simulates one session and encodes its
  raw counts; the pass feeds the bytes one frame per ``feed`` call and takes
  each decoded frame through normalisation, the IIR filter and one GPR
  estimate. The simulator does no work inside the pass.

All three are closed loops: one process, one thread, the next piece of work
starts when the previous one returns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ledgaze import evaluate, eyesim, regress, session, sigproc, wire
from ledgaze.core import EstimationError, SensorFrame

# Accuracy regime of the default session (acceptance criterion c03).
SESSION_MEAN_LIMIT_DEG = 1.6
SESSION_MEDIAN_LIMIT_DEG = 1.2

SCENARIO_SEEDS = 2

# Share of stream frames that get one flipped bit, and the seed stream label
# of the generator that picks them.
CORRUPT_FRACTION = 0.005
_CORRUPT_STREAM = 97


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_file_bytes(payload) -> bytes:
    """The bytes the CLI writes for a JSON report."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@dataclass
class PassResult:
    """What one pass did: timing, outputs digest and check results."""

    wall_s: float
    frames: int
    # Per-frame latency samples; only the stream has a per-frame path.
    latency_us: np.ndarray | None
    digest: str
    parts: dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    mean_error_deg: float = float("nan")
    success_ratio: float = float("nan")

    def count(self, what: str, n: int = 1, bad: int = 0) -> None:
        """Record ``n`` attempted operations of which ``bad`` failed."""
        self.attempted += n
        if bad:
            self.failed += bad
            self.problems.append(f"{what} ({bad} of {n})")


class FrameCounter:
    """Counts the frames the simulator produces, for ``frames_per_s``.

    The wrapper stays on for the whole run and passes every argument
    through unchanged.
    """

    def __init__(self):
        self.frames = 0

    def install(self, patches) -> None:
        patches.replace(eyesim.EyeSimulator, "run", self._counted_run)

    def _counted_run(self, fn):
        @functools.wraps(fn)
        def counted(engine, *args, **kwargs):
            before = engine.frame_index
            fn(engine, *args, **kwargs)
            self.frames += engine.frame_index - before
        return counted


class Workload:
    """Set-up, passes and the hooks the runner calls around them."""

    name: str
    # Layers a traced pass or set-up of this workload must spend time in.
    layers: tuple[str, ...]

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def install(self, patches) -> None:
        """Put the workload's recorders in place for the whole run."""

    def cleanup(self) -> None:
        """Remove what the passes left in the work directory."""


class SessionWorkload(Workload):
    name = "session"
    layers = ("eyesim", "sigproc", "kernels", "regress", "calib", "session", "evaluate")

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.log_path = workdir / "session.jsonl"
        self.counter = FrameCounter()

    def install(self, patches) -> None:
        self.counter.install(patches)

    def setup(self, seed: int) -> None:
        self.cfg = session.SessionConfig(seed=seed)

    def run_pass(self) -> PassResult:
        cfg = self.cfg
        self.counter.frames = 0
        t0 = perf_counter()
        log, cal = session.run_benchmark_session(cfg)
        session.write_session_log(log, self.log_path, calibration=cal)
        log_back, cal_back = session.read_session_log(self.log_path)
        report = evaluate.evaluate_accuracy(log_back, cfg.build_estimator(cal_back), cfg.geometry())
        comparison = evaluate.compare_estimators(log, cal, cfg, all_measures=True)
        wall = perf_counter() - t0

        accuracy = report.to_dict(config=cfg, seed=cfg.seed)
        parts = {
            "session.jsonl": _sha(self.log_path.read_bytes()),
            "accuracy.json": _sha(_json_file_bytes(accuracy)),
            "compare.json": _sha(_json_file_bytes(comparison)),
        }
        res = PassResult(wall, self.counter.frames, None, _sha("".join(parts.values()).encode()), parts)
        grid_points = cfg.grid_rows * cfg.grid_cols
        kept = cal.point_count - cfg.augment_points
        res.count("calibration targets dropped", grid_points, grid_points - kept)
        reports = [accuracy, *comparison["reports"]]
        nonfinite = sum(not (math.isfinite(r["mean_deg"]) and math.isfinite(r["median_deg"]))
                        for r in reports)
        res.count("estimator reports not finite", len(reports), nonfinite)
        res.count(f"mean error {report.mean_deg:.3f} deg over {SESSION_MEAN_LIMIT_DEG}",
                  bad=report.mean_deg > SESSION_MEAN_LIMIT_DEG)
        res.count(f"median error {report.median_deg:.3f} deg over {SESSION_MEDIAN_LIMIT_DEG}",
                  bad=report.median_deg > SESSION_MEDIAN_LIMIT_DEG)
        res.count("log read-back changed the GPR report",
                  bad=comparison["reports"][0] != report.to_dict())
        res.mean_error_deg = report.mean_deg
        # Share of scored frames inside the selection disc; the disc radius is
        # a histogram bin edge, so the bins below it hold exactly those frames.
        edges = report.hist_edges_deg
        res.success_ratio = sum(m for m, hi in zip(report.hist_mass, edges[1:])
                                if hi <= cfg.target_radius_deg)
        return res

    def cleanup(self) -> None:
        self.log_path.unlink(missing_ok=True)


class ScenariosWorkload(Workload):
    name = "scenarios"
    layers = ("eyesim", "sigproc", "kernels", "regress", "calib", "session", "evaluate")

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.counter = FrameCounter()
        # Estimates of the task session in progress, for the finiteness check.
        self.capture: list[np.ndarray] | None = None
        self.windows: list[tuple[list[dict], list[np.ndarray]]] = []

    def install(self, patches) -> None:
        self.counter.install(patches)
        for cls in (regress.GprModel, regress.SvrModel):
            patches.replace(cls, "estimate_batch", self._captured_estimate)
        patches.replace(evaluate, "run_task_session", self._captured_task_session)

    def _captured_estimate(self, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            E = fn(*args, **kwargs)
            if self.capture is not None:
                self.capture.append(E)
            return E
        return captured

    def _captured_task_session(self, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            outer, self.capture = self.capture, []
            try:
                result = fn(*args, **kwargs)
                self.windows.append((result.tasks, self.capture))
            finally:
                self.capture = outer
            return result
        return captured

    def setup(self, seed: int) -> None:
        self.cfg = session.SessionConfig(seed=seed)

    def run_pass(self) -> PassResult:
        cfg = self.cfg
        self.counter.frames = 0
        self.windows = []
        t0 = perf_counter()
        result = evaluate.run_scenarios(cfg, evaluate.SCENARIOS, n_seeds=SCENARIO_SEEDS)
        wall = perf_counter() - t0

        parts = {"scenarios.json": _sha(_json_file_bytes(result))}
        res = PassResult(wall, self.counter.frames, None, parts["scenarios.json"], parts)
        rows = result["rows"]
        expected_rows = len(evaluate.SCENARIOS) * SCENARIO_SEEDS
        res.count(f"{len(rows)} scenario rows, expected {expected_rows}", bad=len(rows) != expected_rows)
        grid_points = cfg.grid_rows * cfg.grid_cols
        for r in rows:
            ratios = (r["success_ratio"], r["first_half"], r["second_half"])
            res.count(f"{r['scenario']}/{r['seed']} ratio outside [0, 1]",
                      bad=not all(0.0 <= x <= 1.0 for x in ratios))
            failed_tasks = cfg.task_count - round(r["success_ratio"] * cfg.task_count)
            kept = r["final_points"] - failed_tasks
            res.count("calibration targets dropped", grid_points, grid_points - kept)
        errors = []
        for tasks, estimates in self.windows:
            res.count("tasks without one estimate batch each", bad=len(tasks) != len(estimates))
            for task, E in zip(tasks, estimates):
                finite = np.isfinite(E).all(axis=1)
                res.count("task-window estimates not finite", E.shape[0], int((~finite).sum()))
                tx, ty = task["target"]
                errors.append(cfg.degrees_per_pixel * np.hypot(E[finite, 0] - tx, E[finite, 1] - ty))
        res.mean_error_deg = float(np.mean(np.concatenate(errors))) if errors else float("nan")
        res.success_ratio = float(np.mean([r["success_ratio"] for r in rows]))
        return res


class StreamWorkload(Workload):
    name = "stream"
    # Set-up simulates the session (traced once); the pass is the device path.
    layers = ("eyesim", "sigproc", "kernels", "regress", "calib", "session", "wire")

    def setup(self, seed: int) -> None:
        cfg = session.SessionConfig(seed=seed)
        log, cal = session.run_benchmark_session(cfg)
        self.cfg = cfg
        self.model = cfg.build_estimator(cal)
        rng = np.random.default_rng(np.random.SeedSequence([seed, _CORRUPT_STREAM]))
        chunks = []
        corrupted = np.zeros(log.n_frames, dtype=bool)
        for i in range(log.n_frames):
            blob = wire.encode(SensorFrame(int(log.t_us[i]), tuple(int(v) for v in log.raw[i])))
            if rng.random() < CORRUPT_FRACTION:
                bit = int(rng.integers(len(blob) * 8))
                flipped = bytearray(blob)
                flipped[bit // 8] ^= 1 << (bit % 8)
                blob = bytes(flipped)
                corrupted[i] = True
            chunks.append(blob)
        self.chunks = chunks
        self.corrupted = corrupted
        self.sent = {int(t): (i, tuple(int(v) for v in row))
                     for i, (t, row) in enumerate(zip(log.t_us, log.raw))}
        self.scored = ~evaluate.excluded_mask(log)
        self.targets = log.target

    def run_pass(self) -> PassResult:
        model = self.model
        decoder = wire.StreamDecoder()
        filt = sigproc.IirFilter(self.cfg.iir_alpha)
        latency: list[float] = []
        estimates: list[tuple[float, float]] = []
        decoded: list[SensorFrame] = []
        estimation_errors = 0

        def consume(frames, t0):
            nonlocal estimation_errors
            for frame in frames:
                decoded.append(frame)
                try:
                    g = model.estimate(filt.step(frame.normalized()), frame.timestamp_us)
                except EstimationError:
                    estimation_errors += 1
                    continue
                latency.append(perf_counter() - t0)
                estimates.append((g.position.x, g.position.y))

        t_start = perf_counter()
        for chunk in self.chunks:
            t0 = perf_counter()
            consume(decoder.feed(chunk), t0)
        t0 = perf_counter()
        consume(decoder.finish(), t0)
        wall = perf_counter() - t_start

        est = np.asarray(estimates, dtype=float).reshape(-1, 2)
        stats = decoder.stats.as_dict()
        parts = {"estimates": _sha(est.tobytes()),
                 "decoder_stats": _sha(json.dumps(stats, sort_keys=True).encode())}
        lat = np.asarray(latency) * 1e6
        res = PassResult(wall, len(estimates), lat, _sha("".join(parts.values()).encode()), parts)
        consumed = sum(wire.frame_length(f.channel_count) for f in decoded)
        total = sum(len(c) for c in self.chunks)
        res.count(f"byte count: {consumed} decoded + {stats['bytes_skipped']} skipped != {total}",
                  bad=consumed + stats["bytes_skipped"] != total)
        index = []
        mismatched = 0
        for f in decoded:
            i, channels = self.sent.get(f.timestamp_us, (None, None))
            if channels != f.channels:
                mismatched += 1
            index.append(-1 if channels != f.channels else i)
        res.count("decoded frames matching no sent frame", len(decoded), mismatched)
        recovered = np.zeros(len(self.corrupted), dtype=bool)
        recovered[[i for i in index if i >= 0]] = True
        clean = ~self.corrupted
        res.count("uncorrupted frames not recovered", int(clean.sum()),
                  int((clean & ~recovered).sum()))
        finite = np.isfinite(est).all(axis=1)
        res.count("estimator errors or non-finite estimates", len(decoded),
                  estimation_errors + int((~finite).sum()))
        # The device path has no exposure compensation: the model was trained
        # on the simulator's exposure-compensated vectors and gets raw counts
        # here, so these accuracy figures are no quality measure.
        if estimation_errors == 0:
            idx = np.asarray(index)
            use = (idx >= 0) & finite
            use[use] = self.scored[idx[use]]
            tgt = self.targets[idx[use]]
            err = self.cfg.degrees_per_pixel * np.hypot(est[use, 0] - tgt[:, 0], est[use, 1] - tgt[:, 1])
            res.mean_error_deg = float(err.mean())
            res.success_ratio = float(np.mean(err <= self.cfg.target_radius_deg))
        return res


WORKLOADS = {w.name: w for w in (SessionWorkload, ScenariosWorkload, StreamWorkload)}
