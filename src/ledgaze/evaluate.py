"""Accuracy evaluation, estimator comparison, sweeps, and task scenarios.

Angular errors are computed against the stimulus target over frames outside
the excluded regions: blink intervals and target-move windows (stimulus step
until the gaze lands on the new target), each padded by the low-pass
filter's settling tail so transients never leak into the statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    CalibrationSet,
    ConfigError,
    DisplayGeometry,
    InsufficientDataError,
    ScreenPoint,
    angular_error_px,
)
from .eyesim import EyeSimulator, LedLayout, SessionLog, SubjectProfile
from .kernels import MeasureSpec
from .regress import GprModel, SvrModel, grid_search_sigma
from .session import (
    SessionConfig,
    SimulatorDwellSource,
    calibration_phase,
    evaluation_phase,
    derive_seed,
    iir_settle_frames,
    run_benchmark_session,
)

HIST_BIN_DEG = 0.25
PAD_ATTENUATION = 0.01  # exclusion windows end once transients decay to 1%
HOLDOUT_FRACTION = 0.25  # share of the calibration held out to pick the SVR sigma


def exclusion_masks(log: SessionLog) -> tuple[np.ndarray, np.ndarray]:
    """Frames dropped from statistics for a blink and for a target move, (n,) each.

    An unsettled move runs to the end of the log; every window ends late by
    the settling tail of the IIR filter and capture cycle the log's meta records.
    Every event is scorable: a ``SessionLog`` refuses any other when it is
    built (``eyesim._event_fault``).
    """
    pad = iir_settle_frames(log.meta["iir_alpha"], PAD_ATTENUATION) * log.meta["cycle_us"]
    end_us = int(log.t_us[-1]) if log.n_frames else 0
    blink = np.zeros(log.n_frames, dtype=bool)
    move = np.zeros(log.n_frames, dtype=bool)
    for ev in log.events:  # each a blink or a target_move, with integer times
        if ev["kind"] == "blink":
            mask, lo, hi = blink, ev["t0_us"], ev["t1_us"]
        else:
            settle = ev["t_settle_us"]
            mask, lo, hi = move, ev["t_move_us"], end_us if settle is None else settle
        mask |= (log.t_us >= lo) & (log.t_us <= hi + pad)
    return blink, move


def excluded_mask(log: SessionLog) -> np.ndarray:
    blink, move = exclusion_masks(log)
    return blink | move


@dataclass
class AccuracyReport:
    """Angular-error statistics over the non-excluded frames of one run."""

    method: str
    mean_deg: float
    median_deg: float
    std_deg: float
    n_frames: int
    n_excluded: int
    n_excluded_blink: int
    n_excluded_move: int
    n_used: int
    hist_edges_deg: list[float]
    hist_mass: list[float]
    per_target: list[dict]

    def to_dict(self, config: SessionConfig | None = None, seed: int | None = None) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if config is not None:
            d["config"] = config.to_dict()
        if seed is not None:
            d["seed"] = seed
        return d


def _error_histogram(err: np.ndarray) -> tuple[list[float], list[float]]:
    top = max(HIST_BIN_DEG, math.ceil(float(err.max()) / HIST_BIN_DEG) * HIST_BIN_DEG)
    edges = np.arange(0.0, top + HIST_BIN_DEG / 2, HIST_BIN_DEG)
    counts, edges = np.histogram(err, bins=edges)
    mass = counts / err.size
    return [float(e) for e in edges], [float(m) for m in mass]


@dataclass(frozen=True)
class _ScoredFrames:
    """One log's scored frames, found once and shared by every report on the log.

    ``order`` sorts the scored frames by target x, then y, keeping log order
    within a target (a stable sort), so each distinct target's frames are one
    run ``order[bounds[i]:bounds[i + 1]]``; ``groups`` holds the distinct
    targets in that order, which is ``np.unique``'s.
    """

    n_frames: int
    n_excluded_blink: int
    n_excluded_move: int
    X: np.ndarray
    targets: np.ndarray
    order: np.ndarray
    bounds: list[int]
    groups: list[list[float]]

    @classmethod
    def of(cls, log: SessionLog) -> "_ScoredFrames":
        blink_mask, move_mask = exclusion_masks(log)
        mask = ~(blink_mask | move_mask)
        if not mask.any():
            raise InsufficientDataError("every frame fell inside an excluded interval")
        targets = log.target[mask]
        order = np.lexsort((targets[:, 1], targets[:, 0]))
        ordered = targets[order]
        starts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
        bounds = [0, *starts.tolist(), len(order)]
        return cls(log.n_frames, int(blink_mask.sum()), int(move_mask.sum()),
                   log.proc[mask], targets, order, bounds, ordered[bounds[:-1]].tolist())

    def report(self, estimator, geom: DisplayGeometry) -> AccuracyReport:
        """Run the estimator over the scored frames and summarize its errors.

        A target's mean sums its errors in log order, as ``mean`` does, and
        its median is the middle of its sorted errors, or the mean of the two
        middle ones, as ``np.median`` gives; both are bit for bit theirs.
        """
        err = angular_error_px(estimator.estimate_batch(self.X), self.targets, geom)
        edges, hist_mass = _error_histogram(err)
        grouped = err[self.order]
        per_target = []
        for tgt, lo, hi in zip(self.groups, self.bounds, self.bounds[1:]):
            rows, n = grouped[lo:hi], hi - lo
            mid = np.sort(rows)[(n - 1) // 2:n // 2 + 1]
            per_target.append({"target": list(tgt), "n": n, "mean_deg": float(rows.sum() / n),
                               "median_deg": float(mid[0] if n % 2 else (mid[0] + mid[1]) / 2.0)})
        n_used = len(self.X)
        return AccuracyReport(
            method=getattr(estimator, "name", estimator.__class__.__name__),
            mean_deg=float(err.mean()),
            median_deg=float(np.median(err)),
            std_deg=float(err.std()),
            n_frames=self.n_frames,
            n_excluded=self.n_frames - n_used,
            n_excluded_blink=self.n_excluded_blink,
            n_excluded_move=self.n_excluded_move,
            n_used=n_used,
            hist_edges_deg=edges,
            hist_mass=hist_mass,
            per_target=per_target,
        )


def evaluate_accuracy(log: SessionLog, estimator, geom: DisplayGeometry) -> AccuracyReport:
    """Run the estimator over all non-excluded frames and summarize errors."""
    return _ScoredFrames.of(log).report(estimator, geom)


def trace_rows(log: SessionLog, estimator):
    """Per-frame plot-ready rows: time, target, truth, estimate, excluded."""
    est = np.asarray(estimator.estimate_batch(log.proc), dtype=float)
    excl = excluded_mask(log)
    for i in range(log.n_frames):
        yield {
            "t_us": int(log.t_us[i]),
            "target_x": float(log.target[i, 0]),
            "target_y": float(log.target[i, 1]),
            "gaze_x": float(log.gaze[i, 0]),
            "gaze_y": float(log.gaze[i, 1]),
            "estimate_x": float(est[i, 0]),
            "estimate_y": float(est[i, 1]),
            "excluded": int(excl[i]),
        }


# -- estimator comparison ------------------------------------------------------


def _sigma_by_holdout(calibration: CalibrationSet, config: SessionConfig) -> float:
    """Grid-search the configured SVR's sigma against a seeded held-out slice of the calibration."""
    P = calibration.point_count
    n_val = max(1, int(round(P * HOLDOUT_FRACTION)))
    if P - n_val < 1:
        raise ConfigError("calibration too small to hold out a validation slice")
    order = np.random.default_rng(np.random.SeedSequence([config.seed, 51])).permutation(P)
    val_idx = np.sort(order[:n_val])
    fit_idx = np.sort(order[n_val:])
    fit = CalibrationSet(calibration.means[fit_idx], calibration.targets[fit_idx])
    validation = (calibration.means[val_idx], calibration.targets[val_idx])
    return grid_search_sigma(fit, validation, config.sigma_grid, normalize=config.svr_normalize,
                             rbf_squared=config.rbf_squared)


def compare_estimators(log: SessionLog, calibration: CalibrationSet,
                       config: SessionConfig,
                       all_measures: bool = False) -> dict:
    """Paired accuracy of GPR and sigma-tuned SVR on identical frames."""
    geom = config.geometry()
    gpr = GprModel(calibration, MeasureSpec(kind="minkowski", m=config.minkowski_m),
                   jitter=config.jitter)
    sigma = _sigma_by_holdout(calibration, config)
    svr = SvrModel(calibration, sigma, normalize=config.svr_normalize,
                   rbf_squared=config.rbf_squared)
    models = [gpr, svr]
    if all_measures:
        models += [GprModel(calibration, MeasureSpec(kind=kind), jitter=config.jitter)
                   for kind in ("cosine", "manhattan", "canberra")]
    scored = _ScoredFrames.of(log)
    reports = [scored.report(model, geom) for model in models]
    return {
        "svr_sigma": sigma,
        "sigma_selection": {"method": "holdout", "fraction": HOLDOUT_FRACTION,
                            "grid": list(config.sigma_grid)},
        "reports": [r.to_dict() for r in reports],
        "mean_diff_deg": reports[0].mean_deg - reports[1].mean_deg,
        "gpr_beats_svr": reports[0].mean_deg < reports[1].mean_deg,
    }


# -- parameter sweeps ----------------------------------------------------------


def rank_channels_by_variance(calibration: CalibrationSet) -> list[int]:
    """Channel indices ordered by signal variation across stored targets."""
    var = np.var(calibration.means, axis=0)
    return [int(i) for i in np.argsort(-var, kind="stable")]


def sweep(config: SessionConfig, axis: str, values) -> dict:
    """Angular error as one design variable changes, everything else fixed."""
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    geom = config.geometry()
    layout = config.layout()
    subject = config.subject()
    rows = []
    if axis == "led_count":
        if min(values) < 4:
            raise ConfigError("led_count sweep starts at 4 channels")
        if max(values) > layout.total_channels:
            raise ConfigError("more channels requested than the layout provides")
        log, cal = run_benchmark_session(config)
        ranked = rank_channels_by_variance(cal)
        for v in values:
            idx = sorted(ranked[:int(v)])
            sliced = SessionLog(log.t_us, log.raw[:, idx], log.proc[:, idx], log.events, log.meta)
            rep = evaluate_accuracy(sliced, config.build_estimator(cal.select_channels(idx)), geom)
            rows.append({"value": int(v), "channels": idx, **_sweep_stats(rep)})
    elif axis == "calibration_points":
        log = evaluation_phase(config, subject, layout, config.seed)
        for v in values:
            side = math.isqrt(max(int(v), 0))
            if side * side != int(v):
                raise ConfigError(f"calibration_points value {v} is not a square grid")
            cal = calibration_phase(config.replace(grid_rows=side, grid_cols=side),
                                    subject, layout, config.seed)
            rep = evaluate_accuracy(log, config.build_estimator(cal), geom)
            rows.append({"value": int(v), **_sweep_stats(rep)})
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return {"axis": axis, "rows": rows, "config": config.to_dict(), "seed": config.seed}


def _sweep_stats(rep: AccuracyReport) -> dict:
    return {"mean_deg": rep.mean_deg, "median_deg": rep.median_deg,
            "std_deg": rep.std_deg, "n_used": rep.n_used}


# -- selection-task scenarios ---------------------------------------------------


@dataclass
class TaskSessionResult:
    successes: list[bool]
    tasks: list[dict]
    final_points: int

    @property
    def success_ratio(self) -> float:
        return float(np.mean(self.successes))

    def half_rates(self) -> tuple[float, float]:
        half = len(self.successes) // 2
        return (float(np.mean(self.successes[:half])),
                float(np.mean(self.successes[half:])))


def run_task_session(config: SessionConfig, calibration: CalibrationSet | None,
                     subject: SubjectProfile, seed: int,
                     layout: LedLayout | None = None) -> TaskSessionResult:
    """One session of dwell-to-select tasks with online augmentation.

    A task succeeds when at least ``task_window_threshold`` of the dwell-window
    estimates stay inside the target's disc; a failure feeds the measured
    dwell mean plus the true target back into the calibration. ``layout``
    defaults to the configured one.
    """
    if calibration is None:
        raise ConfigError("task sessions need a starting calibration set")
    geom = config.geometry()
    if layout is None:
        layout = config.layout()
    engine = EyeSimulator(layout, subject, config.sim_config(), derive_seed(seed, 61))
    source = SimulatorDwellSource(engine, config.task_dwell_ms)
    task_rng = np.random.default_rng(np.random.SeedSequence([derive_seed(seed, 62)]))
    model = config.build_estimator(calibration)
    radius_px = config.target_radius_px()
    m = config.grid_margin
    draws = []
    for _ in range(config.task_count):
        n_cand = int(task_rng.integers(config.task_candidates_min, config.task_candidates_max + 1))
        # All candidates are drawn, to keep the stream; the task's target is the first.
        xs = task_rng.uniform(m, geom.width - m, n_cand)
        ys = task_rng.uniform(m, geom.height - m, n_cand)
        draws.append((n_cand, ScreenPoint(float(xs[0]), float(ys[0]))))
    # Reaction + transient are not judged; every task's window comes from one run.
    windows = source.acquire([target for _, target in draws])
    successes: list[bool] = []
    tasks: list[dict] = []
    for i, ((n_cand, target), proc) in enumerate(zip(draws, windows)):
        est = np.asarray(model.estimate_batch(proc), dtype=float)
        dist = np.hypot(est[:, 0] - target.x, est[:, 1] - target.y)
        inside = np.count_nonzero(dist <= radius_px) / dist.size  # the float np.mean gives
        success = inside >= config.task_window_threshold
        if not success:
            # The subject keeps gazing and presses the feedback button; the
            # dwell mean becomes online training data.
            model = model.augmented(proc.mean(axis=0), target)
        successes.append(success)
        tasks.append({
            "index": i,
            "target": [target.x, target.y],
            "candidates": n_cand,
            "inside_fraction": inside,
            "success": bool(success),
        })
    return TaskSessionResult(successes, tasks, model.calibration.point_count)


# Where each scenario's calibration comes from: the calibrating subject's
# seed offset, then the seed labels of the mount it was recorded on and of
# its run. The tasks run on the mount of label 81, so "calibrated" calibrates
# there; "same_user_prior" calibrated the same subject before a re-wear, and
# "cross_user_prior" an entirely different subject.
_PROVENANCE = {
    "calibrated": (0, 81, 82),
    "same_user_prior": (0, 83, 84),
    "cross_user_prior": (10_000, 85, 86),
}
SCENARIOS = tuple(_PROVENANCE)


def _remount_shift(config: SessionConfig, seed: int) -> LedLayout:
    """The configured layout re-worn with a seeded rigid headset shift."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 71]))
    shift = rng.normal(0.0, config.remount_shift_std_mm, 2)
    return replace(config.layout(), shift_mm=tuple(shift.tolist()))


def run_scenario_session(config: SessionConfig, scenario: str, seed: int) -> dict:
    """One subject-session under the given calibration-provenance scenario."""
    if scenario not in _PROVENANCE:
        raise ConfigError(f"unknown scenario {scenario!r}")
    offset, mount_label, run_label = _PROVENANCE[scenario]
    cal = calibration_phase(config, config.subject(config.subject_seed + seed + offset),
                            _remount_shift(config, derive_seed(config.seed, seed, mount_label)),
                            derive_seed(config.seed, seed, run_label))
    result = run_task_session(config, cal, config.subject(config.subject_seed + seed),
                              derive_seed(config.seed, seed, 87),
                              layout=_remount_shift(config, derive_seed(config.seed, seed, 81)))
    first, second = result.half_rates()
    return {
        "scenario": scenario,
        "seed": seed,
        "success_ratio": result.success_ratio,
        "first_half": first,
        "second_half": second,
        "final_points": result.final_points,
    }


def run_scenarios(config: SessionConfig, scenarios=SCENARIOS,
                  n_seeds: int = 20) -> dict:
    """Success-ratio distributions over seeded sessions per scenario."""
    if n_seeds < 1:
        raise ConfigError("need at least one seed")
    rows = []
    summary = {}
    for scenario in scenarios:
        own = [run_scenario_session(config, scenario, s) for s in range(n_seeds)]
        ratios = [r["success_ratio"] for r in own]
        summary[scenario] = {
            "median": float(np.median(ratios)),
            "mean": float(np.mean(ratios)),
            "q1": float(np.percentile(ratios, 25)),
            "q3": float(np.percentile(ratios, 75)),
            "first_half_mean": float(np.mean([r["first_half"] for r in own])),
            "second_half_mean": float(np.mean([r["second_half"] for r in own])),
        }
        rows += own
    return {"rows": rows, "summary": summary,
            "config": config.to_dict(), "seed": config.seed}
