"""Independent brute-force oracles.

The distance oracles evaluate each of the five measures one pair at a time
in plain Python; ``pairwise_oracle`` evaluates them over whole batches by
reducing an (n, P, M) broadcast difference tensor, the reference for the
``cdist`` path at benchmark shapes. The regression oracle rebuilds the whole
estimate path in plain Python: scalar weighted-norm distances, dense matrix
assembly, Gaussian elimination with partial pivoting, and the final weighted
target sums. None of it shares code with the production path it checks.

The simulator oracles replay the optics and the exposure rule one frame,
channel and illuminator at a time. Three primitives there are numpy's,
called on single values: the tangent, the 3-term dot product and the power.
numpy's vectorized kernels for them may fuse multiply-adds or use their own
routines, so the math module can differ in the last bit, and these oracles
are compared for exact equality.

``lfilter_reference`` is the IIR block filter as ``scipy.signal.lfilter``,
the path that the one ``dgtsv`` solve in ``IirFilter.filter_block`` replaces.

``StepwiseSimulator`` is the per-event session path that
``EyeSimulator.run(events)`` replaces: one ``move_target`` and one
``run(duration)`` span per script event, with the reaction-time switch
resolved inside each span. It keeps its own per-frame gaze and target,
where the engine derives both from its events.

``write_session_log_reference`` and ``read_session_log_reference`` are the
session-log codec written plainly: one ``json.dumps`` per record of dicts
built by hand, with per-element conversion of the frame columns, a
recursive ``_plain`` for meta and events, and a digest record built with
``sealed``. The reader rebuilds each frame's processed
vector with ``chain_reference``, the signal chain one frame and channel at
a time, and its gaze and target with ``gaze_target_reference``, which
replays every target move at every frame; it returns the columns without
building a ``SessionLog``, which would derive gaze and target itself.
"""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
from scipy.signal import lfilter

from ledgaze.core import ADC_MAX, CalibrationSet, ConfigError, DegenerateInputError, DimensionError
from ledgaze.session import LOG_VERSION, _check_version
from ledgaze.sigproc import SATURATION_HIGH, SATURATION_LOW


def minkowski_scalar(a, b, m=2.0, w=None):
    if w is None:
        w = [1.0] * len(a)
    total = 0.0
    for ai, bi, wi in zip(a, b, w):
        total += wi * abs(ai - bi) ** m
    return total ** (1.0 / m)


def rbf_scalar(a, b, sigma, squared=False):
    d = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
    if squared:
        d = d * d
    return math.exp(-d / (2.0 * sigma * sigma))


def cosine_scalar(a, b):
    dot = sum(ai * bi for ai, bi in zip(a, b))
    na = math.sqrt(sum(ai * ai for ai in a))
    nb = math.sqrt(sum(bi * bi for bi in b))
    return 1.0 - dot / (na * nb)


def manhattan_scalar(a, b):
    return sum(abs(ai - bi) for ai, bi in zip(a, b))


def canberra_scalar(a, b):
    total = 0.0
    for ai, bi in zip(a, b):
        den = abs(ai) + abs(bi)
        if den != 0.0:
            total += abs(ai - bi) / den
    return total


def pairwise_oracle(spec, A, B):
    """Every measure between the rows of A (n, M) and B (P, M) by broadcasting.

    Builds the (n, P, M) coordinate-difference tensor and reduces it.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionError(
            f"channel counts differ: {A.shape[1]} vs {B.shape[1]}"
        )
    diff = np.abs(A[:, None, :] - B[None, :, :])
    if spec.kind == "minkowski":
        w = np.ones(A.shape[1]) if spec.weights is None else np.asarray(spec.weights, dtype=float)
        if w.shape[0] != A.shape[1]:
            raise DimensionError("weights must match channel count")
        return np.sum(w * diff**spec.m, axis=2) ** (1.0 / spec.m)
    if spec.kind == "rbf":
        d = np.sqrt(np.sum(diff * diff, axis=2))
        if spec.rbf_squared:
            d = d * d
        return np.exp(-d / (2.0 * spec.sigma * spec.sigma))
    if spec.kind == "cosine":
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        if np.any(na == 0) or np.any(nb == 0):
            raise DegenerateInputError("cosine distance is undefined for zero vectors")
        return 1.0 - (A @ B.T) / np.outer(na, nb)
    if spec.kind == "manhattan":
        return np.sum(diff, axis=2)
    den = np.abs(A)[:, None, :] + np.abs(B)[None, :, :]
    terms = np.divide(diff, den, out=np.zeros_like(diff), where=den != 0)
    return np.sum(terms, axis=2)


def gauss_solve(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    n = len(b)
    M = [list(map(float, row)) + [float(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[pivot_row][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            M[col], M[pivot_row] = M[pivot_row], M[col]
        piv = M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] / piv
            if factor != 0.0:
                for c in range(col, n + 1):
                    M[r][c] -= factor * M[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = M[r][n]
        for c in range(r + 1, n):
            s -= M[r][c] * x[c]
        x[r] = s / M[r][r]
    return x


def gpr_oracle(means, targets, frame, eps, m=2.0, w=None):
    """Estimate (ex, ey) via the full brute-force route at jitter eps."""
    P = len(means)
    C = [[minkowski_scalar(means[i], means[j], m, w) for j in range(P)]
         for i in range(P)]
    for i in range(P):
        C[i][i] += eps
    k = [minkowski_scalar(frame, means[p], m, w) for p in range(P)]
    z = gauss_solve(C, k)
    ex = sum(zi * t[0] for zi, t in zip(z, targets))
    ey = sum(zi * t[1] for zi, t in zip(z, targets))
    return ex, ey


def iir_reference(alpha, xs, y0=None):
    """Sequential reference filter: y_t = a x_t + (1-a) y_{t-1}."""
    out = []
    y = y0
    for x in xs:
        y = x if y is None else alpha * x + (1.0 - alpha) * y
        out.append(y)
    return out


def lfilter_reference(alpha, X, state=None):
    """The IIR filter over an (n, M) block as ``scipy.signal.lfilter``.

    A fresh filter (``state`` None) passes its first row through and filters
    the rest from it; a warm one filters every row from ``state``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    b, a = [alpha], [1.0, -(1.0 - alpha)]
    if state is None:
        if len(X) == 1:
            return X.copy()
        rest, _ = lfilter(b, a, X[1:], axis=0, zi=((1.0 - alpha) * X[0])[None, :])
        return np.vstack([X[:1], rest])
    out, _ = lfilter(b, a, X, axis=0, zi=((1.0 - alpha) * np.asarray(state))[None, :])
    return out


def mean_median_std(values):
    """Plain-Python statistics used to cross-check report arithmetic."""
    n = len(values)
    mean = sum(values) / n
    ordered = sorted(values)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, median, math.sqrt(var)


def _dot3(a, b):
    return float(np.einsum("k,k->", np.array(a), np.array(b)))


def _unit(x):
    n = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return [xi / n for xi in x]


def clean_signal_oracle(layout, subject, geom, optics, gaze_xy):
    """Noise-free channel responses, one frame, step and illuminator at a time.

    Per eye, the gaze direction sets the corneal pole; the ray from each
    illuminating LED is mirrored about the corneal normal and scored against
    the sensing LED direction with a cosine lobe; lobes add up in ascending
    illuminator order. Returns a list of rows, one value per channel.
    """
    dpp = math.radians(geom.degrees_per_pixel)
    steps = layout.steps
    rows = []
    for gx, gy in gaze_xy:
        row = []
        for eye in range(layout.eyes):
            mx = 1.0 if eye == 0 else -1.0
            tx = float(np.tan((gx - geom.width / 2.0) * dpp)) * mx
            ty = float(np.tan((gy - geom.height / 2.0) * dpp))
            d = _unit([tx, ty, 1.0])
            cx, cy = subject.eye_center(eye)
            cornea = [d[0] * subject.eye_radius_mm + cx, d[1] * subject.eye_radius_mm + cy,
                      d[2] * subject.eye_radius_mm]
            to_led = [_unit([p[k] - cornea[k] for k in range(3)])
                      for p in layout.led_positions(eye).tolist()]
            for step, (sensing, illum) in enumerate(steps):
                acc = 0.0
                for j in sorted(illum):
                    vn = _dot3(to_led[j], d)
                    r = [2.0 * vn * d[k] - to_led[j][k] for k in range(3)]
                    cos_beta = min(max(_dot3(r, to_led[sensing]), -1.0), 1.0)
                    acc += float(np.power((1.0 + cos_beta) / 2.0, optics.lobe_sharpness))
                ch = eye * layout.channels_per_eye + step
                row.append(optics.signal_scale * subject.corneal_gain[ch] * acc)
        rows.append(row)
    return rows


def exposure_replay(clean, noise, blend, exp, emin, emax, ref, eyelid):
    """Exposed readings frame by frame, adapting after every frame.

    Each channel's reading is its clean signal scaled by exposure / ref,
    blended toward the eyelid level during a blink, plus noise, clamped to
    [0, 1] and quantized; then a reading at or above SATURATION_HIGH halves
    that channel's exposure and one at or below SATURATION_LOW doubles it,
    clamped to [emin, emax]. Returns (raw, scales, exp, changes) as lists,
    ``changes`` counting each channel's exposure changes.
    """
    exp = [float(e) for e in exp]
    changes = [0] * len(exp)
    raw, scales = [], []
    for c_row, n_row, b in zip(clean, noise, blend):
        r_row, s_row = [], []
        for ch, (c, z) in enumerate(zip(c_row, n_row)):
            scale = exp[ch] / ref
            pre = c * scale
            if b > 0:
                pre = (1.0 - b) * pre + b * (eyelid * scale)
            r = round(min(max(pre + z, 0.0), 1.0) * ADC_MAX)
            r_row.append(r)
            s_row.append(scale)
            new = _adapted(exp[ch], r, emin, emax)
            changes[ch] += new != exp[ch]
            exp[ch] = new
        raw.append(r_row)
        scales.append(s_row)
    return raw, scales, exp, changes


def _adapted(exp, reading, emin, emax):
    """One channel's exposure after a reading: halved if saturated, doubled if starved, clamped."""
    if reading >= SATURATION_HIGH:
        return min(max(exp / 2.0, emin), emax)
    if reading <= SATURATION_LOW:
        return min(max(exp * 2.0, emin), emax)
    return exp


def chain_reference(raw, exp_init, emin, emax, ref, alpha):
    """Processed vectors of raw counts, one frame and channel at a time.

    Every channel starts at ``exp_init``; each reading is divided by ADC_MAX
    and by its exposure / ``ref``, the exposure then adapts to the reading,
    and the compensated values run through the IIR filter, whose first frame
    passes through. Returns a list of rows.
    """
    exp = [float(exp_init)] * (len(raw[0]) if raw else 0)
    out, y = [], None
    for row in raw:
        x = [r / ADC_MAX / (e / ref) for r, e in zip(row, exp)]
        exp = [_adapted(e, r, emin, emax) for e, r in zip(exp, row)]
        y = x if y is None else [alpha * xi + (1.0 - alpha) * yi for xi, yi in zip(x, y)]
        out.append(y)
    return out


class StepwiseSimulator:
    """Drives an ``EyeSimulator``'s state one script event at a time.

    Uses the engine's generators, exposures, filter and frame buffer, so a
    fresh engine driven here and an identical one driven by ``run(events)``
    must produce the same bytes. The eye's position and each frame's gaze
    and target are kept here, apart from the engine: ``columns()``.
    """

    def __init__(self, sim):
        self.sim = sim
        self.pending = None  # {"switch_us", "event", "to"}
        self.eye = sim.start_target
        self.gaze, self.target = [], []  # one (n, 2) block per run span

    def columns(self):
        """Every simulated frame's gaze and target, (N, 2) each."""
        return tuple(np.concatenate(blocks) if blocks else np.empty((0, 2))
                     for blocks in (self.gaze, self.target))

    @property
    def t_us(self):
        return self.sim.frame_index * self.sim.cycle_us

    def move_target(self, target):
        sim = self.sim
        if target == sim.stim_target:
            return
        if self.pending is not None:
            self.pending["event"]["t_settle_us"] = self.t_us
            self.pending = None
        srt_us = max(0.0, sim._srt_rng.normal(sim.subject.srt_mean_ms * 1000.0,
                                              sim.subject.srt_std_ms * 1000.0))
        event = {
            "kind": "target_move",
            "t_move_us": self.t_us,
            "t_settle_us": None,
            "from": [sim.stim_target.x, sim.stim_target.y],
            "to": [target.x, target.y],
        }
        sim.events.append(event)
        self.pending = {"switch_us": self.t_us + srt_us, "event": event, "to": target}
        sim.stim_target = target

    def run(self, duration_us, blink=False):
        sim = self.sim
        n = int(round(duration_us / sim.cycle_us))
        if n <= 0:
            return
        t = (sim.frame_index + np.arange(n, dtype=np.int64)) * sim.cycle_us
        t0, t1 = self.t_us, self.t_us + n * sim.cycle_us
        if blink:
            sim.events.append({"kind": "blink", "t0_us": t0, "t1_us": t1})
            ramp_us = sim.config.optics.blink_ramp_ms * 1000.0
            blend = np.clip(np.minimum((t - t0) / ramp_us, (t1 - t) / ramp_us), 0.0, 1.0)
        else:
            blend = np.zeros(n)
        gaze_xy = np.empty((n, 2))
        gaze_xy[:] = [self.eye.x, self.eye.y]
        if self.pending is not None:
            after = t >= self.pending["switch_us"]
            if after.any():
                to = self.pending["to"]
                gaze_xy[after] = [to.x, to.y]
                self.pending["event"]["t_settle_us"] = int(t[after][0])
                self.pending = None
                self.eye = to
        raw, scales = sim._sense_block(gaze_xy, blend)
        proc = sim.iir.filter_block(raw / ADC_MAX / scales)
        sim._blocks.append((t, raw, proc))
        sim.frame_index += n
        self.gaze.append(gaze_xy)
        self.target.append(np.tile([sim.stim_target.x, sim.stim_target.y], (n, 1)))

    def run_event(self, ev):
        if ev.kind == "saccade":
            self.move_target(ev.target)
        elif ev.kind == "fixation":
            self.move_target(ev.target)
            self.run(ev.duration_us)
        else:
            self.run(ev.duration_us, blink=True)

    def acquire(self, target, settle_us, dwell_us):
        """Sampled frames of one dwell: settle, discard, then sample."""
        self.move_target(target)
        self.run(settle_us)
        self.sim.take_frames()
        self.run(dwell_us)
        return self.sim.take_frames()[2]


def write_session_log_reference(log, path, calibration=None):
    """One JSON record per line: meta, calibration, events, the frames, then the digest."""
    meta = {"type": "meta", "log_version": LOG_VERSION}
    meta.update(_plain(log.meta))
    lines = [json.dumps(meta, sort_keys=True) + "\n"]
    if calibration is not None:
        lines.append(json.dumps({"type": "calibration", **calibration.to_dict()},
                                sort_keys=True) + "\n")
    for ev in log.events:
        lines.append(json.dumps({"type": "event", **_plain(ev)}, sort_keys=True) + "\n")
    frames = {"type": "frames", "t_us": [int(t) for t in log.t_us],
              "raw": [[int(v) for v in row] for row in log.raw]}
    lines.append(json.dumps(frames, sort_keys=True) + "\n")
    with open(path, "w") as fh:
        fh.write(sealed("".join(lines)))


def sealed(body: str) -> str:
    """``body``, the lines of a session log before its digest record, and that record."""
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + json.dumps({"type": "digest", "sha256": digest}, sort_keys=True) + "\n"


def read_session_log_reference(path):
    """Inverse of write_session_log; returns (log columns, calibration-or-None).

    The log's columns, events and meta are attributes of a namespace. The
    processed vectors come from ``chain_reference`` with the settings in the
    meta record, the gaze and target from ``gaze_target_reference``. A log
    whose last line is not the digest of the lines before it raises
    ConfigError.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if sealed("".join(lines[:-1])) != "".join(lines):
        raise ConfigError(f"session log {path} does not match its digest")
    meta: dict = {}
    events: list[dict] = []
    cal = None
    t, raw = [], []
    for line in lines[:-1]:
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec.pop("type")
        if kind == "meta":
            _check_version("log_version", rec.pop("log_version", LOG_VERSION), LOG_VERSION)
            meta = rec
        elif kind == "calibration":
            cal = CalibrationSet.from_dict(rec)
        elif kind == "event":
            events.append(rec)
        elif kind == "frames":
            t, raw = rec["t_us"], rec["raw"]
    if not t:
        raise ConfigError(f"no frames found in session log {path}")
    proc = chain_reference(raw, meta["exposure_init_us"], meta["exposure_min_us"],
                           meta["exposure_max_us"], meta["optics"]["reference_exposure_us"],
                           meta["iir_alpha"])
    gaze, target = gaze_target_reference(t, events, meta["start_target"])
    log = SimpleNamespace(
        t_us=np.asarray(t, dtype=np.int64), raw=np.asarray(raw, dtype=np.int64),
        proc=np.asarray(proc, dtype=float), gaze=np.asarray(gaze, dtype=float),
        target=np.asarray(target, dtype=float), events=events, meta=meta,
    )
    return log, cal


def gaze_target_reference(t_us, events, start):
    """Each frame's gaze and target, replaying every target_move event at every frame.

    The target is the ``to`` of the last move whose t_move_us is at or before
    the frame, the gaze that of the last such move by t_settle_us, skipping a
    move whose t_settle_us is the next move's t_move_us: that move was
    superseded before the eye went to its target. Both start at ``start``.
    """
    moves = [ev for ev in events if ev["kind"] == "target_move"]
    gaze, target = [], []
    for t in t_us:
        eye = tgt = start
        for i, ev in enumerate(moves):
            settle = ev["t_settle_us"]
            superseded = i + 1 < len(moves) and settle == moves[i + 1]["t_move_us"]
            if ev["t_move_us"] <= t:
                tgt = ev["to"]
            if settle is not None and not superseded and settle <= t:
                eye = ev["to"]
        gaze.append([float(eye[0]), float(eye[1])])
        target.append([float(tgt[0]), float(tgt[1])])
    return gaze, target


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj
