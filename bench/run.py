"""Benchmark of the ledgaze pipeline: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload session|scenarios|stream --seed N \
        --seconds S --trace 0|1 [--record FILE] [--spans FILE]

The program is imported from ``src/`` next to this directory, never from an
installed copy. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Every pass checks its outputs; the run fails when a check fails or when the
output digests of its passes differ. Human-readable lines come first; the
last line of standard output is the JSON result.

numpy is imported inside functions so that it loads only after the package
import has been timed.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools must be pinned before numpy loads.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "work"

# Set-up is repeated this many times in an untraced run; setup_s is the median.
SETUP_REPEATS = 3
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_latency_p50_us", "us"),
    ("frame_latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
)

# Every reported time is scaled to a host on which the reference work below
# takes this long (a quiet 2-vCPU Intel Xeon VM). On a shared VM of that kind
# the speed drifted by up to 2x over seconds and 1.7x over minutes, for all
# code alike, and unscaled times spread by more than any bound could allow.
REFERENCE_NOMINAL_S = 0.0025

_CHILD_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ledgaze; print(time.perf_counter() - t)"
)


def child_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _CHILD_IMPORT, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class HostSpeed:
    """Times a fixed piece of work that does not touch ledgaze.

    The work mixes the three kinds the workloads do: interpreted Python,
    small-array numpy calls and larger array operations. ``factor`` is the
    mean sample over the nominal time; a time divided by it reads as on the
    nominal host.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._vec = np.linspace(0.0, 1.0, 50_000)
        self._mat = np.linspace(0.0, 1.0, 1600).reshape(40, 40)
        self.samples: list[float] = []

    def sample(self) -> None:
        np = self._np
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        v = np.ones(12)
        for _ in range(800):
            v = v * 0.5 + 0.1
        for _ in range(4):
            np.exp(-0.5 * self._vec).sum()
            self._mat @ self._mat
        self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_NOMINAL_S


def frame_latency_us(passes, q: float) -> float:
    """Frame latency in microseconds at quantile ``q``.

    On ``stream`` this is the quantile of the per-frame samples, taken per
    pass and averaged over the passes. ``session`` and ``scenarios`` have no
    per-frame path (they estimate in batches), so every quantile reads the
    mean time per simulated frame, ``1e6 / frames_per_s``.
    """
    import numpy as np

    if passes[0].latency_us is None:
        return 1e6 * statistics.fmean(r.wall_s for r in passes) / passes[0].frames
    return statistics.fmean(float(np.quantile(r.latency_us, q)) for r in passes)


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_record() -> dict:
    lines = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "ledgaze").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[f"{path.stem}.lines"] = data.count(b"\n")
    return {"src.lines": sum(lines.values()), **lines, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in PINNED_THREADS},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("session", "scenarios", "stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="also write the full result record to this JSON file")
    p.add_argument("--spans", help="traced runs: write every span to this JSON-lines file")
    args = p.parse_args(argv)

    if not (SRC / "ledgaze" / "__init__.py").is_file():
        print(f"error: no ledgaze sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ledgaze
    import_s = perf_counter() - t0
    if SRC.resolve() not in Path(ledgaze.__file__).resolve().parents:
        print(f"error: ledgaze imported from {ledgaze.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from ledgaze.core import LedGazeError

    import tracing
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](WORKDIR)
    recorders = tracing.Patches()
    wl.install(recorders)
    tracer = tracing.Tracer() if args.trace else None
    problems: list[str] = []
    results: list = []          # every pass that completed
    untraced: list = []
    traced: list = []
    attempted = failed = 0

    speed = HostSpeed()

    def one_pass(with_trace: bool, timed: bool = True):
        nonlocal attempted, failed
        if timed:
            speed.sample()
        try:
            if with_trace:
                try:
                    tracer.install()
                    res = tracer.span("bench.pass", wl.run_pass)
                finally:
                    tracer.uninstall()
            else:
                res = wl.run_pass()
        except LedGazeError as exc:
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
            problems.append(f"pass raised {exc!r}")
            return None
        attempted += res.attempted
        failed += res.failed
        problems.extend(p for p in res.problems if p not in problems)
        results.append(res)
        (traced if with_trace else untraced).append(res)
        if timed:
            speed.sample()
        return res

    try:
        setup_counts: dict = {}
        if tracer is None:
            setup_speed = HostSpeed()
            setups = []
            for rep in range(SETUP_REPEATS):
                setup_speed.sample()
                imported = import_s if rep == 0 else child_import_s()
                t0 = perf_counter()
                wl.setup(args.seed)
                setups.append(imported + perf_counter() - t0)
                setup_speed.sample()
            setup_s = statistics.median(setups) / setup_speed.factor()
        else:
            try:
                tracer.install()
                tracer.span("bench.setup", wl.setup, args.seed)
            finally:
                tracer.uninstall()
            setup_counts = dict(tracer.counts)

        one_pass(False, timed=False)  # warm-up: lazy imports and caches settle; checked
        deadline = perf_counter() + args.seconds
        while True:
            done = len(traced) if tracer else len(untraced) - 1
            if perf_counter() >= deadline and done >= MIN_PASSES:
                break
            if one_pass(False) is None:
                break
            if tracer is not None and one_pass(True) is None:
                break
    finally:
        recorders.restore()
        wl.cleanup()

    digests = {r.digest for r in results}
    if len(digests) > 1:
        problems.append(f"pass outputs differ: {len(digests)} distinct digests")
    ok = bool(results) and not problems and failed == 0
    timed = untraced[1:]  # the first untraced pass is the warm-up
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": {"warmup": 1, "untraced": len(timed), "traced": len(traced)},
        "digest": results[0].digest if results else None,
        "digest_parts": results[0].parts if results else {},
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": problems,
        "env": environment(),
        "source": source_record(),
    }
    if results:
        first = results[0]
        record["outputs"] = {
            "frames_per_pass": first.frames,
            "mean_error_deg": first.mean_error_deg,
            "success_ratio": first.success_ratio,
        }

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if tracer is None and timed:
        # Per-pass figures averaged over the run's passes. This host's speed
        # drifts by up to 2x from one second to the next; a mean over passes
        # follows the share of slow time smoothly, where a median over passes
        # or over pooled samples jumps between the two speeds.
        f = speed.factor()
        wall = statistics.fmean(r.wall_s for r in timed) / f
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "frames_per_s": timed[0].frames / wall,
            "frame_latency_p50_us": frame_latency_us(timed, 0.50) / f,
            "frame_latency_p90_us": frame_latency_us(timed, 0.90) / f,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["frame_latency_p99_us"] = frame_latency_us(timed, 0.99) / f
        units = dict(END_TO_END)
        record["host_speed"] = {"passes": f, "setup": setup_speed.factor(),
                                "reference_nominal_s": REFERENCE_NOMINAL_S}
        if timed[0].latency_us is not None:
            record["latency_samples"] = sum(len(r.latency_us) for r in timed)
        record["setup_import_s"] = import_s
    elif tracer is not None and traced:
        f = speed.factor()
        metrics = tracing.layer_metrics(tracer, setup_counts, len(traced))
        metrics["trace.pass_s"] = statistics.fmean(r.wall_s for r in traced)
        # Each traced pass runs right after an untraced one, at much the same host speed.
        metrics["trace.overhead_ratio"] = statistics.median(
            t.wall_s / u.wall_s for u, t in zip(timed, traced))
        metrics["evaluate.mean_error_deg"] = traced[0].mean_error_deg
        metrics["evaluate.success_ratio"] = traced[0].success_ratio
        metrics["src.lines"] = record["source"]["src.lines"]
        metrics["bench.frame_latency_p99_us"] = frame_latency_us(timed, 0.99)
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        metrics = {k: v / f if units[k] in ("s", "us") else v for k, v in metrics.items()}
        record["host_speed"] = {"passes": f, "reference_nominal_s": REFERENCE_NOMINAL_S}
        # Every layer span sits under the set-up or a pass span, so the layer
        # self times sum to at most the traced wall time by construction.
        record["layers_self_s"] = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        record["traced_wall_s"] = metrics["trace.setup_s"] + metrics["trace.pass_s"]
        idle = [layer for layer in wl.layers if not metrics[f"{layer}.self_s"] > 0.0]
        if idle:
            problems.append(f"no traced time in layers the workload calls: {', '.join(idle)}")
            ok = record["correct"] = False
        if args.spans:
            tracer.dump(args.spans)
    declared = ROOT / "BENCHMARK.json"
    if metrics and declared.is_file():
        spec = json.loads(declared.read_text())["per_layer" if tracer else "end_to_end"]
        if {m["name"]: m["unit"] for m in spec} != units:
            problems.append("metrics or units differ from those BENCHMARK.json declares")
            ok = record["correct"] = False
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    for k, v in metrics.items():
        print(f"{k:40s} {v:16.6g} {units[k]}")
    print(f"{'failed_ratio':40s} {record['failed_ratio']:16.6g} ({failed} of {attempted})")
    for line in problems:
        print(f"problem: {line}")
    print("record: " + json.dumps(record, sort_keys=True))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
