"""Write one point of the bench trajectory, ``BENCH_<n>.json``.

Runs ``run.py`` on every workload, untraced and traced, for each seed given,
and gathers the full result records (metrics, digests, environment, source
size) into one file. Each run measures for ``run_seconds`` of BENCHMARK.json:

    python3 bench/collect.py --out bench/results/BENCH_1.json \
        --seeds 1 --held-out 9001

Seeds after ``--held-out`` are marked as held out: they were not used while
the benchmark or the change being measured was written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("session", "scenarios", "stream")
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_one(workload: str, seed: int, trace: int) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", dir=HERE.parent / ".bench_build") as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(RUN_SECONDS), "--trace", str(trace), "--record", tmp.name],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        return json.loads(Path(tmp.name).read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--held-out", default="", help="comma-separated held-out seeds")
    args = p.parse_args(argv)

    (HERE.parent / ".bench_build").mkdir(exist_ok=True)
    seeds = [(int(s), False) for s in args.seeds.split(",") if s]
    seeds += [(int(s), True) for s in args.held_out.split(",") if s]
    runs = []
    for seed, held_out in seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                rec = run_one(workload, seed, trace)
                rec["held_out"] = held_out
                runs.append(rec)
                print(f"{workload:9s} seed {seed:5d} trace {trace} correct {rec['correct']} "
                      f"digest {rec['digest'][:12]}", flush=True)
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
