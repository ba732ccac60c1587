"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload chat-long --seeds 0-9

runs the workload once per seed, one process at a time, and prints for each
end-to-end metric its median and the distance between its first and third
quartile as a share of the median, next to the metric's bound from
BENCHMARK.json. Raw results, with each run's window rates and wall time,
are appended to perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from stats import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        began = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.perf_counter() - began
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(HERE, "out", f"result-{args.workload}-trace0.json")) as f:
            windows = json.load(f)["window_rates"]
        with open(os.path.join(HERE, "out", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, "seconds_taken": took,
                                "window_rates": windows, **line}) + "\n")
        print(f"seed {seed} ({took:.1f} s): correct={line['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        for k, v in line["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if abs(spread) < bound / 3 else "  WIDE")
        print(f"{name:<16} median {statistics.median(vals):12.4f}  spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
