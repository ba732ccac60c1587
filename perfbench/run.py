"""roletune benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train-midi --seed 0 --seconds 40 --trace 0

runs one workload with tracing off and prints its end-to-end metrics. With
--trace 1 the same workload runs untraced and then traced, and the run
prints the per-layer metrics derived from the spans, plus the tracing
overhead. The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}. Without --workload (or with
--workload all) every workload runs, each in its own process, traced and
untraced, and a table of all metrics is printed.

The program is imported from src/ of the checkout this directory sits in.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("train-midi", "train-concat", "eval-decode", "chat-long")
SETUPS = 5                 # set-up repeats per run; setup_s reports their median
UNTRACED_SHARE = 0.4       # share of a traced run spent untraced, for the overhead
SUSTAINED_Q = 0.1          # the sustained rate is this quantile of the window rates

# end-to-end metric -> the name it is printed under for a training workload,
# and for a decode workload
DISPLAY_NAMES = {
    "setup_s": ("setup_s", "setup_s"),
    "tokens_per_s": ("train_tokens_per_s", "decode_tokens_per_s"),
    "sustained_tokens_per_s": ("sustained_train_tokens_per_s", "sustained_decode_tokens_per_s"),
    "op_ms_p50": ("train_step_ms_p50", "reply_ms_p50"),
    "op_ms_tail": ("train_step_ms_p90", "reply_ms_p95"),
    "agent_loss": ("final_agent_loss", "agent_loss"),
    "peak_rss_mb": ("peak_rss_mb", "peak_rss_mb"),
}


def declared_units(kind: str) -> dict:
    """Metric name -> unit, from BENCHMARK.json: kind is "end_to_end" or
    "per_layer"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import roletune from src/ of this checkout, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "roletune", "__init__.py")):
        fail(f"no roletune sources under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import roletune

    if os.path.dirname(os.path.dirname(os.path.abspath(roletune.__file__))) != src:
        fail(f"imported roletune from {roletune.__file__}, not from {src}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself;
    None when no OpenBLAS is loaded or it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "blas_pinned": threads == 1,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def run_phase(workload, state, seconds, q, min_cycles, tracer=None):
    """Run whole cycles until `seconds` have passed (rounding to the nearest
    cycle), at least min_cycles and enough operations for the q-percentile.
    Returns the op log, cycle results, their end times and the wall time."""
    from stats import min_samples
    from tracing import Patch, install
    from workloads import OpLog

    log = OpLog(tracer)
    cycles, cycle_ends, errors = [], [], []
    min_ops = min_samples(q)
    snapshots = {}
    with Patch() as patch:
        if tracer is not None:
            install(patch, tracer)
            tracer.request = 0
            tracer.shapes.clear()
            snapshots["start"] = dict(tracer.counters)
        log.install(patch, workload.kind)
        start = time.perf_counter()
        while True:
            try:
                cycles.append(workload.cycle(state, log, len(cycles)))
            except Exception as e:  # a failed operation is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                errors.append(f"{type(e).__name__}: {e}")
                cycles.append(None)
            cycle_ends.append(time.perf_counter())
            if tracer is not None:
                tracer.compact()
            elapsed = time.perf_counter() - start
            if tracer is not None and "cycle" not in snapshots and cycles[-1] is not None:
                snapshots["cycle"] = dict(tracer.counters)
                snapshots["cycle_ops"] = len(log.durations)
                snapshots["shapes"] = {k: dict(v) for k, v in tracer.shapes.items()}
            enough = (len(cycles) >= min_cycles and len(log.durations) >= min_ops
                      and elapsed + 0.5 * elapsed / len(cycles) >= seconds)
            if enough or elapsed > seconds + 60:
                break
        wall = time.perf_counter() - start
    if tracer is not None:
        snapshots["end"] = dict(tracer.counters)
    return {"log": log, "cycles": cycles, "cycle_ends": cycle_ends, "start": start,
            "errors": errors, "wall": wall,
            "snapshots": snapshots, "min_ops": min_ops}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import workloads
    from stats import percentile, samples_beyond
    from tracing import Patch, Tracer, install, layer_metrics

    import_s = time.perf_counter() - PROCESS_START
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(name, seed)
    if not env["blas_pinned"]:
        print(f"perfbench: warning: BLAS threads = {env['blas_threads']}, not pinned to 1",
              file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))

    workload = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with Patch() as patch:
            if tracer is not None:
                install(patch, tracer)
            state = workload.setup(seed, OUT_DIR)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + sorted(setup_times)[SETUPS // 2]

    result = {"workload": name, "seed": seed, "environment": env}
    if trace:
        tracer.label_model(state["model"])
        # only medians are compared here and repeats are checked untraced
        untraced = run_phase(workload, state, seconds * UNTRACED_SHARE, 0.5, 1)
        phase = run_phase(workload, state, seconds * (1 - UNTRACED_SHARE), 0.5, 1, tracer)
    else:
        phase = run_phase(workload, state, seconds, workload.tail_q, workload.min_cycles)
    rss = peak_rss_mb()

    log, cycles = phase["log"], phase["cycles"]
    failures = [f"cycle raised {e}" for e in phase["errors"]]
    failures += workload.checks(state, cycles, log)
    n_ops = len(log.durations)
    attempted = n_ops + len(phase["errors"])
    failed = log.failed + len(failures)
    ms = [d * 1e3 for d in log.durations]
    rates = workload.rates(phase)
    if n_ops < phase["min_ops"]:
        failures.append(f"only {n_ops} operations, fewer than the {phase['min_ops']} "
                        "its percentiles need")
        failed += 1

    e2e = {
        "setup_s": setup_s,
        "tokens_per_s": workload.work_tokens(cycles, log) / phase["wall"],
        "sustained_tokens_per_s": percentile(rates, SUSTAINED_Q) if rates else float("nan"),
        "op_ms_p50": percentile(ms, 0.5) if ms else float("nan"),
        "op_ms_tail": percentile(ms, workload.tail_q) if ms else float("nan"),
        "agent_loss": workload.agent_loss(state, cycles) if any(cycles) else float("nan"),
        "peak_rss_mb": rss,
    }
    e2e_units = {"op_ms_p50": "ms", "tokens_per_s": "1/s", **declared_units("end_to_end")}
    col = 0 if workload.kind == "train" else 1
    named = {DISPLAY_NAMES[k][col]: (v, e2e_units[k]) for k, v in e2e.items()}
    named["ops_failed_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    if workload.kind == "decode":
        named["prefill_tokens_per_s"] = (log.prefill_tokens / log.prefill_s if log.prefill_s else 0.0,
                                         "1/s")
    result.update({
        "operations": n_ops, "cycles": len(cycles), "wall_s": phase["wall"],
        "window_rates": rates,
        "samples_beyond_tail": samples_beyond(n_ops, workload.tail_q),
        "setup_repeats_s": setup_times, "import_s": import_s,
        "end_to_end": named, "failures": failures,
        "digest": next((c.get("digest") for c in cycles if c and "digest" in c), None),
    })

    if trace:
        snaps = phase["snapshots"]
        if "cycle" not in snaps:  # every traced cycle failed
            snaps.update(cycle=snaps["end"], cycle_ops=max(n_ops, 1), shapes={})
        cycle_counts = diff(snaps["cycle"], snaps["start"])
        per_layer = layer_metrics(tracer, max(n_ops, 1), SETUPS, cycle_counts, snaps["cycle_ops"],
                                  diff(snaps["end"], snaps["start"]))
        base_ms = [d * 1e3 for d in untraced["log"].durations]
        base_p50 = percentile(base_ms, 0.5) if base_ms else float("nan")
        traced_p50 = e2e["op_ms_p50"]
        per_layer["trace.overhead_ms_p50"] = traced_p50 - base_p50
        per_layer["trace.overhead_pct"] = 100.0 * (traced_p50 / base_p50 - 1.0)
        base_tps = workload.work_tokens(untraced["cycles"], untraced["log"]) / untraced["wall"]
        result["tracing_overhead"] = {
            "op_ms_p50": {"untraced": base_p50, "traced": traced_p50, "diff": traced_p50 - base_p50},
            "tokens_per_s": {"untraced": base_tps, "traced": e2e["tokens_per_s"],
                             "diff": e2e["tokens_per_s"] - base_tps},
        }
        result["per_layer"] = per_layer
        result["counts"] = count_notes(cycle_counts, snaps["cycle_ops"], snaps["shapes"])
        tracer.write(os.path.join(OUT_DIR, f"spans-{name}.npz"))
        result["spans"] = {"file": os.path.relpath(os.path.join(OUT_DIR, f"spans-{name}.npz"), ROOT),
                           "count": tracer.span_count()}
        values, units = per_layer, declared_units("per_layer")
    else:
        values, units = e2e, declared_units("end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics never computed: {sorted(missing)}")
    # op_ms_p50 and tokens_per_s are printed but not declared: see perfbench/README.md
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    with open(os.path.join(OUT_DIR, f"result-{name}-trace{int(trace)}.json"), "w") as f:
        json.dump(result, f, indent=1, default=str)
    report(result, trace)
    print(json.dumps({"correct": not failures and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# How each computed count is derived; the shapes follow in the output.
COUNT_FORMULAS = {
    "tensor.tape_entries": "tape entries recorded per step (len(Tape.entries) at backward)",
    "model.mask_bytes": "4 * B * H * S * T per forward_segment call, shapes (B, H, S, T)",
    "memory.append_bytes": "L2 * B * H * T * Dh * itemsize per append, shapes (L2 = 2*layers, B, H, T, Dh, itemsize)",
    "memory.valid_slots": "valid slots summed over the memories appends return",
    "memory.stored_slots": "B * T summed over the memories appends return",
    "training.valid_tokens": "non-pad slots of the token grids each loss call forwards",
    "training.grid_tokens": "all slots of those grids, shapes (B, S) per segment",
    "generate.tokens_forwarded": "growth of the batch=1 memory in prime/extend/generate_response",
}


def count_notes(cycle_counts: dict, cycle_ops: int, shapes: dict) -> dict:
    notes = {}
    for name, formula in COUNT_FORMULAS.items():
        total = cycle_counts.get(name, 0.0)
        seen = sorted(shapes.get(name, {}).items(), key=lambda kv: -kv[1])
        notes[name] = {
            "per_cycle": total, "ops_in_cycle": cycle_ops, "per_op": total / cycle_ops,
            "formula": formula,
            "shapes": [{"shape": list(s) if not isinstance(s[0], tuple) else [list(x) for x in s],
                        "calls": c} for s, c in seen[:8]],
            "distinct_shapes": len(seen),
        }
    return notes


def report(result: dict, trace: bool):
    """Human-readable lines, printed before the final JSON line."""
    print(f"workload {result['workload']} seed {result['seed']}: {result['operations']} operations "
          f"in {result['cycles']} cycles, {result['wall_s']:.2f} s; "
          f"{result['samples_beyond_tail']} samples beyond the tail percentile; "
          f"{len(result['window_rates'])} windows for the sustained rate")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"  {name:<30} {value:14.4f} {unit}")
    if result.get("digest"):
        print(f"  reply digest {result['digest']}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    if not result["failures"]:
        print("  output checks passed")
    if trace:
        over = result["tracing_overhead"]
        print(f"  tracing overhead: op p50 {over['op_ms_p50']['untraced']:.3f} -> "
              f"{over['op_ms_p50']['traced']:.3f} ms, tokens/s {over['tokens_per_s']['untraced']:.1f} -> "
              f"{over['tokens_per_s']['traced']:.1f}; {result['spans']['count']} spans in "
              f"{result['spans']['file']}")
        units = declared_units("per_layer")
        for name, value in result["per_layer"].items():
            print(f"  {name:<32} {value:14.4f} {units[name]}")
        for name, note in result["counts"].items():
            line = (f"  count {name} = {note['per_op']:.6g} per op ({note['per_cycle']:.0f} over "
                    f"{note['ops_in_cycle']} ops): {note['formula']}")
            if note["shapes"]:
                shapes = ", ".join(f"{s['shape']} x{s['calls']}" for s in note["shapes"][:3])
                more = note["distinct_shapes"] - min(3, note["distinct_shapes"])
                line += f"; most common {shapes[:200]}" + (f" (+{more} more shapes)" if more else "")
            print(line)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process; ends
    with a table of the end-to-end metrics under their display names and the
    tracing overhead of each workload."""
    summary, table = {}, []
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited with {proc.returncode}", proc.returncode)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= line["correct"]
            attempted += line["attempted"]
            failed += line["failed"]
            summary.update({f"{name}.{k}": v for k, v in line["metrics"].items()})
            with open(os.path.join(OUT_DIR, f"result-{name}-trace{trace}.json")) as f:
                result = json.load(f)
            if trace:
                over = result["tracing_overhead"]["op_ms_p50"]
                table.append((name, "tracing overhead (op p50)", over["diff"], "ms"))
            else:
                table += [(name, k, v, unit) for k, (v, unit) in result["end_to_end"].items()]
    print(f"== summary: seed {seed}, {seconds:g} s per run ==")
    for name, metric, value, unit in table:
        print(f"{name:<14} {metric:<30} {value:14.4f} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
