"""dimsift benchmark: one workload per run, one closed-loop client in one process.

    python3 perfbench/run.py --workload pipeline_mem --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports dimsift from the
checkout's src/ and refuses to run without it. The next op starts only after
the previous one returned. BLAS is held to one thread, so the process never
runs more threads than the two cores it is sized for.

--trace 0 reports the end_to_end metrics of BENCHMARK.json. --trace 1
alternates traced and untraced ops, reports the per_layer metrics, and
writes the spans to perfbench/_work/traces/ when the run ends. Lines starting
with '#' are for people; the last line of stdout is the JSON result.
"""
from __future__ import annotations

import os

# Fixed before numpy is imported, here and in the set-up child processes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("DIMSIFT_PARALLEL", None)

import argparse
import gc
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path[:0] = [str(SRC), str(BENCH)]

import spans  # noqa: E402  (needs the path above; does not import dimsift)
WORKLOAD_NAMES = ("pipeline_mem", "shared_scope", "artifacts_cli")
SETUP_RUNS = 7
# End-to-end figures printed on '#' lines and recorded by baseline.py, but not
# listed in BENCHMARK.json, whose listed metrics must hold a run-to-run spread
# within a bound of at most 0.25. On the 2-core VM this was built on, the
# median op time of 20- to 30-second runs drifts with the host (quartile spread
# 0.08-0.44 over ten runs); per-op process CPU time drifts with it, as it
# matches wall time to 0.1%. So op time is compared in alternating pairs of
# runs instead of being gated. Below 20 ops a run has no tail percentile with
# 10 samples beyond it, and error_rate is 0 when nothing fails (failures also
# reach `failed`).
UNLISTED_UNITS = {"op_p50_s": "s", "samples_per_s": "rows/s", "op_tail_s": "s", "error_rate": "ratio"}
# Per-op self times must add up to the op's root span to within this many seconds.
SELF_SUM_TOLERANCE = 1e-6

SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed!r}, Path({work!r}))
print("ready", flush=True)
"""


def setup_seconds(name: str, seed: int, runs: int) -> list[float]:
    """Wall time from starting a fresh interpreter to a built workload, `runs` times."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, work=str(WORK))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up process exited {p.returncode} before the workload was built")
        times.append(t1 - t0)
    return times


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with 10 samples beyond.

    Below 20 samples that percentile would lie under the median, so the
    slowest sample is reported instead, as percentile 100 with 0 beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def _lscpu() -> dict:
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=30, env=dict(os.environ, LC_ALL="C")
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    units = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}
    info = {}
    for line in out.splitlines():
        key, _, value = (part.strip() for part in line.partition(":"))
        if key == "Model name":
            info["cpu"] = value
        m = re.match(r"([\d.]+) ([KMG]iB)(?: \((\d+) instances?\))?", value)
        if key in ("L2 cache", "L3 cache") and m:
            per_instance = float(m[1]) * units[m[2]] / int(m[3] or 1)
            info[f"{key[:2].lower()}_bytes_per_instance"] = int(per_instance)
    return info


def environment(shape: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    env = {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_lscpu(),
        "workload": shape,
    }
    for level in ("l2", "l3"):
        cache = env.get(f"{level}_bytes_per_instance")
        if cache:
            shape[f"train_feature_bytes_over_{level}"] = shape["train_feature_bytes"] / cache
    return env


def run_ops(wl, seconds: float, trace: bool) -> dict:
    """Closed loop for `seconds`; with trace, even-numbered ops are traced."""
    import layers

    tracer = spans.Tracer()
    plain, traced, qualities, problems = [], [], [], []
    counts: dict[int, dict] = {}
    attempted = 0
    start = time.perf_counter()
    while attempted < (2 if trace else 1) or time.perf_counter() - start < seconds:
        op_id, attempted = attempted, attempted + 1
        use_trace = trace and op_id % 2 == 0
        out = error = None
        wl.reset()
        gc.collect()
        with tracer.patched(layers.targets()) if use_trace else nullcontext():
            t0 = time.perf_counter()
            try:
                with tracer.op(op_id) if use_trace else nullcontext():
                    out = wl.op(tracer)
            except Exception:
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
        (traced if use_trace else plain).append(dt)
        try:
            found = [error] if error else wl.check(out)
            if not found:
                qualities.append(wl.quality(out))
                if use_trace:
                    counts[op_id] = wl.layer_counts(out)
        except Exception:
            found = [traceback.format_exc()]
        if found:
            problems.append((op_id, found))
            print(f"op {op_id} failed: " + "; ".join(found), file=sys.stderr)
    return {
        "attempted": attempted,
        "plain": plain,
        "traced": traced,
        "qualities": qualities,
        "problems": problems,
        "counts": counts,
        "spans": tracer.spans,
    }


def end_to_end(wl, setup: list[float], res: dict) -> tuple[dict, dict]:
    plain = res["plain"]
    value, pct, beyond = tail(plain)
    q = res["qualities"] or [(0.0, 0.0)]
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(plain),
        "op_tail_s": value,
        "samples_per_s": wl.n_train / statistics.median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "min_auroc": statistics.median(a for a, _ in q),
        "refined_spearman": statistics.median(s for _, s in q),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_p50_s": f"n={len(plain)}",
        "op_tail_s": f"p{pct:.1f} of n={len(plain)}, {beyond} beyond",
        "samples_per_s": f"{wl.n_train} train rows / op_p50_s, n={len(plain)}",
        "peak_rss_mb": "ru_maxrss of the client process",
        "min_auroc": f"n={len(res['qualities'])}",
        "refined_spearman": f"n={len(res['qualities'])}",
    }
    return values, notes


def per_layer(res: dict, names: list[str]) -> tuple[dict, list[str]]:
    """Means over the successful traced ops, so the layer self times add up to trace.op_s."""
    import layers

    ok = set(res["counts"])
    per_op = spans.op_metrics([s for s in res["spans"] if s.op_id in ok])
    problems = []
    for op_id, m in per_op.items():
        total = sum(m.get(f"{layer}.self_s", 0.0) for layer in layers.LAYERS + ("bench",))
        if abs(total - m["trace.op_s"]) > SELF_SUM_TOLERANCE:
            problems.append(f"op {op_id}: self times sum to {total!r}, root span is {m['trace.op_s']!r}")
        m.update(res["counts"][op_id])
    rows = list(per_op.values())
    values = {name: statistics.fmean(m.get(name, 0.0) for m in rows) if rows else 0.0 for name in names}
    if res["traced"] and res["plain"]:
        values["trace.overhead_s"] = statistics.median(res["traced"]) - statistics.median(res["plain"])
    return values, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dimsift" / "__init__.py").is_file():
        print(f"error: no dimsift source tree at {SRC}", file=sys.stderr)
        return 2
    import dimsift

    if Path(dimsift.__file__).resolve().parent != (SRC / "dimsift").resolve():
        print(f"error: imported dimsift from {dimsift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, SETUP_RUNS)
    wl = workloads.build(args.workload, args.seed, WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        res = run_ops(wl, args.seconds, bool(args.trace))
    finally:
        wl.close()

    problems = [p for _, found in res["problems"] for p in found]
    if args.trace:
        listed = spec["per_layer"]
        values, sum_problems = per_layer(res, [m["name"] for m in listed])
        problems += sum_problems
        notes = {m["name"]: f"mean of {len(res['counts'])} traced ops" for m in listed}
        notes["trace.overhead_s"] = f"median of {len(res['traced'])} traced - median of {len(res['plain'])} untraced"
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"spans": [s.to_dict() for s in res["spans"]], "metrics": values}) + "\n"
        )
    else:
        listed = spec["end_to_end"]
        values, notes = end_to_end(wl, setup, res)

    failed = len(res["problems"])
    units = {m["name"]: m["unit"] for m in listed}
    if not args.trace:
        values["error_rate"] = failed / res["attempted"]
        notes["error_rate"] = f"{failed} of {res['attempted']} ops failed"
        units.update(UNLISTED_UNITS)
    print("# env " + json.dumps(environment(wl.shape()), sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {res['attempted']} ops attempted, {failed} failed")
    for name, value in values.items():
        print(f"#   {name:<44} {value:>14.6g} {units[name]:<6} ({notes[name]})")
    print("# figures " + json.dumps(values))
    if args.trace and values["trace.op_s"] > 0:
        import layers

        top = max(layers.LAYERS, key=lambda layer: values[f"{layer}.self_s"])
        share = values[f"{top}.self_s"] / values["trace.op_s"]
        print(f"# dominant layer: {top}, {100 * share:.1f}% of trace.op_s")
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
