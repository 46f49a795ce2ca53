"""Repeat perfbench/run.py over workloads and seeds; print and record medians and quartiles.

    python3 perfbench/baseline.py --seeds 0-9 --label seeds0-9
    python3 perfbench/baseline.py --seeds 7919,7919,7919 --label heldout
    python3 perfbench/baseline.py --seeds 0 --trace --label traced

Each run is a separate process, as the benchmark's caller runs it, with
run_seconds from BENCHMARK.json. For every metric the table shows its unit,
the number of runs, the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median,
next to the metric's bound. The result is stored under --label in --out.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import UNLISTED_UNITS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def _tagged(lines: list[str], tag: str) -> dict:
    return next((json.loads(ln[len(tag):]) for ln in lines if ln.startswith(tag)), {})


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), _tagged(lines, "# env "), _tagged(lines, "# figures ")


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="0-9", help="comma list of seeds or ranges, e.g. 0-9 or 7,7,7")
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead of end-to-end")
    ap.add_argument("--label", required=True, help="key under which the result is stored")
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args(argv)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    result = {"seeds": seeds, "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res, env, figures = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, **{k: res[k] for k in ("correct", "attempted", "failed")}, "figures": figures})
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
        units = {m["name"]: m["unit"] for m in listed} | ({} if args.trace else UNLISTED_UNITS)
        bounds = {m["name"]: m.get("bound") for m in listed}
        summary = {name: summarize([r["figures"][name] for r in runs], bounds.get(name)) for name in units}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        result["environment"] = {k: v for k, v in env.items() if k != "workload"}
        result["workloads"][workload] = {
            "shape": env.get("workload"),
            "error_rate": failed / attempted,
            "summary": summary,
            "runs": runs,
        }
        print(f"\n{workload}: {len(runs)} runs, {attempted} ops, {failed} failed, "
              f"error_rate {failed / attempted:.4g}")
        print(f"  {'metric':<44} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, unit in units.items():
            s = summary[name]
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<44} {unit:<9} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {spread:>8} {s.get('bound', ''):>6}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
