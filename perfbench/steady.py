"""Steadiness runs and the recorded baseline of the benchmark.

Runs every workload once per seed (seeds in the outer loop, so drift of the
machine spreads over all workloads), then the traced run twice on the first
seed to confirm that count metrics repeat exactly. For each end-to-end
metric it reports the median, the quartiles and the spread (distance between
the quartiles as a share of the median) against the metric's bound in
BENCHMARK.json, and writes everything with an environment block to
perfbench/results/steady-<UTC time>.json. Usage, from the repository root:

    python3 perfbench/steady.py --seeds 1-10

perfbench/baseline.json is the file of the set that defined the baseline,
copied from perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = (run.traced if trace else run.untraced)(workload, seed, seconds)
    res["summary"] = run.summary(res)
    return res


def environment() -> dict:
    import numpy
    import yaml
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__, "git_commit": commit or "unknown",
            "loadavg_at_start": list(os.getloadavg())}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    env = environment()
    seconds = spec["run_seconds"]
    runs = {w: [] for w in workloads}
    started = time.time()
    for seed in args.seeds:
        for workload in workloads:
            runs[workload].append(bench(workload, seed, seconds, 0))
            print(f"[{time.time() - started:6.0f} s] {workload} seed {seed}",
                  file=sys.stderr)

    baseline = {}
    for workload, results in runs.items():
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["summary"]["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": metric["bound"], "unit": metric["unit"],
                          "values": values}
            ok = name == "setup_s" or spread < metric["bound"] / 3
            print(f"{workload:14s} {name:16s} median {med:12.6g} "
                  f"spread {spread:7.4f} bound {metric['bound']:.2f}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        failed = [r["failed"] for r in results]
        attempted = [r["attempted"] for r in results]
        correct = all(r["summary"]["correct"] for r in results)
        single = all(r["threads"] == 1 and not r["biflag_threads_set"]
                     for r in results)
        print(f"{workload:14s} correct {correct} failed {sum(failed)}/"
              f"{sum(attempted)} single-threaded, BIFLAG_THREADS unset: {single}")
        baseline[workload] = {"seeds": args.seeds, "metrics": rows,
                              "correct": correct, "failed": failed,
                              "attempted": attempted,
                              "single_threaded_without_BIFLAG_THREADS": single}

    traced = {}
    for workload in workloads:
        first, second = (bench(workload, args.seeds[0], seconds, 1) for _ in range(2))
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        repeat = all(first["metrics"][n][0] == second["metrics"][n][0]
                     for n in counts)
        print(f"{workload:14s} traced counts repeat exactly: {repeat}")
        traced[workload] = {"seed": args.seeds[0], "counts_repeat": repeat,
                            "metrics": {n: v[0] for n, v in first["metrics"].items()}}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / time.strftime("steady-%Y%m%dT%H%M%SZ.json", time.gmtime())
    doc = {"environment": env, "run_seconds": seconds, "baseline": baseline,
           "traced": traced}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
