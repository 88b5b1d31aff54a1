"""biflag benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload freq-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the workload runs untraced in a fresh interpreter, after
set-up has been timed in seven fresh interpreters, and the end-to-end metrics
are printed. The run is a fixed list of jobs that the seed chooses, as many
whole blocks as take about ``--seconds`` seconds of job time at the defining
commit's speed, so ``attempted`` and ``failed`` do not vary between runs. Their times are wall
times rescaled to a fixed reference speed of the host (see calib.py); the
unscaled figures are printed on a line of their own. With ``--trace 1`` a
fixed number of jobs runs untraced and then traced, and the per-layer metrics
are printed. ``--workload all`` runs every workload both ways and writes the
results to perfbench/results/seed<N>.json. Every line before the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calib import Calibration, local_median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("freq-grid", "geom-search", "oracle-xcheck", "cli-cold")
SETUP_RUNS = 7      # set-ups per run; setup_s is their median
TIMEOUT_S = 170.0   # per worker process


def worker_cmd(workload: str, seed: int, seconds: float, *flags: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *flags]


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BIFLAG_THREADS", None)
    return env


def start_worker(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready`; returns it and the set-up time."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        finish(proc)
        raise SystemExit(f"worker did not get ready: {line!r}")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Rest of the worker's output; kills it on timeout. Fails on error."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return out


def tail_ms(durations: list[float]) -> tuple[float, int]:
    """(ms, percentile): p90, or the highest percentile with >= 10 jobs beyond."""
    n = len(durations)
    pct = min(90, math.floor(100 * (n - 10) / n)) if n > 10 else 0
    if pct < 1:
        return max(durations) * 1e3, 100
    return statistics.quantiles(durations, n=100)[pct - 1] * 1e3, pct


def untraced(workload: str, seed: int, seconds: float) -> dict:
    calibration = Calibration(workload)
    setups, setup_slowness = [], []
    for n in range(SETUP_RUNS):
        setup_slowness.append(statistics.median(
            calibration.slowness() for _ in range(3)))
        last = n == SETUP_RUNS - 1
        proc, setup = start_worker(worker_cmd(workload, seed, seconds,
                                              *(() if last else ("--setup-only",))))
        setups.append(setup)
        if not last:
            finish(proc)
    res = json.loads(finish(proc).splitlines()[-1])
    durations = res.pop("durations")
    points = res.pop("points")
    slowness = local_median(res.pop("slowness"))
    scaled = [d / s for d, s in zip(durations, slowness)]
    p90, pct = tail_ms(scaled)
    n = len(durations)
    busy = sum(scaled)
    res["metrics"] = {
        "setup_s": (statistics.median(t / s for t, s in zip(setups, setup_slowness)),
                    "s", SETUP_RUNS),
        "jobs_per_s": (n / busy, "1/s", n),
        "points_per_s": (sum(points) / busy, "1/s", sum(points)),
        "job_p50_ms": (statistics.median(scaled) * 1e3, "ms", n),
        "job_p90_ms": (p90, "ms", n),
        "peak_rss_mb": (res.pop("peak_rss_kb") / 1024.0, "MB", 1),
        "cf_rel_err_p50": (res["cf_rel_err_p50"], "ratio", res["cf_points"]),
    }
    res["tail_percentile"] = pct
    res["wall"] = {"setup_s": statistics.median(setups),
                   "jobs_per_s": n / sum(durations),
                   "job_p50_ms": statistics.median(durations) * 1e3,
                   "slowness_p50": statistics.median(slowness)}
    return res


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc, _ = start_worker(worker_cmd(workload, seed, seconds, "--trace"))
    res = json.loads(finish(proc).splitlines()[-1])
    res["metrics"] = {name: (value, unit, res["jobs"])
                      for name, (value, unit) in res["metrics"].items()}
    return res


def report(workload: str, res: dict) -> None:
    print(f"{workload} (seed {res['seed']}):")
    for name, (value, unit, n) in res["metrics"].items():
        note = f"p{res['tail_percentile']}, " if name == "job_p90_ms" else ""
        print(f"  {name:38s} {value:14.6g} {unit:6s} ({note}n={n})")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'failed_ratio':38s} {ratio:14.6g} {'ratio':6s} "
          f"({res['failed']}/{res['attempted']}, raw {res['raw_errors']}, "
          f"mismatched {res['mismatched']})")
    if "wall" in res:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in res["wall"].items()))
    for example in res["examples"]:
        print(f"    failed: {example}")


def summary(res: dict) -> dict:
    return {"correct": res["mismatched"] == 0 and not res["biflag_threads_set"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in res["metrics"].items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/biflag/__init__.py").is_file():
        sys.exit("error: run from the repository root (src/biflag not found)")
    if not (HERE / "reference.json").is_file():
        sys.exit("error: perfbench/reference.json is missing")

    if args.workload != "all":
        run = traced if args.trace else untraced
        res = run(args.workload, args.seed, args.seconds)
        report(args.workload, res)
        print(json.dumps(summary(res)))
        return

    results = {}
    for workload in WORKLOADS:
        for mode, run in (("untraced", untraced), ("traced", traced)):
            res = run(workload, args.seed, args.seconds)
            report(workload, res)
            results.setdefault(workload, {})[mode] = res
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(Path.cwd())}")
    total = [summary(r[m]) for r in results.values() for m in r]
    print(json.dumps({
        "correct": all(s["correct"] for s in total),
        "attempted": sum(s["attempted"] for s in total),
        "failed": sum(s["failed"] for s in total),
        "metrics": {f"{w}/{name}": metric
                    for w, r in results.items()
                    for name, metric in summary(r["untraced"])["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
