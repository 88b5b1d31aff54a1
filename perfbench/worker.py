"""One workload in a fresh interpreter: set-up, then a timed or traced pass.

``run.py`` starts this file and times set-up from outside: the worker prints
``ready`` once biflag is imported, its inputs are built and one warm-up job
has run. With ``--setup-only`` it exits there. Otherwise it runs a fixed
list of jobs, sized from ``--seconds`` (``workloads.run_size``), in a closed
loop with one client (each job starts when the previous one ended).
After each job's clock has stopped it times the workload's reference loop
(``calib.py``), for run.py to scale the job's time, and checks the outcome
against the seed reference. It prints one JSON line of results.

Usage (normally through run.py):
  python perfbench/worker.py --workload NAME --seed N --seconds S
      [--setup-only | --trace]
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from time import perf_counter

import workloads as wl
from calib import Calibration

SRC = os.path.abspath("src")
TRACE_JOBS = {"freq-grid": 48, "geom-search": 40, "oracle-xcheck": 100,
              "cli-cold": 18}


def import_biflag():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import biflag
    if not os.path.abspath(biflag.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"biflag imported from {biflag.__file__}, not {SRC}")
    return biflag


def call(fn, *args, **kwargs):
    """Result of fn, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the outcome is judged against the reference
        return exc


class FreqGrid:
    """Closed-form heatmaps and f_sym/f1/f2 sweeps on the two presets."""

    def __init__(self, seed):
        self.bf = bf = import_biflag()
        self.order = wl.block_order(seed, wl.FREQ_BLOCKS, wl.FREQ_BLOCK, "freq-grid")
        self.cfgs = {"default": bf.default_config(), "smooth": bf.smooth_config()}

    def jobs(self):
        return map(self.prepare, itertools.cycle(self.order))

    def warmup(self):
        return self.prepare(3)  # a fixed sweep

    def prepare(self, index):
        return dict(wl.freq_item(index), index=index)

    def run(self, job):
        bf, cfg = self.bf, self.cfgs[job["preset"]]
        if job["kind"] == "heatmap":
            return call(bf.heatmap, cfg, job["f1"], job["f2"], job["counts"],
                        output=job["output"])
        return call(bf.sweep, cfg, bf.SweepSpec(job["axis"], job["start"],
                                                job["stop"], job["count"]))

    def points(self, job):
        if job["kind"] == "heatmap":
            return job["counts"][0] * job["counts"][1]
        return job["count"]

    def check(self, job, result, tally):
        if isinstance(result, Exception):
            tally.op(False, f"{type(result).__name__}: {result}")
            return
        ref = self.ref["freq_grid"][job["index"]]
        if job["kind"] == "heatmap":
            n1, n2 = job["counts"]
            axes = (wl.linear_grid(*job["f1"], n1), wl.linear_grid(*job["f2"], n2))
            if [len(row) for row in result.values] != [n2] * n1 or (
                    wl.compare_values([*result.f1, *result.f2], axes[0] + axes[1])):
                tally.op(False, f"heatmap {job['index']}: shape or axes")
                return
            flat = [value for row in result.values for value in row]
            values = [flat[i] for i in job["cells"]]
        else:
            axis, count = job["axis"], job["count"]
            if result.columns != wl.SWEEP_HEADERS[axis] or len(result.rows) != count or (
                    wl.compare_values([row[0] for row in result.rows],
                                      wl.linear_grid(job["start"], job["stop"], count))):
                tally.op(False, f"sweep {job['index']}: header, length or axis")
                return
            flat = [value for row in result.rows for value in row[1:]]
            values = [value for i in job["cells"] for value in result.rows[i][1:]]
        if not all(map(math.isfinite, flat)):
            tally.op(False, f"{job['kind']} {job['index']}: non-finite value")
            return
        why = wl.compare_values(values, ref)
        tally.op(not why, f"{job['kind']} {job['index']}: {why}")


class GeomSearch:
    """fit_thrust_scale on a synthetic dataset, then optimize_design."""

    def __init__(self, seed):
        self.bf = bf = import_biflag()
        self.order = wl.block_order(seed, wl.GEOM_BLOCKS, wl.GEOM_BLOCK, "geom-search")
        self.bases = {"default": bf.default_config(), "smooth": bf.smooth_config()}

    def jobs(self):
        return map(self.prepare, itertools.cycle(self.order))

    def warmup(self):
        return self.prepare(17)  # a fixed one-axis search

    def prepare(self, index):
        bf = self.bf
        item = wl.geom_item(index)
        return {
            "index": index,
            "base": self.bases[item["preset"]],
            "points": [bf.ExperimentalPoint(*p) for p in item["points"]],
            "coupling": bf.AMPLITUDE_BY_LENGTH if item["coupling"] else None,
            "rel_tol": item["rel_tol"],
            "bounds": bf.DesignBounds(item["intervals"], item["constraint_sum"]),
            "objective": item["objective"],
            "coarse": item["coarse"],
        }

    def run(self, job):
        bf = self.bf
        fit = call(bf.fit_thrust_scale, job["points"], job["base"],
                   coupling=job["coupling"], rel_tol=job["rel_tol"])
        if isinstance(fit, Exception):
            return fit, None
        fitted = replace(job["base"], thrust_scale=fit.thrust_scale)
        return fit, call(bf.optimize_design, fitted, job["bounds"],
                         job["objective"], coarse=job["coarse"])

    def points(self, job):
        return self.ref["geom_search"][job["index"]]["points"]

    def check(self, job, result, tally):
        ref = self.ref["geom_search"][job["index"]]
        fit, opt = result
        if isinstance(fit, Exception):
            tally.op(False, f"fit {type(fit).__name__}: {fit}")
            tally.op(False, "optimize not run")
            return
        values = [fit.thrust_scale, fit.max_rel_error, *fit.residuals]
        why = wl.compare_values(values, ref["fit"])
        tally.op(not why, f"fit {job['index']}: {why}")
        if isinstance(opt, Exception):
            tally.op(False, f"optimize {type(opt).__name__}: {opt}")
            return
        names = sorted(ref["params"])
        if sorted(opt.params) != names:
            why = f"params {sorted(opt.params)}"
        else:
            why = wl.compare_values([opt.value] + [opt.params[k] for k in names],
                                    [ref["value"]] + [ref["params"][k] for k in names])
        tally.op(not why, f"optimize {job['index']}: {why}")


class OracleXcheck:
    """oracle_full_solve and full_solve on the seeded population."""

    def __init__(self, seed):
        self.bf = import_biflag()
        self.order = wl.block_order(seed, wl.POP_BLOCKS, wl.POP_BLOCK, "population")

    def jobs(self):
        return map(self.prepare, itertools.cycle(self.order))

    def warmup(self):
        return self.prepare(wl.POP_BLOCK - 1)  # a fixed plain item

    def prepare(self, index):
        return index, wl.build_config(self.bf, wl.population_item(index))

    def run(self, job):
        cfg = job[1]
        return call(self.bf.oracle_full_solve, cfg), call(self.bf.full_solve, cfg)

    def points(self, job):
        return 2

    def check(self, job, result, tally):
        ref = self.ref["population"][job[0]]
        for backend, value in zip(("oracle", "closed"), result):
            expect = ref[backend]
            atols = ref["atol"] if backend == "oracle" else None
            if isinstance(value, Exception):
                ok, mismatch, why = wl.check_error(value, expect, self.bf)
                if not isinstance(value, self.bf.BiflagError):
                    tally.raw(type(value).__name__)
                tally.op(ok, f"{backend} {job[0]}: {why}", mismatch)
            elif isinstance(expect, dict):
                # the reference raised; a finite value is accepted only
                # where that was a raw defect
                ok = expect["raw"] and all(map(math.isfinite, wl.solve_values(value)))
                tally.op(ok, f"{backend} {job[0]}: value where reference raised "
                             f"{expect['error']}")
            else:
                why = wl.compare_values(wl.solve_values(value), expect, atols)
                tally.op(not why, f"{backend} {job[0]}: {why}")


class CliCold:
    """Fresh `python -m biflag` processes on the C12 argument sets."""

    def __init__(self, seed):
        self.seed = seed
        self.dir = wl.workdir("cli-cold")
        self.env = child_env()
        self.traced = False
        self.bytes_out = 0  # stdout and files, summed over jobs
        self.process_s: list[float] = []
        self.spans: list[list] = []

    def jobs(self):
        for n, (kind, index) in enumerate(wl.cli_jobs(self.seed)):
            if index is not None:
                path = os.path.join(self.dir, f"config-{index}.yaml")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(wl.config_yaml(wl.population_item(index)))
            yield n, kind, index

    def warmup(self):
        return -1, "solve", None

    def run(self, job):
        n, kind, index = job
        argv = wl.cli_argv(kind, self.dir, index)
        env = self.env
        if self.traced:
            spans_path = os.path.join(self.dir, "spans.json")
            env = dict(env, PERFBENCH_SPANS=spans_path, PERFBENCH_JOB=str(n))
            cmd = [sys.executable, os.path.join(wl.HERE, "spans.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "biflag", *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        self.process_s.append(perf_counter() - start)
        return proc

    def points(self, job):
        return self.ref["cli"][job[1]]["points"]

    def check(self, job, proc, tally):
        _, kind, index = job
        if self.traced:
            with open(os.path.join(self.dir, "spans.json"), encoding="utf-8") as fh:
                self.spans.append(json.load(fh))
        files = {}
        for name in wl.CLI_FILES.get(kind, ()):
            path = os.path.join(self.dir, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    files[name] = fh.read()
                os.remove(path)  # so a job that writes nothing is caught
        self.bytes_out += len(proc.stdout.encode()) + sum(
            len(text.encode()) for text in files.values())
        if "Traceback" in proc.stderr:
            # an uncaught exception: its class starts the last stderr line
            name = proc.stderr.strip().splitlines()[-1].split(":")[0]
            tally.raw(name)
            expect = (self.ref["population"][index]["closed"]
                      if kind == "solve-yaml" else None)
            known = isinstance(expect, dict) and expect["raw"]
            tally.op(False, f"{kind}: raw {name}", mismatch=not known)
        elif kind == "solve-yaml":
            self._check_solve(index, proc, tally)
        else:
            why = self._compare(self.ref["cli"][kind], proc, files)
            tally.op(not why, f"{kind}: {why}")

    def _compare(self, ref, proc, files):
        if proc.returncode != 0 or proc.stderr:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        tol = self.ref["cli_oracle_tol"]

        def atol_of(key):
            if key == "U_oracle_m_s":
                return tol["U"]
            if key in ("rel_diff", "max_rel_diff"):
                return tol["rel"]
            return 0.0
        if ref["stdout"] is not None:
            try:
                payload = json.loads(proc.stdout)
            except ValueError:
                return "stdout is not JSON"
            why = wl.compare_json(payload, ref["stdout"], atol_of)
            if why:
                return why
        for name, expect in ref["files"].items():
            text = files.get(name)
            if text is None:
                return f"{name} missing"
            if name.endswith(".svg"):
                why = wl.compare_svg(text, expect)
            else:
                header, rows = wl.parse_csv(text)
                why = "" if header == expect[0] else f"{name} header {header}"
                if len(rows) != len(expect[1]):
                    why = why or f"{name} has {len(rows)} rows"
                for row, ref_row in zip(rows, expect[1]):
                    why = why or wl.compare_values(row, ref_row)
            if why:
                return why
        return ""

    def _check_solve(self, index, proc, tally):
        expect = self.ref["population"][index]["closed"]
        if isinstance(expect, dict):
            # the seed raised: a typed error is one `error:` line and exit 1;
            # a value is accepted only where the seed's error was a raw defect
            line = proc.stderr.strip()
            typed = (proc.returncode == 1 and line.startswith("error:")
                     and "\n" not in line and not proc.stdout)
            ok = typed or (expect["raw"] and proc.returncode == 0)
            tally.op(ok, f"solve-yaml {index}: exit {proc.returncode} {line[-120:]}")
            return
        if proc.returncode != 0:
            tally.op(False, f"solve-yaml {index}: exit {proc.returncode} "
                            f"{proc.stderr.strip()[-200:]}")
            return
        payload = json.loads(proc.stdout)
        if list(payload) != list(wl.CLI_SOLVE_KEYS):
            tally.op(False, "solve-yaml key order")
            return
        values = [payload[k] for k in wl.CLI_SOLVE_KEYS if k != "residual_N"]
        why = wl.compare_values(values, expect)
        tally.op(not why, f"solve-yaml {index}: {why}")


WORKLOADS = {"freq-grid": FreqGrid, "geom-search": GeomSearch,
             "oracle-xcheck": OracleXcheck, "cli-cold": CliCold}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BIFLAG_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def cf_rel_err_p50(ref: dict) -> tuple[float, int]:
    """Median closed-form deviation from the seed oracle over the population.

    For each matched-geometry item, the largest relative deviation of U, P1
    and P2 (quantities where the oracle reads exactly 0 are skipped). The
    probe covers the whole population, so it does not vary with the seed.
    """
    bf = import_biflag()
    fields = [wl.SOLVE_FIELDS.index(n) for n in ("U_X", "P1", "P2")]
    errors = []
    for index, entry in enumerate(ref["population"]):
        if isinstance(entry["closed"], dict) or isinstance(entry["oracle"], dict):
            continue
        result = call(bf.full_solve, wl.build_config(bf, wl.population_item(index)))
        if isinstance(result, Exception):
            continue
        values = wl.solve_values(result)
        devs = [abs(values[i] - entry["oracle"][i]) / abs(entry["oracle"][i])
                for i in fields if entry["oracle"][i] != 0.0]
        if devs:
            errors.append(max(devs))
    return statistics.median(errors), len(errors)


def run_jobs(workload, jobs, tally, tracer=None, calibration=None):
    """Closed loop over ``jobs``; returns per-job durations, points and the
    slowness of the reference loops timed after each job.

    Reference loops and checks run after each job's clock has stopped; a
    check that raises counts as a failed operation.
    """
    durations, points, slowness = [], [], []
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = n
        start = perf_counter()
        result = workload.run(job)
        elapsed = perf_counter() - start
        if calibration is not None:
            slowness.append(calibration.slowness())
        durations.append(elapsed)
        points.append(workload.points(job))
        try:
            workload.check(job, result, tally)
        except Exception as exc:  # a malformed output must not end the run
            tally.op(False, f"check raised {exc!r}")
    return durations, points, slowness


def traced_pass(workload, jobs, tally) -> tuple[dict, float, float, int]:
    """Untraced then traced pass over the same jobs; layer metrics."""
    from spans import LayerStats, Tracer, install, write_spans
    plain_s = sum(run_jobs(workload, jobs, tally)[0])
    stats = LayerStats()
    cli = isinstance(workload, CliCold)
    if cli:
        process_s = statistics.median(workload.process_s)
        bytes_out = workload.bytes_out
        workload.traced = True
        traced_s = sum(run_jobs(workload, jobs, tally)[0])
        spans = workload.spans
    else:
        tracer = Tracer()
        install(tracer)
        traced_s = sum(run_jobs(workload, jobs, tally, tracer=tracer)[0])
        spans = [tracer.spans]
    for process_spans in spans:
        stats.add(process_spans)
    write_spans([s for process_spans in spans for s in process_spans],
                os.path.join(wl.workdir("spans"), "spans.jsonl"))
    metrics = stats.metrics()
    metrics.update(import_times())
    metrics["cli.process_s"] = (process_s if cli else 0.0, "s")
    metrics["cli.bytes_out"] = (bytes_out if cli else 0, "bytes")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return metrics, plain_s, traced_s, sum(map(len, spans))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if "BIFLAG_THREADS" in os.environ:
        raise SystemExit("BIFLAG_THREADS must be unset")

    workload = WORKLOADS[args.workload](args.seed)
    workload.run(workload.warmup())
    print("ready", flush=True)
    if args.setup_only:
        return

    workload.ref = ref = wl.load_reference()
    tally = wl.Outcome()
    out = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        jobs = list(itertools.islice(workload.jobs(), TRACE_JOBS[args.workload]))
        metrics, plain_s, traced_s, n_spans = traced_pass(workload, jobs, tally)
        out.update(jobs=len(jobs), spans=n_spans, plain_s=plain_s,
                   traced_s=traced_s, metrics=metrics)
    else:
        calibration = Calibration(args.workload)
        size = wl.run_size(args.workload, args.seconds)
        jobs = itertools.islice(workload.jobs(), size)
        durations, points, slowness = run_jobs(workload, jobs, tally,
                                               calibration=calibration)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_kb = children if isinstance(workload, CliCold) else own
        cf_err, cf_n = cf_rel_err_p50(ref)
        out.update(durations=durations, points=points, slowness=slowness,
                   peak_rss_kb=rss_kb,
                   cf_rel_err_p50=cf_err, cf_points=cf_n)
    out.update(attempted=tally.attempted, failed=tally.failed,
               mismatched=tally.mismatched, raw_errors=tally.raw_errors,
               examples=tally.examples, threads=threading.active_count(),
               biflag_threads_set="BIFLAG_THREADS" in os.environ)
    print(json.dumps(out), flush=True)


def import_times() -> dict:
    """Cumulative import times of biflag.cli, numpy and yaml (median of 3)."""
    runs = {"biflag.cli": [], "numpy": [], "yaml": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import biflag.cli"], env=child_env(),
                              capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in runs:
                runs[parts[2]].append(int(parts[1]) / 1e6)
    return {f"cli.import{'' if name == 'biflag.cli' else '_' + name}_s":
            (statistics.median(values), "s") for name, values in runs.items()}


if __name__ == "__main__":
    main()
