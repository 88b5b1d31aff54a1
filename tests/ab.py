"""In-process A/B timing of two biflag source trees on one workload.

Loads ``<tree>/src/biflag`` of each tree as its own package in one
interpreter, builds the workload's seeded job list from
``perfbench/workloads.py`` (which it only reads), and runs the two trees
on that list in alternating rounds, the first tree first in even rounds.
Each round times the whole list once per tree, the calls alone, as
``perfbench/worker.py`` times a job: the results are kept and described
after the clock stops. It asserts that both trees give equal results on
every job (each value by ``repr``, each error by class and message), then
prints each tree's median time, the median of the per-round ratios
(second tree over first) and the rounds the second tree won.

    python tests/ab.py PARENT_TREE CHANGE_TREE [--workload geom-search]
        [--seed 1] [--jobs 160] [--rounds 10] [--stage all]

``--stage`` times a part of a geom-search job: ``fit`` the fit alone,
``coarse`` the coarse pass of the design search and ``refine`` its
refinement steps; ``all`` (the default, and the only stage of the other
workloads) the whole job. Like ``tests/digest.py``, pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
from dataclasses import replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads as wl  # noqa: E402

WORKLOADS = {"freq-grid": ("freq-grid", wl.FREQ_BLOCKS, wl.FREQ_BLOCK),
             "geom-search": ("geom-search", wl.GEOM_BLOCKS, wl.GEOM_BLOCK),
             "oracle-xcheck": ("population", wl.POP_BLOCKS, wl.POP_BLOCK)}
STAGES = ("all", "fit", "coarse", "refine")


def load(tree: str, name: str):
    """``tree``'s src/biflag, imported as the package ``name``."""
    path = os.path.join(os.path.abspath(tree), "src", "biflag")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def call(run, *args, **kwargs):
    """run(*args, **kwargs), or the exception it raised."""
    try:
        return run(*args, **kwargs)
    except Exception as exc:  # both trees must raise alike
        return exc


def describe(outcome) -> str:
    """repr of a result, or an error's class and message; a tuple of
    outcomes joined."""
    if isinstance(outcome, tuple):
        return "".join(map(describe, outcome))
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


class Tree:
    """One tree's jobs, built from its own classes, and their runner."""

    def __init__(self, bf, workload: str, indices: list[int], stage: str):
        self.bf, self.workload, self.stage = bf, workload, stage
        self.clock = [0.0]  # the time of the stage's searches, where timed
        if workload == "freq-grid":
            cfgs = {"default": bf.default_config(),
                    "smooth": bf.smooth_config()}
            self.jobs = [(cfgs[item["preset"]], item)
                         for item in map(wl.freq_item, indices)]
        elif workload == "oracle-xcheck":
            self.jobs = [wl.build_config(bf, wl.population_item(i))
                         for i in indices]
        else:
            bases = {"default": bf.default_config(),
                     "smooth": bf.smooth_config()}
            self.jobs = []
            for item in map(wl.geom_item, indices):
                self.jobs.append((
                    bases[item["preset"]],
                    [bf.ExperimentalPoint(*p) for p in item["points"]],
                    bf.AMPLITUDE_BY_LENGTH if item["coupling"] else None,
                    item["rel_tol"],
                    bf.DesignBounds(item["intervals"], item["constraint_sum"]),
                    item["objective"], item["coarse"]))
            if stage in ("coarse", "refine"):
                self.time_searches()

    def time_searches(self) -> None:
        """Wrap the design search so that self.clock sums the time of its
        coarse pass (the first call of each search) or of its refinement
        steps (every later call)."""
        calibrate, clock = self.bf.calibrate, self.clock
        objective_fn, coarse = calibrate._objective_fn, self.stage == "coarse"

        def timed_objective_fn(*args):
            search, calls = objective_fn(*args), [0]

            def timed(grids):
                calls[0] += 1
                if (calls[0] == 1) != coarse:
                    return search(grids)
                start = perf_counter()
                try:
                    return search(grids)
                finally:
                    clock[0] += perf_counter() - start
            return timed
        calibrate._objective_fn = timed_objective_fn

    def run(self, job):
        """The outcome of the job, for describe."""
        bf = self.bf
        if self.workload == "freq-grid":
            cfg, item = job
            if item["kind"] == "heatmap":
                return call(bf.heatmap, cfg, item["f1"], item["f2"],
                            item["counts"], output=item["output"])
            return call(lambda: bf.sweep(cfg, bf.SweepSpec(
                item["axis"], item["start"], item["stop"], item["count"])))
        if self.workload == "oracle-xcheck":
            return call(bf.oracle_full_solve, job), call(bf.full_solve, job)
        base, points, coupling, rel_tol, bounds, objective, coarse = job
        fit = call(bf.fit_thrust_scale, points, base, coupling=coupling,
                   rel_tol=rel_tol)
        if self.stage == "fit" or isinstance(fit, Exception):
            return fit
        return fit, call(
            bf.optimize_design, replace(base, thrust_scale=fit.thrust_scale),
            bounds, objective, coarse=coarse)

    def timed_round(self) -> tuple[float, list[str]]:
        """The time of the stage over every job, and each job's result,
        described once the clock has stopped."""
        self.clock[0] = 0.0
        start = perf_counter()
        outcomes = [self.run(job) for job in self.jobs]
        elapsed = perf_counter() - start
        return (self.clock[0] if self.stage in ("coarse", "refine")
                else elapsed), list(map(describe, outcomes))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="geom-search")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=160)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--stage", choices=STAGES, default="all")
    args = parser.parse_args()
    if args.stage != "all" and args.workload != "geom-search":
        parser.error("--stage: only geom-search has stages")
    salt, blocks, block = WORKLOADS[args.workload]
    indices = wl.block_order(args.seed, blocks, block, salt)[:args.jobs]
    trees = [Tree(load(path, f"biflag_{side}"), args.workload, indices,
                  args.stage)
             for side, path in (("a", args.parent), ("b", args.change))]
    times: list[list[float]] = [[], []]
    for k in range(args.rounds + 1):  # round 0 warms both trees up
        order = (0, 1) if k % 2 == 0 else (1, 0)
        results = {}
        for side in order:
            elapsed, results[side] = trees[side].timed_round()
            if k:
                times[side].append(elapsed)
        mismatches = [i for i, (x, y) in enumerate(zip(results[0],
                                                       results[1])) if x != y]
        assert not mismatches, (
            f"round {k}: the trees differ on job {indices[mismatches[0]]}:"
            f" {results[0][mismatches[0]]} != {results[1][mismatches[0]]}")
    ratios = [b / a for a, b in zip(*times)]
    print(f"{args.workload} stage {args.stage}, seed {args.seed},"
          f" {len(indices)} jobs, {args.rounds} rounds, results equal")
    print(f"parent median {statistics.median(times[0]) * 1e3:.1f} ms,"
          f" change median {statistics.median(times[1]) * 1e3:.1f} ms")
    print(f"ratio median {statistics.median(ratios):.3f},"
          f" change faster in {sum(r < 1.0 for r in ratios)} of {len(ratios)}")


if __name__ == "__main__":
    main()
