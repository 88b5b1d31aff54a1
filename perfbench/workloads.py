"""Seeded inputs, jobs and reference checks of the four workloads.

Inputs are plain numbers made from the seed; the program's objects are built
from them during set-up, so the program only ever sees generated inputs.
Categorical mixes use fixed shares inside blocks (every block holds the same
number of each kind, in a seeded order), so the mix of a run does not depend
on luck and its job-time median does not jump between size classes.

Every outcome is compared with values captured from the seed commit in
``reference.json`` (see ``capture.py``):

* closed-form values match to 1e-12 relative;
* oracle values match within the tolerance implied by the oracle's own
  ``tol_u``/``tol_force`` (stored per item), and no tighter;
* CLI outputs are parsed and compared at the same tolerances; JSON key order
  and CSV headers must match exactly.

An operation fails when it raises an exception that is not a ``BiflagError``,
raises a typed error where the reference holds a value, returns a non-finite
value, or returns a value outside tolerance. Where the reference itself holds
a raw exception (a known defect of the seed), a typed error or a finite value
is accepted, and the raw exception is counted as failed but not as a mismatch.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

CF_RTOL = 1e-12  # closed-form values, relative

SOLVE_FIELDS = ("U_X", "F1", "F2", "F_body", "P1", "P2", "P0", "eta", "CoT", "Re")
OUTPUT_FIELDS = ("U_X", "P1", "P2", "P0", "eta", "CoT", "Re")  # sweep columns
SWEEP_HEADERS = {axis: [col, "U_m_s", "P1_W", "P2_W", "P0_W", "eta", "CoT", "Re"]
                 for axis, col in (("f_sym", "f_hz"), ("f1", "f1_hz"),
                                   ("f2", "f2_hz"))}
CLI_SOLVE_KEYS = ("U_X_m_s", "F1_N", "F2_N", "F_body_N", "residual_N",
                  "P1_W", "P2_W", "P0_W", "eta", "CoT", "Re")

# ---------------------------------------------------------------- population
# Random configurations in the style of tests/conftest.random_config, shared
# by oracle-xcheck (solved in-process) and cli-cold (written as YAML).

POP_BLOCK = 50
POP_BLOCKS = 60   # 3000 items: more than one run solves, so none repeats


def _pop_category(k: int) -> str:
    """Fixed shares per block of 50."""
    if k == 0:
        return "corner"          # L = 0 and a = 0 (2%)
    if k <= 5:
        return "asymmetric"      # flagella with differing geometry (10%)
    if k <= 10:
        return "zero_body"       # a = 0 (10%)
    if k <= 13:
        return "f1_zero"         # anterior f = 0 (6%)
    if k <= 15:
        return "f2_zero"         # posterior f = 0 (4%)
    if k <= 17:
        return "both_zero"       # both f = 0 (4%)
    return "plain"


def population_item(index: int) -> dict:
    """Configuration ``index`` of the population, as a config-file mapping.

    Even items use composite drag with d_hinge = d_membrane and n*h >= 1.5,
    which makes gamma > 1; odd items are hinge-free (gamma < 1). beta is
    stratified inside each block so any whole block spans its range evenly.
    """
    block, k = divmod(index, POP_BLOCK)
    rng = random.Random(1_000_003 * block + k)
    strata = random.Random(block).sample(range(POP_BLOCK), POP_BLOCK)
    category = _pop_category(k)

    def flagellum(beta: float, lam: float) -> dict:
        d_membrane = rng.uniform(0.0005, 0.05 * lam)
        if k % 2 == 0:
            h = rng.uniform(0.005, 0.03)
            n = rng.uniform(1.5, 12.0) / h
            d_hinge = d_membrane
        else:
            h, n = rng.uniform(0.005, 0.03), 0.0
            d_hinge = rng.uniform(0.0005, 0.05 * lam)
        return {"L": rng.uniform(0.02, 0.3), "A": beta * lam, "lambda": lam,
                "f": rng.uniform(0.0, 8.0), "d_membrane": d_membrane,
                "d_hinge": d_hinge, "w": rng.uniform(0.005, 0.08),
                "h": h, "n": n}

    lam = rng.uniform(0.03, 0.25)
    beta = 0.001 + 0.139 * (strata[k] + rng.random()) / POP_BLOCK
    anterior = flagellum(beta, lam)
    posterior = dict(anterior)
    posterior["f"] = rng.uniform(0.0, 8.0)
    if category == "asymmetric":
        lam2 = rng.uniform(0.03, 0.25)
        posterior = flagellum(rng.uniform(0.001, 0.14), lam2)
    a = rng.uniform(0.005, 0.08)
    if category in ("corner", "zero_body"):
        a = 0.0
    if category == "corner":
        anterior["L"] = posterior["L"] = 0.0
    if category in ("f1_zero", "both_zero"):
        anterior["f"] = 0.0
    if category in ("f2_zero", "both_zero"):
        posterior["f"] = 0.0
    return {
        "fluid": {"mu": rng.uniform(0.3, 3.0), "rho": rng.uniform(500.0, 1500.0)},
        "body": {"a": a, "mass": rng.uniform(0.05, 1.0)},
        "anterior": anterior,
        "posterior": posterior,
        "thrust_scale": rng.uniform(0.1, 10.0),
    }


def block_order(seed: int, n_blocks: int, block: int, salt: str) -> list[int]:
    """Pool indices in the seed's order: whole blocks, shuffled inside."""
    rng = random.Random(f"{salt}-{seed}")
    order = []
    for b in rng.sample(range(n_blocks), n_blocks):
        ks = list(range(block))
        rng.shuffle(ks)
        order.extend(b * block + k for k in ks)
    return order


def build_config(bf, item: dict):
    """RobotConfig from a population mapping."""
    def spec(role, d):
        return bf.FlagellumSpec(role=role, L=d["L"], A=d["A"], lam=d["lambda"],
                                f=d["f"], d_membrane=d["d_membrane"],
                                d_hinge=d["d_hinge"], w=d["w"], h=d["h"],
                                n=d["n"])
    return bf.RobotConfig(
        fluid=bf.FluidMedium(**item["fluid"]),
        body=bf.BodyGeometry(**item["body"]),
        anterior=spec(bf.ANTERIOR, item["anterior"]),
        posterior=spec(bf.POSTERIOR, item["posterior"]),
        thrust_scale=item["thrust_scale"])


def config_yaml(item: dict) -> str:
    """Block-style YAML; '%.17e' keeps every float exact and typed as float."""
    lines = []
    for section in ("fluid", "body", "anterior", "posterior"):
        lines.append(f"{section}:")
        lines.extend(f"  {key}: {value:.17e}"
                     for key, value in item[section].items())
    lines.append(f"thrust_scale: {item['thrust_scale']:.17e}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ freq-grid
# A pool of jobs sized from the package's documented uses: 41 x 41 heatmaps
# (C05, ROADMAP item 3) and 13..61-point sweeps (the CLI tests) over
# continuous frequency ranges. The reference holds a seeded subset of each
# job's cells; every other cell is checked for being finite.

FREQ_BLOCK = 12
FREQ_BLOCKS = 120
FREQ_KINDS = ("heatmap",) * 3 + ("f_sym",) * 3 + ("f1",) * 3 + ("f2",) * 3
PRESETS = ("default", "smooth")
HEATMAP_COUNTS = (41, 41)
HEATMAP_CELLS = 32   # reference cells per heatmap
SWEEP_ROWS = 4       # reference rows per sweep


def _freq_range(rng: random.Random, from_zero: bool) -> tuple[float, float]:
    lo = 0.0 if from_zero else rng.uniform(0.0, 1.5)
    return lo, lo + rng.uniform(3.0, 6.5)


def freq_item(index: int) -> dict:
    """Job ``index`` of the pool: per block of 12, three heatmaps and three
    sweeps on each of f_sym, f1 and f2; one job of each kind per block
    starts at f = 0. Heatmaps are a quarter of the jobs, so the job-time
    median lies among sweeps and the p90 among heatmaps. Sweep lengths are
    stratified inside each block so any whole block spans 13..61 evenly.
    """
    block, k = divmod(index, FREQ_BLOCK)
    rng = random.Random(3_000_017 * block + k)
    kind, preset, from_zero = FREQ_KINDS[k], rng.choice(PRESETS), k % 3 == 0
    if kind == "heatmap":
        n1, n2 = HEATMAP_COUNTS
        return {"kind": "heatmap", "preset": preset,
                "f1": _freq_range(rng, from_zero), "f2": _freq_range(rng, from_zero),
                "counts": HEATMAP_COUNTS, "output": rng.choice(OUTPUT_FIELDS),
                "cells": sorted(rng.sample(range(n1 * n2), HEATMAP_CELLS))}
    stratum = random.Random(block).sample(range(9), 9)[k - 3]
    count = 13 + int(49 * (stratum + rng.random()) / 9)
    start, stop = _freq_range(rng, from_zero)
    return {"kind": "sweep", "preset": preset, "axis": kind, "start": start,
            "stop": stop, "count": count,
            "cells": sorted(rng.sample(range(count), SWEEP_ROWS))}


def linear_grid(start: float, stop: float, count: int) -> list[float]:
    """The grid a sweep or heatmap axis should hold."""
    return [start + (stop - start) * (i / (count - 1)) for i in range(count)]


# ---------------------------------------------------------------- geom-search

GEOM_BLOCK = 20
GEOM_BLOCKS = 32
DESIGN_AXES = ("L", "A", "lambda", "f1")


def geom_item(index: int) -> dict:
    """Fit on a synthetic dataset, then optimize over 1-3 design axes.

    Per block of 20: three 3-axis speed searches (coarse 17, the most the
    optimizer allows on 3 axes), fourteen 2-axis efficiency searches at the
    CLI's default of 33 coarse points per axis, and three 1-axis speed
    searches with 17..300 coarse points, stratified inside the block. The
    job-time median lies among the 2-axis searches and the p90 among the
    3-axis ones.
    """
    block, k = divmod(index, GEOM_BLOCK)
    rng = random.Random(2_000_003 * block + k)
    n_axes = 3 if k < 3 else (2 if k < 17 else 1)
    preset = "smooth" if rng.random() < 0.7 else "default"
    s0 = rng.uniform(0.004, 0.008)
    points = []
    for j in range(rng.randint(3, 8)):
        L = rng.uniform(0.065, 0.12)
        f = rng.uniform(1.0, 6.0)
        speed = s0 * f * (L / 0.12) ** 2 * (1.0 + rng.uniform(-0.1, 0.1))
        points.append((L, f, f, speed, 0.05 * speed, f"synthetic-{j}"))
    axes = rng.sample(DESIGN_AXES, n_axes)
    intervals = {}
    for name in axes:
        if name == "L":
            lo = rng.uniform(0.05, 0.15)
            intervals[name] = (lo, lo + rng.uniform(0.02, 0.1))
        elif name == "A":
            lo = rng.uniform(0.001, 0.008)
            intervals[name] = (lo, lo + rng.uniform(0.002, 0.01))
        elif name == "lambda":
            lo = rng.uniform(0.06, 0.14)
            intervals[name] = (lo, lo + rng.uniform(0.02, 0.08))
        else:
            lo = rng.uniform(0.5, 3.0)
            intervals[name] = (lo, lo + rng.uniform(1.0, 5.0))
    constraint = None
    if "f1" in intervals and rng.random() < 0.3:
        constraint = intervals["f1"][1] + rng.uniform(0.5, 3.0)
    if n_axes == 2:
        coarse = 33
    elif n_axes == 1:
        stratum = random.Random(-1 - block).sample(range(3), 3)[k - 17]
        coarse = 17 + int(284 * (stratum + rng.random()) / 3)
    else:
        coarse = 17
    return {"preset": preset, "points": points,
            "coupling": rng.random() < 0.5,
            "rel_tol": 10.0 ** rng.uniform(-8.0, -4.0),
            "intervals": intervals, "constraint_sum": constraint,
            "objective": "efficiency" if n_axes == 2 else "speed",
            "coarse": coarse}


# ------------------------------------------------------------------- cli-cold
# The C12 argument sets of tests/test_acceptance.py plus `solve --config` on
# a population YAML file.

CLI_KINDS = {
    "solve": ["solve", "--config", "default"],
    "sweep": ["sweep", "--axis", "f_sym", "--from", "0", "--to", "6",
              "--count", "13", "--out", "{dir}/sweep.csv",
              "--plot", "{dir}/sweep.svg"],
    "heatmap": ["heatmap", "--f1-from", "0.5", "--f1-to", "6",
                "--f1-count", "5", "--f2-from", "0.5", "--f2-to", "6",
                "--f2-count", "5", "--out", "{dir}/heatmap.csv"],
    "oracle-check": ["oracle-check", "--config", "default"],
    "calibrate": ["calibrate"],
    "calibrate-default": ["calibrate", "--config", "default"],
    "optimize": ["optimize", "--objective", "efficiency",
                 "--bounds", "f1=0.5:8.32,f2=0.5:8.32",
                 "--constraint-sum", "8.82", "--config", "default"],
    "solve-yaml": ["solve", "--config", "{dir}/config-{index}.yaml"],
}
CLI_FILES = {"sweep": ("sweep.csv", "sweep.svg"), "heatmap": ("heatmap.csv",)}


CLI_BLOCK = len(CLI_KINDS) + 1  # each argument set once, oracle-check twice
CLI_GROUP_BLOCKS = 6           # one solve-yaml config in six is the corner


def cli_jobs(seed: int):
    """Endless seeded sequence of (kind, population index or None).

    Per block of nine: each argument set once and oracle-check, the slowest,
    once more, so the job-time tail percentile lies among oracle-check runs
    rather than in the noise at the top of the other kinds. Per group of six
    blocks, the first solve-yaml config is an L = 0, a = 0 corner and the
    other five are other population items, so every group meets the known
    defect exactly once, whatever the seed.
    """
    rng = random.Random(f"cli-cold-{seed}")
    pop = block_order(seed, POP_BLOCKS, POP_BLOCK, "cli-population")
    corners = [i for i in pop if _pop_category(i % POP_BLOCK) == "corner"]
    others = [i for i in pop if _pop_category(i % POP_BLOCK) != "corner"]
    per_group = CLI_GROUP_BLOCKS - 1
    n = 0
    while True:
        kinds = list(CLI_KINDS) + ["oracle-check"]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "solve-yaml":
                group, k = divmod(n, CLI_GROUP_BLOCKS)
                yield kind, (corners[group % len(corners)] if k == 0 else
                             others[(per_group * group + k - 1) % len(others)])
                n += 1
            else:
                yield kind, None


def cli_argv(kind: str, workdir: str, index: int | None = None) -> list[str]:
    return [arg.replace("{dir}", workdir).replace("{index}", str(index))
            for arg in CLI_KINDS[kind]]


# ------------------------------------------------------------------ run size
# A timed run is a fixed list of jobs: the whole blocks closest to --seconds
# of job time at the defining commit's speed on the 2-vCPU host where the
# benchmark was defined (jobs per second below), and at least one block. The
# seed fixes every job of a run and every run holds the same number of each
# kind, so `attempted` and `failed` depend neither on the host's speed nor on
# the seed, and no input repeats within a run of 20 s.
RUN_RATE = {"freq-grid": (18.0, FREQ_BLOCK), "geom-search": (7.0, GEOM_BLOCK),
            "oracle-xcheck": (60.0, POP_BLOCK),
            "cli-cold": (2.7, CLI_GROUP_BLOCKS * CLI_BLOCK)}


def run_size(workload: str, seconds: float) -> int:
    """Number of jobs in a timed run of ``workload``."""
    rate, block = RUN_RATE[workload]
    return block * max(1, round(seconds * rate / block))


# ------------------------------------------------------------------ compare

class Outcome:
    """Tally of operations: attempted, failed, and mismatches with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.raw_errors: dict[str, int] = {}
        self.examples: list[str] = []

    def op(self, ok: bool, why: str = "", mismatch: bool = True) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if mismatch:
            self.mismatched += 1
        if len(self.examples) < 5:
            self.examples.append(why)

    def raw(self, name: str) -> None:
        """Count an exception that is not a BiflagError, by class name."""
        self.raw_errors[name] = self.raw_errors.get(name, 0) + 1


def close(value, ref, atol: float = 0.0) -> bool:
    """Finite and within CF_RTOL of the larger magnitude plus ``atol``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if not math.isfinite(value):
        return False
    return abs(value - ref) <= CF_RTOL * max(abs(value), abs(ref)) + atol


def compare_values(values, refs, atols=None) -> str:
    """'' when every value matches, else a short reason."""
    if len(values) != len(refs):
        return f"{len(values)} values, reference has {len(refs)}"
    for i, (v, r) in enumerate(zip(values, refs)):
        if not close(v, r, atols[i] if atols else 0.0):
            return f"value {i}: {v!r} vs reference {r!r}"
    return ""


def check_error(exc: BaseException, ref: dict, bf) -> tuple[bool, bool, str]:
    """(ok, counts_as_mismatch, reason) for an exception against a reference.

    ``ref`` is the reference entry: a value list, or {"error": name,
    "raw": bool}.
    """
    typed = isinstance(exc, bf.BiflagError)
    name = type(exc).__name__
    if isinstance(ref, dict) and "error" in ref:
        if ref["raw"]:
            return typed, False, f"raw {name} (known defect)"
        return name == ref["error"], True, f"{name} vs reference {ref['error']}"
    return False, True, f"{name} where the reference has a value: {exc}"


def solve_values(result) -> list[float]:
    return [getattr(result, name) for name in SOLVE_FIELDS]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------- CLI parsing

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines[1:]]


def compare_json(value, ref, atol_of) -> str:
    """Structural JSON comparison; key order must match exactly.

    ``atol_of(key)`` gives the absolute tolerance for numbers under ``key``.
    """
    def walk(v, r, key):
        if isinstance(r, dict):
            if not isinstance(v, dict) or list(v) != list(r):
                return f"keys under {key!r} differ"
            for name in r:
                why = walk(v[name], r[name], name)
                if why:
                    return why
            return ""
        if isinstance(r, list):
            if not isinstance(v, list) or len(v) != len(r):
                return f"list under {key!r} differs in length"
            for a, b in zip(v, r):
                why = walk(a, b, key)
                if why:
                    return why
            return ""
        if isinstance(r, float) or (isinstance(r, int) and not isinstance(r, bool)):
            return "" if close(v, r, atol_of(key)) else f"{key}: {v!r} vs {r!r}"
        return "" if v == r else f"{key}: {v!r} vs {r!r}"
    return walk(value, ref, "")


def _printed_unit(number: str) -> float:
    """Value of one unit in the last printed digit, e.g. 0.01 for '3.25'."""
    mantissa, _, exponent = number.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_svg(text: str, ref: str) -> str:
    """Text outside numbers must match exactly; numbers to one printed unit."""
    if _NUMBER.split(text) != _NUMBER.split(ref):
        return "svg text differs"
    for a, b in zip(_NUMBER.findall(text), _NUMBER.findall(ref)):
        if abs(float(a) - float(b)) > 1.001 * _printed_unit(b):
            return f"svg number {a} vs {b}"
    return ""


def workdir(name: str) -> str:
    path = HERE / ".work" / name
    path.mkdir(parents=True, exist_ok=True)
    return str(path)
