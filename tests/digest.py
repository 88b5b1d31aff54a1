"""Digest of every output bit of biflag's solvers and workloads.

Runs the closed form, the oracle and the workloads built on them over a
fixed set of inputs and hashes each output as ``float.hex``, or each
error as its class and message. Two trees whose digests and counts agree
give the same bits on every one of these inputs. Compare trees with

    PYTHONPATH=<tree>/src python tests/digest.py

once per tree. The inputs are 3,000 ``random_config`` draws, each with
its zero corner, an overflowing variant, a variant with an integer
beyond double range, a posterior that differs by 1e-9 relative and one
that differs by 1e-13, through ``full_solve``, ``solve_velocity`` and
``oracle_full_solve``, the last also with coarse static flagella and a
narrow speed bracket; then heatmaps and sweeps on both backends (each
closed-form heatmap of every output in OUTPUT_COLUMNS also on ranges up
to 4e155 and 1e155 Hz, where most configs overflow in row 0 past its
first point or in a later row, and one heatmap per backend has an f2
range that falls below 0 Hz, so each of these hashes where its grid
stops), design searches and fits on every 30th draw, its corner and its
1e-9 variant, and on the default and smooth presets and the default's
gamma = 1 twin (four searches per config and objective cross a check or
overflow mid-grid: A >= lambda/2 with two and with three free axes, a
constrained f2 below 0, and an L at which thrust_scale 1e300
overflows; on the presets and their variants below, six more have
designs that fault as they are evaluated: a body mass of 5e-324, where
m*g*|U| underflows, frequencies at which U overflows, and frequencies
at which the field sum of full_solve overflows while each field is
finite); then every design search of a preset on each of its
variants whose posterior differs by 1e-9 relative in one of
MISMATCHES, with that field's axis free or fixed; then closed-form
heatmaps and frequency sweeps from 0 Hz up to each of TOPS, on both
sides of the bound under which a frequency grid forms no thrusts, on
those three presets, on the default and its gamma = 1 twin at each of
BOUNDS, and on every 30th draw and its corner; last, on every 30th
draw, a fit without coupling at ``rel_tol=1e-15`` and the same fit on
an overflowing variant, a variant with an integer beyond double range
and a posterior that differs by 1e-9 relative, each drawn in turn, so
that a fit's errors are hashed too; last, the oracle with the anterior,
the posterior or both flagella static (f = 0) at 16 and 512 segments,
and at 2**20 on the presets and every 300th draw, on those three
presets and every 30th draw, each also with L = 0 and with each of
INT_GEOMETRY, where the points solve as well; last, every count that
an entry point takes (COUNTS) at its least - 1, at 2**20 + 1, at a
float with and without a fraction and at a bool, none of which builds a
grid of values; and last, in ``drags``, brennen_winet, composite_coeffs
and RobotConfig.effective_drag on DRAG_EXTREMES. It takes about fifteen
seconds.

Before the closing ``sha256`` and ``values … errors`` lines it prints one
sub-digest per function of SECTIONS, over everything hashed while that
function runs, nested calls included, so a digest that moves names the
sections that moved with it. The closing lines cover every section but
``drags``, which has only its own sub-digest, so that they still compare
with those of a tree whose script has no ``drags``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import biflag as bf  # noqa: E402
from biflag.core import SLENDER_LOG_LIMIT  # noqa: E402
from biflag.sweep import OUTPUT_COLUMNS  # noqa: E402
from conftest import random_config, zero_corner  # noqa: E402

DRAWS = 3000
SEED = 20261019

#: a value beyond what each field's arithmetic can hold, by (section, field)
OVERFLOWS = (("cfg", "thrust_scale", 1e300), ("fluid", "mu", 1e300),
             ("fluid", "rho", 1e300), ("body", "mass", 1e-320),
             ("body", "a", 1e300), ("flagella", "L", 1e300),
             ("flagella", "lam", 1e300), ("flagella", "d_membrane", 1e-320),
             ("flagella", "w", 1e300), ("flagella", "n", 1e300))
BEYOND = [(section, name, 10 ** 400) for section, name, _ in OVERFLOWS] + [
    ("flagella", "f", 10 ** 400), ("flagella", "A", 10 ** 400)]
#: coarse static flagella and a bracket that many roots fall outside
NARROW = bf.OracleSettings(n_segments=64, u_bracket=(-0.01, 0.01))
#: posterior fields that the identical-flagella check sees, alone
MISMATCHES = ("d_membrane", "d_hinge", "w", "h", "n", "A", "L", "lam")
UP = math.inf
#: static-flagellum resolutions: the least n_segments, the default and the
#: most
SEGMENTS = (16, 512, 2 ** 20)
#: int (a, L) below 2**53, where an int converts to a float exactly; None
#: keeps the float of the config
INT_GEOMETRY = ((0, 0), (3, 2), (2 ** 53 - 1, 1), (0, 2 ** 52 + 1),
                (None, 7), (2 ** 40, None))
#: the top frequencies of grids_to_tops: where lambda is below 1, grids up
#: to 1e30 Hz are bounded and the next float is not; at lambda = 2 the
#: same holds for wave speeds, at 5e29 Hz and the next float
TOPS = (8.0, 5e29, math.nextafter(5e29, UP), 1e30, math.nextafter(1e30, UP))
#: a grid of the default preset is bounded at the first value of each pair
#: and not at the second (the thrust_scale puts the speed's denominator at
#: 1e30); the preset and its gamma = 1 twin take each in turn
BOUNDS = (("fluid", "rho", 1e30), ("fluid", "rho", math.nextafter(1e30, UP)),
          ("fluid", "mu", 1e-30), ("fluid", "mu", math.nextafter(1e-30, 0)),
          ("cfg", "thrust_scale", 8.048312113418271e30),
          ("cfg", "thrust_scale", math.nextafter(8.048312113418271e30, UP)),
          ("cfg", "thrust_scale", 1.5e31), ("flagella", "lam", 2.0))


#: each count-taking entry point, by label, as a function of the count
COUNTS = {
    "linear_grid": lambda n: bf.linear_grid(0.0, 1.0, n),
    "SweepSpec.count": lambda n: bf.SweepSpec("f_sym", 0.0, 1.0, n),
    "heatmap n1": lambda n: bf.heatmap(
        bf.default_config(), (0.0, 8.0), (0.5, 6.0), (n, 2)),
    "heatmap n2": lambda n: bf.heatmap(
        bf.default_config(), (0.0, 8.0), (0.5, 6.0), (2, n)),
    "OracleSettings.n_segments": lambda n: bf.OracleSettings(n_segments=n),
    "OracleSettings.n_time": lambda n: bf.OracleSettings(n_time=n),
    "optimize_design coarse": lambda n: bf.optimize_design(
        bf.smooth_config(), bf.DesignBounds({"f1": (0.5, 6.0)}), "speed",
        coarse=n),
}
#: the least count of each of COUNTS where it is not 1; each but n_time
#: takes at most 2**20
LEAST = {"OracleSettings.n_segments": 16, "OracleSettings.n_time": 8}

#: the d at which ln(4*lambda/d) = 2.90 at lambda = 0.1, a few ulps from
#: it, inside it and past it, and beyond double range
POLE = 0.4 / math.exp(SLENDER_LOG_LIMIT)
DIAMETERS = (math.nextafter(math.nextafter(POLE, 0.0), 0.0),
             math.nextafter(POLE, 0.0), POLE, math.nextafter(POLE, UP),
             math.nextafter(math.nextafter(POLE, UP), UP), 0.5 * POLE,
             1e-9 * POLE, 1.5 * POLE, 5e-324)
#: drag inputs at the edges of double range, each valid for its object:
#: mu, lambda (at the largest, 4*lambda/d overflows), d_membrane, d_hinge
#: (None: the membrane's), (n, h), w and thrust_scale
DRAG_EXTREMES = {
    "mu": (5e-324, 1.49, 1e300, 1e308), "lam": (0.1, 1.7e308),
    "d_membrane": DIAMETERS, "d_hinge": (None, 0.3 * POLE,
                                         math.nextafter(POLE, 0.0)),
    "nh": ((0.0, 0.016), (200.0, 0.016), (1e300, 1.0), (1e300, 1e300)),
    "w": (0.035, 5e-324), "scale": (1e-300, 1.0, 1e300)}

#: the functions that each keep a sub-digest, in the order printed
SECTIONS = ("solves", "statics", "workloads", "grids_to_tops", "searches",
            "fits", "static_flagella", "counts", "drags")


class Digest:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.sections = {name: hashlib.sha256() for name in SECTIONS}
        self.running = []  # the sub-digests of the sections being run
        self.values = 0
        self.errors = 0

    def update(self, data: bytes) -> None:
        """Hash ``data`` into the digest and each running section's."""
        self.sha.update(data)
        for sha in self.running:
            sha.update(data)

    def add(self, label: str, fn) -> None:
        """Hash ``label`` and what ``fn()`` returns or raises."""
        self.update(label.encode())
        try:
            out = fn()
        except Exception as exc:  # every class is recorded, raw ones too
            self.error(exc)
            return
        self._value(out)

    def error(self, exc: Exception) -> None:
        self.update(f"!{type(exc).__name__}: {exc}\n".encode())
        self.errors += 1

    def _value(self, out) -> None:
        if isinstance(out, (bool, str)) or out is None:
            self.update(repr(out).encode())
        elif isinstance(out, (int, float)):
            self.update(float.hex(float(out)).encode())
            self.values += 1
        elif isinstance(out, dict):
            for key, value in out.items():
                self._value(key)
                self._value(value)
        elif isinstance(out, (list, tuple)):
            for value in out:
                self._value(value)
        else:  # a result dataclass
            self._value(vars(out))
        self.update(b"\n")


def section(fn):
    """``fn(digest, ...)`` hashing into its SECTIONS sub-digest too."""
    @functools.wraps(fn)
    def run(digest: Digest, *args, **kwargs) -> None:
        digest.running.append(digest.sections[fn.__name__])
        try:
            fn(digest, *args, **kwargs)
        finally:
            digest.running.pop()
    return run


def varied(cfg: bf.RobotConfig, section: str, name: str, value):
    """``cfg`` with one field set to ``value``, on both flagella for a
    flagellum field; raises what building it raises."""
    if section == "cfg":
        return replace(cfg, **{name: value})
    if section in ("fluid", "body"):
        return replace(cfg, **{section: replace(getattr(cfg, section),
                                                **{name: value})})
    return replace(cfg, anterior=replace(cfg.anterior, **{name: value}),
                   posterior=replace(cfg.posterior, **{name: value}))


def mismatched(cfg: bf.RobotConfig, name: str, rel: float):
    """``cfg`` whose posterior ``name`` is scaled by 1 + rel."""
    value = getattr(cfg.posterior, name) * (1.0 + rel)
    return replace(cfg, posterior=replace(cfg.posterior, **{name: value}))


@section
def solves(digest: Digest, label: str, build) -> None:
    """Each point solver on the config ``build()`` returns."""
    try:
        cfg = build()
    except Exception as exc:
        digest.update(label.encode())
        digest.error(exc)
        return
    digest.add(label + " full", lambda: bf.full_solve(cfg))
    digest.add(label + " speed", lambda: bf.solve_velocity(cfg))
    digest.add(label + " oracle", lambda: bf.oracle_full_solve(cfg))
    digest.add(label + " oracle narrow", lambda: bf.oracle_full_solve(
        cfg, NARROW))


@section
def statics(digest: Digest, label: str, cfg: bf.RobotConfig,
            segments: tuple) -> None:
    """The oracle with either flagellum static and with both, at each of
    ``segments``: its solve and each flagellum's averages."""
    for values in ({"f1": 0.0}, {"f2": 0.0}, {"f_sym": 0.0}):
        static = bf.with_params(cfg, values)
        for n in segments:
            settings = bf.OracleSettings(n_segments=n)
            tag = f"{label} {values} n={n}"
            digest.add(tag + " oracle", lambda: bf.oracle_full_solve(
                static, settings))
            for k in (1, 2):
                digest.add(f"{tag} averages {k}", lambda: (
                    bf.flagellum_averages(static, k, settings)))


def int_geometry(cfg: bf.RobotConfig, a, L) -> bf.RobotConfig:
    """``cfg`` with an int body radius ``a`` and flagellum length ``L``,
    each where it is not None."""
    if a is not None:
        cfg = varied(cfg, "body", "a", a)
    return cfg if L is None else varied(cfg, "flagella", "L", L)


@section
def static_flagella(digest: Digest, label: str, cfg: bf.RobotConfig,
                    segments: tuple) -> None:
    """statics on ``cfg``, on it with L = 0 and, with the solves, on each
    of INT_GEOMETRY at the two coarsest of ``segments``."""
    statics(digest, label, cfg, segments)
    statics(digest, f"{label} L=0", varied(cfg, "flagella", "L", 0.0),
            segments)
    for a, L in INT_GEOMETRY:
        variant = int_geometry(cfg, a, L)
        solves(digest, f"{label} a={a} L={L}", lambda: variant)
        statics(digest, f"{label} a={a} L={L}", variant, segments[:2])


@section
def fits(digest: Digest, label: str, build) -> None:
    """A fit without coupling at the tightest tolerance on the config
    ``build()`` returns."""
    try:
        cfg = build()
    except Exception as exc:
        digest.update(label.encode())
        digest.error(exc)
        return
    digest.add(label + " fit", lambda: bf.fit_thrust_scale(
        bf.builtin_dataset(), cfg, rel_tol=1e-15))


@section
def workloads(digest: Digest, label: str, cfg: bf.RobotConfig,
              small: bool) -> None:
    """Heatmaps and sweeps on both backends, design searches and a fit."""
    n_cf, n_or = (5, 3) if small else (21, 5)
    for output in OUTPUT_COLUMNS:
        digest.add(f"{label} heatmap {output}", lambda: bf.heatmap(
            cfg, (0.0, 8.0), (0.5, 6.0), (n_cf, n_cf), output))
        digest.add(f"{label} heatmap {output} overflowing", lambda: bf.heatmap(
            cfg, (0.0, 4e155), (0.0, 1e155), (n_cf, n_cf), output))
    digest.add(f"{label} heatmap oracle", lambda: bf.heatmap(
        cfg, (0.0, 8.0), (0.5, 6.0), (n_or, n_or), "U_X", "oracle"))
    for backend, n in (("closed_form", n_cf), ("oracle", n_or)):
        digest.add(f"{label} heatmap {backend} falling f2", lambda: bf.heatmap(
            cfg, (0.0, 8.0), (2.0, -1.0), (n, n), "U_X", backend))
    anterior = cfg.anterior
    axes = {"f_sym": (0.0, 6.0), "f1": (0.5, 8.0), "f2": (0.0, 4.0),
            "L": (0.0, 2.0 * anterior.L + 0.01),
            "lambda": (2.2 * anterior.A + 1e-3, 3.0 * anterior.lam),
            "A": (0.0, 0.45 * anterior.lam)}
    for axis, (lo, hi) in axes.items():
        for backend, count in (("closed_form", 3 * n_cf), ("oracle", n_or)):
            digest.add(f"{label} sweep {axis} {backend}", lambda: bf.sweep(
                cfg, bf.SweepSpec(axis, lo, hi, count, backend)))
    digest.add(f"{label} sweep L coupled", lambda: bf.sweep(
        cfg, bf.SweepSpec("L", 0.05, 0.15, n_cf,
                          coupling=bf.AMPLITUDE_BY_LENGTH)))
    searches(digest, label, cfg, small)
    digest.add(f"{label} fit", lambda: bf.fit_thrust_scale(
        bf.builtin_dataset(), cfg, coupling=bf.AMPLITUDE_BY_LENGTH))


@section
def grids_to_tops(digest: Digest, label: str, cfg: bf.RobotConfig,
                  n: int) -> None:
    """Closed-form heatmaps of every output and frequency sweeps from 0 Hz
    to each of TOPS."""
    for top in TOPS:
        for output in OUTPUT_COLUMNS:
            digest.add(f"{label} heatmap {output} to {top!r}", lambda: (
                bf.heatmap(cfg, (0.0, top), (0.5, top), (n, n), output)))
        for axis in ("f_sym", "f1", "f2"):
            digest.add(f"{label} sweep {axis} to {top!r}", lambda: bf.sweep(
                cfg, bf.SweepSpec(axis, 0.0, top, 3 * n)))


@section
def searches(digest: Digest, label: str, cfg: bf.RobotConfig,
             small: bool) -> None:
    """Design searches on both objectives, the last three boxes and the
    searches that fail as they are evaluated only where not ``small``."""
    lam, lam_lo = cfg.anterior.lam, 2.2 * cfg.anterior.A + 1e-3
    # the last three fail mid-grid: at A >= lambda/2, at f2 = 4 - f1 < 0,
    # and at A >= lambda/2 on three axes; so does the overflowing L below
    bounds = [({"f1": (0.5, 6.0)}, None),
              ({"f1": (0.5, 8.0), "f2": (0.5, 8.0)}, 8.82),
              ({"f1": (0.5, 6.0), "f2": (0.5, 6.0)}, None),
              ({"lambda": (lam_lo, 0.3)}, None),
              ({"f1": (0.5, 6.0), "A": (0.0, 0.6 * lam)}, None),
              ({"f1": (0.5, 8.0)}, 4.0),
              ({"L": (0.0, 0.2), "A": (0.0, 0.6 * lam),
                "lambda": (lam, 2.0 * lam)}, None)]
    if not small:
        bounds += [({"L": (0.0, 0.2), "A": (0.0, 0.01), "f1": (0.5, 6.0)},
                    None),
                   ({"A": (0.0, 0.01), "lambda": (0.05, 0.2)}, None),
                   ({"L": (0.0, 0.2), "A": (0.0, 0.01),
                     "lambda": (0.05, 0.2)}, None)]
    for intervals, total in bounds:
        for objective in ("speed", "efficiency"):
            digest.add(f"{label} optimize {intervals} {total} {objective}",
                       lambda: bf.optimize_design(
                           cfg, bf.DesignBounds(intervals, total), objective))
    # thrust_scale 1e300 scales K_N*L past double range at some L in the grid
    scaled = replace(cfg, thrust_scale=1e300)
    for objective in ("speed", "efficiency"):
        digest.add(f"{label} optimize overflowing L {objective}",
                   lambda: bf.optimize_design(
                       scaled, bf.DesignBounds({"L": (0.0, 1e11)}), objective))
    if small:
        return
    # designs that fail as they are evaluated, not at a check: m*g*|U|
    # underflows to 0 (CoT), U overflows, and at thrust_scale 1e300 the
    # field sum of full_solve overflows near f_sym = power_top(scaled),
    # where each field is finite
    light = replace(cfg, body=replace(cfg.body, mass=5e-324))
    for objective in ("speed", "efficiency"):
        digest.add(f"{label} optimize underflowing CoT {objective}",
                   lambda: bf.optimize_design(
                       light, bf.DesignBounds({"f1": (0.0, 6.0)}), objective))
        digest.add(f"{label} optimize overflowing U {objective}",
                   lambda: bf.optimize_design(
                       scaled, bf.DesignBounds({"f1": (1e6, 1e14)}),
                       objective))
        digest.add(f"{label} optimize overflowing field sum {objective}",
                   lambda: bf.optimize_design(scaled, bf.DesignBounds({
                       name: (0.8 * power_top(scaled), 1.25 * power_top(
                           scaled)) for name in ("f1", "f2")}), objective))


def power_top(cfg: bf.RobotConfig) -> float:
    """The f_sym at which P1 + P2 of ``cfg`` reaches the largest float, as
    P grows with f**2, or inf where that lies past it; raises what
    full_solve raises at f_sym = 1 Hz."""
    result = bf.full_solve(bf.with_params(cfg, {"f_sym": 1.0}))
    return math.sqrt(sys.float_info.max) / math.sqrt(result.P1 + result.P2)


@section
def counts(digest: Digest) -> None:
    """Each of COUNTS at its least - 1, at 2**20 + 1, at a float with and
    without a fraction and at a bool; a heatmap also at a product of
    counts just past 2**20, and optimize_design's coarse also below 17, at
    an integral Fraction and at each input that is no finite number."""
    for label, fn in COUNTS.items():
        least = LEAST.get(label, 1)
        for n in (least - 1, 2 ** 20 + 1, 33.7, 33.0, True, False):
            digest.add(f"{label} {n!r}", lambda: fn(n))
    digest.add("heatmap product", lambda: bf.heatmap(
        bf.default_config(), (0.0, 8.0), (0.5, 6.0), (2 ** 10 + 1, 2 ** 10)))
    for n in (-5, 16, Fraction(33), math.nan, math.inf, None, "x", "33"):
        digest.add(f"optimize_design coarse {n!r}",
                   lambda: COUNTS["optimize_design coarse"](n))


@section
def drags(digest: Digest) -> None:
    """brennen_winet on each (mu, lambda, d) of DRAG_EXTREMES, and
    composite_coeffs and effective_drag on each of their combinations."""
    x = DRAG_EXTREMES
    for mu, lam, d in itertools.product(x["mu"], x["lam"], x["d_membrane"]):
        digest.add(f"brennen_winet {mu!r} {lam!r} {d!r}",
                   lambda: bf.brennen_winet(mu, lam, d))
    for mu, lam, d_membrane, d_hinge, (n, h), w in itertools.product(
            x["mu"], x["lam"], x["d_membrane"], x["d_hinge"], x["nh"],
            x["w"]):
        spec = bf.FlagellumSpec(bf.ANTERIOR, lam=lam, d_membrane=d_membrane,
                                d_hinge=d_hinge or d_membrane, w=w, h=h, n=n)
        fluid, posterior = bf.FluidMedium(mu=mu), replace(
            spec, role=bf.POSTERIOR)
        label = (f"drag {mu!r} {lam!r} {d_membrane!r} {d_hinge!r} {n!r}"
                 f" {h!r} {w!r}")
        digest.add(f"{label} composite_coeffs",
                   lambda: bf.composite_coeffs(spec, fluid))
        for scale in x["scale"]:
            cfg = bf.RobotConfig(fluid, bf.BodyGeometry(), spec, posterior,
                                 scale)
            digest.add(f"{label} effective_drag {scale!r}",
                       lambda: cfg.effective_drag(spec))


def main() -> None:
    digest = Digest()
    rng = random.Random(SEED)
    configs = []
    for k in range(DRAWS):
        cfg = random_config(rng)
        configs.append(cfg)
        overflow = OVERFLOWS[k % len(OVERFLOWS)]
        beyond = BEYOND[k % len(BEYOND)]
        name = MISMATCHES[k % len(MISMATCHES)]
        solves(digest, f"{k}", lambda: cfg)
        solves(digest, f"{k} corner", lambda: zero_corner(cfg))
        solves(digest, f"{k} {overflow}", lambda: varied(cfg, *overflow))
        solves(digest, f"{k} {beyond[:2]}", lambda: varied(cfg, *beyond))
        solves(digest, f"{k} {name} 1e-9", lambda: mismatched(cfg, name, 1e-9))
        solves(digest, f"{k} {name} 1e-13",
               lambda: mismatched(cfg, name, 1e-13))
    # n*h = 1 makes gamma 1: U = 0 and P > 0, so CoT is infinite
    gamma_one = bf.default_config(h=0.02, n=50.0)
    for label, cfg in (("default", bf.default_config()),
                       ("smooth", bf.smooth_config()),
                       ("gamma 1", gamma_one)):
        workloads(digest, label, cfg, small=False)
        grids_to_tops(digest, label, cfg, 21)
        for name in MISMATCHES:
            searches(digest, f"{label} {name} 1e-9",
                     mismatched(cfg, name, 1e-9), small=False)
    for label, cfg in (("default", bf.default_config()),
                       ("gamma 1", gamma_one)):
        for bound in BOUNDS:
            grids_to_tops(digest, f"{label} {bound}", varied(cfg, *bound), 5)
    for k in range(0, DRAWS, 30):
        cfg = configs[k]
        workloads(digest, f"{k}", cfg, small=True)
        grids_to_tops(digest, f"{k}", cfg, 5)
        grids_to_tops(digest, f"{k} corner", zero_corner(cfg), 5)
        workloads(digest, f"{k} corner", zero_corner(cfg), small=True)
        name = MISMATCHES[k // 30 % len(MISMATCHES)]
        workloads(digest, f"{k} {name} 1e-9", mismatched(cfg, name, 1e-9),
                  small=True)
    for k in range(0, DRAWS, 30):
        cfg = configs[k]
        overflow = OVERFLOWS[k // 30 % len(OVERFLOWS)]
        beyond = BEYOND[k // 30 % len(BEYOND)]
        name = MISMATCHES[k // 30 % len(MISMATCHES)]
        fits(digest, f"{k}", lambda: cfg)
        fits(digest, f"{k} {overflow}", lambda: varied(cfg, *overflow))
        fits(digest, f"{k} {beyond[:2]}", lambda: varied(cfg, *beyond))
        fits(digest, f"{k} {name} 1e-9", lambda: mismatched(cfg, name, 1e-9))
    for label, cfg in (("default", bf.default_config()),
                       ("smooth", bf.smooth_config()),
                       ("gamma 1", gamma_one)):
        static_flagella(digest, label, cfg, SEGMENTS)
    for k in range(0, DRAWS, 30):
        static_flagella(digest, f"{k}", configs[k],
                        SEGMENTS if k % 300 == 0 else SEGMENTS[:2])
    counts(digest)
    closing = digest.sha.copy(), digest.values, digest.errors
    drags(digest)
    for name, sha in digest.sections.items():
        print(f"{name} {sha.hexdigest()}")
    sha, values, errors = closing
    print(f"sha256 {sha.hexdigest()}")
    print(f"values {values} errors {errors}")


if __name__ == "__main__":
    main()
