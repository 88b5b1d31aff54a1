"""Parameter sweeps and frequency heatmaps over either solver backend.

Grids are uniform and inclusive of both endpoints. Rows are assembled
in axis order, so identical inputs always produce bit-identical tables.

SOLVERS is the one map from backend name to solver, which solves each
point from a fresh config. A closed-form grid over frequencies (axes
f_sym, f1 and f2, and every heatmap) first checks every frequency and
computes the constants that no frequency changes once. Where _certified
then proves, once for the whole grid, that no point can fail, one pass
that builds no flagellum spec and no SolveResult forms each point's
OUTPUT_COLUMNS values (the one asked for, or all seven) inline, with no
check per point: each row forms only what its output needs, and each
flagellum's per-wave constants once per row or column where a power
needs them. Where a check fails or the grid is not certified, the grid
is solved point by point, which names the first point that fails. Each
value is exactly what full_solve gives on a fresh config at that point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

from .closed_form import (
    RobotConfig,
    SolveResult,
    _body,
    _check_config,
    _kernel,
    _wave,
    full_solve,
)
from .core import (
    _MOST_POINTS,
    _bound,
    _check_count,
    _check_finite,
    _check_real,
    _pair,
)
from .errors import BiflagError, NumericalError, ParameterError
from .oracle import OracleSettings, oracle_full_solve
from .presets import _amplitude, _knots, with_params

AXIS_COLUMNS = {
    "f_sym": "f_hz",
    "f1": "f1_hz",
    "f2": "f2_hz",
    "L": "L_m",
    "lambda": "lambda_m",
    "A": "A_m",
}

OUTPUT_COLUMNS = {
    "U_X": "U_m_s",
    "P1": "P1_W",
    "P2": "P2_W",
    "P0": "P0_W",
    "eta": "eta",
    "CoT": "CoT",
    "Re": "Re",
}

#: solver(cfg, settings) of each backend; each looks its function up by
#: name when called, so a wrapper bound over that name sees every call
SOLVERS = {
    "closed_form": lambda cfg, settings: full_solve(cfg),
    "oracle": lambda cfg, settings: oracle_full_solve(cfg, settings),
}

BACKENDS = tuple(SOLVERS)


def _is_name(value: object, names: Mapping[str, object]) -> bool:
    """Whether ``value`` is one of the keys of ``names``; false for a value
    that is not a string, hashable or not."""
    return isinstance(value, str) and value in names


def _check_end(name: str, value: float, owner: object = None) -> float:
    """The one check of a grid end: ``value`` as a float (core._real,
    which stores it in ``owner``); ParameterError where it is NaN or
    infinite."""
    return _check_finite(name, _check_real(name, value, owner))


def linear_grid(start: float, stop: float, count: int) -> list[float]:
    """Uniform inclusive grid of floats: its first point is ``start``
    itself and its last ``stop`` itself, so that every point of an
    ascending grid lies in [start, stop].

    Raises ParameterError for a count that is not an integer from 1 to
    2**20, an endpoint that is not a number, is NaN or infinite,
    NumericalError for an int endpoint beyond double range, and where the
    span stop - start overflows.
    """
    count = _check_count("count", count)
    start = _check_end("grid start", start)
    stop = _check_end("grid stop", stop)
    if count == 1:
        return [start]
    span = stop - start
    if abs(span) == math.inf:  # both ends are finite
        raise NumericalError(f"grid span from {start!r} to {stop!r} overflows:"
                             " the inputs lie beyond double-precision range")
    grid = [start + span * (i / (count - 1)) for i in range(count)]
    # start + span * 0.0 turns a -0.0 start into 0.0, and start + span
    # can round past stop
    grid[0], grid[-1] = start, stop
    return grid


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description."""

    axis: str
    start: float
    stop: float
    count: int
    backend: str = "closed_form"
    # L -> A, axis "L" only; no part of the hash
    coupling: Mapping[float, float] | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if not _is_name(self.axis, AXIS_COLUMNS):
            raise ParameterError(
                f"axis: must be one of {sorted(AXIS_COLUMNS)}")
        _check_end("start", self.start, self)
        _check_end("stop", self.stop, self)
        if self.start > self.stop:
            raise ParameterError("start: must be <= stop")
        object.__setattr__(self, "count", _check_count("count", self.count))
        if not _is_name(self.backend, SOLVERS):
            raise ParameterError(f"backend: must be one of {BACKENDS}")
        if self.coupling is not None and self.axis != "L":
            raise ParameterError("coupling: only valid with axis 'L'")
        if self.coupling is not None and not isinstance(self.coupling,
                                                        Mapping):
            raise ParameterError(
                f"coupling: must be a mapping, got {self.coupling!r}")


@dataclass
class Table:
    """Rectangular numeric result table."""

    columns: list[str]
    rows: list[list[float]]


@dataclass
class HeatmapResult:
    """Row-major grid: values[i][j] is the output at (f1[i], f2[j])."""

    f1: list[float]
    f2: list[float]
    output: str
    values: list[list[float]]


def _bounded(kernel: tuple, body: tuple, lam1: float, f1_values: list,
             lam2: float, f2_values: list) -> bool:
    """Whether every point of a closed-form frequency grid keeps each
    field of full_solve but eta finite, from the _kernel and _body of its
    config and its frequencies, each of which has passed _bound("f", f);
    false, never an error, where that is not shown. It also bounds each
    pass of calibrate's efficiency search, from calibrate._envelope.

    True where every first-stage constant, 6*pi*mu*a, rho, 2a, each
    frequency, each wave speed and the largest |U| are at most 1e30 in
    magnitude, and mu is at least 1e-30. At each point 0 <= f <=
    max(values), and since rounding is monotone, v_w <= lam*max(values)
    and |U| <= abs(num)*(v1max + v2max)/abs(den), which a zero
    denominator bounds only where num is 0 too.

    Each _wave term is then below about 2e61 (c) or 1e90 (t, w), every
    ``**`` operand below 1e62, and F1, F2, F_body, the residual, P1, P2,
    P0 and Re below about 1e183. A point can then fail only through the
    inconsistency check (P0 with zero flagellar power), CoT's division by
    an underflowed zero, or an eta that is not finite: _certified rules
    out all three for a frequency grid, so that _frequency_grid forms no
    thrust and checks no point.
    """
    (num, den), flagellum1, flagellum2 = kernel
    stokes, _, rho, diameter, mu, _ = body
    f1max = max(f1_values)
    f2max = f1max if f2_values is f1_values else max(f2_values)
    v1, v2 = lam1 * f1max, lam2 * f2max
    top = (abs(num) * (v1 + v2) / abs(den) if den
           else math.inf if num else 0.0)
    # max() keeps a NaN only in first place, and top is NaN or infinite
    # wherever num is NaN; none of the others can be
    return mu >= 1e-30 and max(map(abs, (
        top, num, den, *flagellum1, *flagellum2, stokes, rho, diameter,
        f1max, f2max, v1, v2))) <= 1e30


#: the certificate's limits (_certified): the least m/K, the least m times
#: the square of the least positive wave speed, and the largest eta bound
_MARGIN, _LEAST_POWER, _MOST_ETA = 1e-6, 1e-150, 1e300


def _certified(kernel: tuple, body: tuple, lam1: float, f1_values: list,
               lam2: float, f2_values: list) -> bool:
    """Whether no point of a closed-form frequency grid can fail in
    full_solve, from the _kernel and _body of its config and its
    frequencies, each of which has passed _bound("f", f); false, never an
    error, where that is not shown. Past _bounded's scan for each axis's
    largest frequency, one scan finds its least positive one (an axis may
    run in either direction); the rest is O(1).

    Past _bounded, a point can fail only where P0 != 0 meets zero
    flagellar power, where eta is not finite, or where CoT divides by an
    underflowed m*g*|U|. Where num or den is 0, U = 0 at every point and
    none of these can happen. Otherwise write s = |num/den|, so that U =
    s*v up to rounding, v = v1 + v2 being the point's two wave speeds
    (lam*f, as the loop forms them). With gamma = g + 1 >= 0 (g, the
    rounded gamma - 1, is at least -1) and _wave's c = q*v and w = q*v^2,
    each power is exactly, for any U,

        P1 = knl/(1+q) * [gamma*(q*v1 - U)^2 + q*(U + v1)^2],
        P2 = knl/(1+q) * [gamma*(q*v2 + U)^2 + q*(U - v2)^2],

    and (U + v1)^2 + (U - v2)^2 >= v^2/2, so P1 + P2 >= m*v^2 with m the
    least knl*q/(2*(1+q)) of the two flagella. The magnitudes of the
    summands the loop adds for a power sum to at most K*v^2, with K the
    largest knl*(|g|*(q+s)^2/(1+q) + s^2 + q): as U and w both grow with
    q, m/K stays of order one for any beta (0.42 on both presets). The
    loop's rounding, about a dozen steps per power, moves P1 + P2 by at
    most some tens of ulps of K*v^2 and, on subnormals, whose rounding is
    at most 2**-1075 a step and is scaled by at most about 1e123 within
    _bounded's limits, by less than 1e-190. So where m >= 1e-6*K and
    m*v_min^2 >= 1e-150, v_min being the least positive lam*f of either
    axis (every positive wave-speed sum is at least that), the sum the
    loop forms is at least (1 - 1e-8)*m*v^2 > 0 at every v > 0; at v = 0,
    U and P0 are 0. P0 is at most stokes*s^2*v^2 up to rounding, so eta
    stays below (1 + 1e-7)*stokes*s^2/m, finite where that is at most
    1e300. Rounding is monotone, so |U| and m*g*|U| grow with v: where
    m*g*|U| at v_min, U formed as the loop forms it, is not 0, it is 0
    at no point with U != 0.
    """
    if not _bounded(kernel, body, lam1, f1_values, lam2, f2_values):
        return False
    (num, den), flagellum1, flagellum2 = kernel
    # each axis's least positive frequency, once where a sweep's axes are
    # one list; lam*inf is inf where an axis has none
    inf = math.inf
    least1 = min(filter(None, f1_values), default=inf)
    least2 = (least1 if f2_values is f1_values
              else min(filter(None, f2_values), default=inf))
    v_min = min(lam1 * least1, lam2 * least2)
    if not (num and den) or v_min == inf:  # U = 0 at every point
        return True
    s, m, K = abs(num / den), inf, 0.0
    for knl, g, _, q, den1 in ((flagellum1,) if flagellum2 == flagellum1
                               else (flagellum1, flagellum2)):
        m = min(m, knl * q / (2.0 * den1))
        K = max(K, knl * (abs(g) * (q + s) * (q + s) / den1 + s * s + q))
    stokes, weight, _, _, _, _ = body
    # m*v_min^2 first, so that m > 0 where it divides
    return (m * v_min * v_min >= _LEAST_POWER and m >= _MARGIN * K
            and stokes * s * s / m <= _MOST_ETA
            and weight * abs(num * v_min / den + 0.0) > 0.0)


def _frequency_grid(cfg: RobotConfig, f1_values: list[float],
                    f2_values: list[float], output: str | None,
                    diagonal: bool = False) -> list[list] | None:
    """The ``output`` of full_solve at each (f1_values[i], f2_values[j]),
    or with no output the OUTPUT_COLUMNS in order, in rows over f1; with
    ``diagonal`` and no output, row i holds only j = i. Closed-form only,
    as the oracle solves every point afresh.

    Equal to full_solve(with_params(cfg, {"f1": ..., "f2": ...})) at each
    point, or None where a frequency or the first stage fails or
    _certified does not hold: the caller then solves each point so, which
    names the first that fails. Where _certified holds no point can fail,
    so no point is checked, and each row forms only what its output
    needs: U for U_X, P0 and Re, U and that one power for P1 or P2, U,
    both powers and P0 for eta, U and both powers for CoT, and all of
    them for a sweep. Each is formed inline, with the expressions of
    _speed, _wave, _point and _fields in their order of operations; no
    thrust, body drag or residual is formed. A row's and a column's _wave
    are formed once, where a power needs them.
    """
    try:
        # a sweep over f_sym gives one list for both axes; a float >= 0
        # passes _bound("f", f), which any other value is given
        for f in (f1_values if f2_values is f1_values
                  else (*f1_values, *f2_values)):
            if not (type(f) is float and f >= 0.0):
                _bound("f", f)
        kernel, body = _kernel(cfg), _body(cfg)
    except (BiflagError, ArithmeticError):
        return None
    lam1, lam2 = cfg.anterior.lam, cfg.posterior.lam
    if not _certified(kernel, body, lam1, f1_values, lam2, f2_values):
        return None
    (num, den), flagellum1, flagellum2 = kernel
    if not den:  # num is 0 too: U = 0 at every point, as in _speed
        num, den = 0.0, 1.0
    stokes, weight, rho, diameter, mu, a = body
    # eta, CoT and a sweep's seven outputs are formed point by point,
    # each other output in one expression per point
    pointwise = output in (None, "eta", "CoT")
    eta_only, cot_only = output == "eta", output == "CoT"
    speeds = [lam2 * f2 for f2 in f2_values]
    # each column's wave speed and _wave, where a power needs them
    waves = ([(v_w2, *_wave(flagellum2, v_w2)) for v_w2 in speeds]
             if pointwise or output == "P2" else [])
    inf = math.inf
    grid = []
    for i, f1 in enumerate(f1_values):
        v_w1 = lam1 * f1
        if pointwise or output == "P1":
            knl1, g1, den1, _, c1, w1 = _wave(flagellum1, v_w1)
        if pointwise:
            row = []
            for v_w2, knl2, g2, den2, _, c2, w2 in (
                    waves[i:i + 1] if diagonal else waves):
                U = num * (v_w1 + v_w2) / den + 0.0
                U2 = U ** 2
                P1 = knl1 * (g1 * (c1 - U) ** 2 / den1 + U2 + w1)
                P2 = knl2 * (g2 * (c2 + U) ** 2 / den2 + U2 + w2)
                total = P1 + P2
                if eta_only:
                    P0 = stokes * U2
                    row.append(0.0 if P0 == 0.0 else P0 / total)
                    continue
                speed = abs(U)
                cot = (total / (weight * speed) if speed > 0 else
                       inf if total > 0 else 0.0)
                if cot_only:
                    row.append(cot)
                    continue
                P0 = stokes * U2
                row.append((U, P1, P2, P0, 0.0 if P0 == 0.0 else P0 / total,
                            cot, rho * speed * diameter / mu if a > 0
                            else 0.0))
        elif output == "U_X":
            row = [num * (v_w1 + v_w2) / den + 0.0 for v_w2 in speeds]
        elif output == "P1":
            row = [knl1 * (g1 * (c1 - U) ** 2 / den1 + U ** 2 + w1)
                   for v_w2 in speeds
                   for U in [num * (v_w1 + v_w2) / den + 0.0]]
        elif output == "P2":
            row = [knl2 * (g2 * (c2 + U) ** 2 / den2 + U ** 2 + w2)
                   for v_w2, knl2, g2, den2, _, c2, w2 in waves
                   for U in [num * (v_w1 + v_w2) / den + 0.0]]
        elif output == "P0":
            row = [stokes * (num * (v_w1 + v_w2) / den + 0.0) ** 2
                   for v_w2 in speeds]
        else:  # Re
            row = ([rho * abs(num * (v_w1 + v_w2) / den + 0.0) * diameter
                    / mu for v_w2 in speeds] if a > 0 else [0.0] * len(speeds))
        grid.append(row)
    return grid


#: the OUTPUT_COLUMNS of a point's fields, in order
_OUTPUTS = operator.itemgetter(*map(SolveResult._fields.index,
                                     OUTPUT_COLUMNS))


def sweep(cfg: RobotConfig, spec: SweepSpec,
          settings: OracleSettings | None = None) -> Table:
    """Every output along one axis: the axis column, then OUTPUT_COLUMNS.

    A model-precondition failure at any grid point aborts the whole
    sweep with an error naming the point; no partial table is returned.
    """
    _check_config(cfg)
    if not isinstance(spec, SweepSpec):
        raise ParameterError(f"spec: must be a SweepSpec, got {spec!r}")
    values = linear_grid(spec.start, spec.stop, spec.count)
    axis_col = AXIS_COLUMNS[spec.axis]

    def label(k: int) -> str:
        return f"sweep point {axis_col}={values[k]!r}"

    grid = None
    if spec.backend == "closed_form" and spec.axis in ("f_sym", "f1", "f2"):
        grid = _frequency_grid(
            cfg, [cfg.anterior.f] if spec.axis == "f2" else values,
            [cfg.posterior.f] if spec.axis == "f1" else values, None,
            diagonal=spec.axis == "f_sym")
    if grid is not None:
        outputs = itertools.chain.from_iterable(grid)
    else:
        solver = SOLVERS[spec.backend]
        knots = None
        if spec.coupling is not None:
            try:
                knots = _knots(spec.coupling, "coupling")
            except BiflagError as exc:
                raise type(exc)(f"{label(0)}: {exc}") from exc
        outputs = []
        for k, value in enumerate(values):
            point = {spec.axis: value}
            try:
                if knots is not None:
                    point["A"] = _amplitude(knots, value)
                outputs.append(_OUTPUTS(solver(with_params(cfg, point),
                                               settings)))
            except BiflagError as exc:
                raise type(exc)(f"{label(k)}: {exc}") from exc
    rows = [[value, *row] for value, row in zip(values, outputs)]
    return Table(columns=[axis_col, *OUTPUT_COLUMNS.values()], rows=rows)


def heatmap(cfg: RobotConfig, f1_range: tuple[float, float],
            f2_range: tuple[float, float], counts: tuple[int, int],
            output: str = "eta", backend: str = "closed_form",
            settings: OracleSettings | None = None) -> HeatmapResult:
    """Output over the (f1, f2) frequency grid, row-major in f1, of at most
    2**20 points."""
    _check_config(cfg)
    if not _is_name(output, OUTPUT_COLUMNS):
        raise ParameterError(f"output: unknown output {output!r}")
    if not _is_name(backend, SOLVERS):
        raise ParameterError(f"backend: must be one of {BACKENDS}")
    (f1_lo, f1_hi), (f2_lo, f2_hi), (n1, n2) = (
        _pair(f1_range, "f1_range"), _pair(f2_range, "f2_range"),
        _pair(counts, "counts"))
    f1_values = linear_grid(f1_lo, f1_hi, n1)
    f2_values = linear_grid(f2_lo, f2_hi, n2)
    if n1 * n2 > _MOST_POINTS:
        raise ParameterError(f"counts: product must be <= {_MOST_POINTS}")

    values = (_frequency_grid(cfg, f1_values, f2_values, output)
              if backend == "closed_form" else None)
    if values is None:
        solver = SOLVERS[backend]

        def evaluate(f1: float, f2: float) -> float:
            try:
                result = solver(with_params(cfg, {"f1": f1, "f2": f2}),
                                settings)
            except BiflagError as exc:
                raise type(exc)(f"heatmap point f1_hz={f1!r}, f2_hz={f2!r}:"
                                f" {exc}") from exc
            return getattr(result, output)

        values = [[evaluate(f1, f2) for f2 in f2_values] for f1 in f1_values]
    return HeatmapResult(f1=f1_values, f2=f2_values, output=output,
                         values=values)
