"""Parameter sweeps and frequency heatmaps over either solver backend.

Grids are uniform and inclusive of both endpoints. Rows are assembled
in axis order, so identical inputs always produce bit-identical tables.

SOLVERS is the one map from backend name to solver, which solves each
point from a fresh config. A closed-form grid over frequencies (axes
f_sym, f1 and f2, and every heatmap) first runs one pass that builds no
flagellum spec and no SolveResult: it checks every frequency, computes
the constants that no frequency changes once, each flagellum's per-wave
constants once per row or column, and from those, inline in its row
loop, each point's OUTPUT_COLUMNS values (the one asked for, or all
seven), not the thrusts, body drag and residual that no sweep or heatmap
returns. That pass runs only where _bounded shows that no thrust, power,
P0 or Re of any point can overflow, and gives up at any error; the grid
is then solved point by point, which names the first point that fails.
Each value is exactly what full_solve gives on a fresh config at that
point.
"""

from __future__ import annotations

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
    an underflowed zero, or an eta that is not finite, so _frequency_grid
    fails exactly where full_solve does without forming the thrusts.
    """
    (num, den), flagellum1, flagellum2 = kernel
    stokes, _, rho, diameter, mu, _ = body
    f1max, f2max = max(f1_values), max(f2_values)
    v1, v2 = lam1 * f1max, lam2 * f2max
    top = (abs(num) * (v1 + v2) / abs(den) if den
           else math.inf if num else 0.0)
    # max() keeps a NaN only in first place, and top is NaN or infinite
    # wherever num is NaN; none of the others can be
    return mu >= 1e-30 and max(map(abs, (
        top, num, den, *flagellum1, *flagellum2, stokes, rho, diameter,
        f1max, f2max, v1, v2))) <= 1e30


def _frequency_grid(cfg: RobotConfig, f1_values: list[float],
                    f2_values: list[float], output: str | None,
                    diagonal: bool = False) -> list[list] | None:
    """The ``output`` of full_solve at each (f1_values[i], f2_values[j]),
    or with no output the OUTPUT_COLUMNS in order, in rows over f1; with
    ``diagonal``, row i holds only j = i. Closed-form only, as the oracle
    solves every point afresh.

    Equal to full_solve(with_params(cfg, {"f1": ..., "f2": ...})) at each
    point, or None where _bounded does not hold or any point fails: the
    caller then solves each point so, which names the first that fails.
    A row's and a column's _wave are formed once. The row loop forms each
    point inline, with the expressions of _speed, _point and _fields in
    their order of operations, but no thrust, body drag or residual. A
    point fails where U, P0 or eta is not finite, and at any
    ArithmeticError, such as zero flagellar power with P0 != 0 or CoT's
    underflowed m*g*|U|; a zero speed denominator gives U = 0, as in
    _speed.
    """
    try:
        for f in (*f1_values, *f2_values):
            _bound("f", f)
        kernel, body = _kernel(cfg), _body(cfg)
        lam1, lam2 = cfg.anterior.lam, cfg.posterior.lam
        if not _bounded(kernel, body, lam1, f1_values, lam2, f2_values):
            return None
        (num, den), flagellum1, flagellum2 = kernel
        stokes, weight, rho, diameter, mu, a = body
        columns = [(v_w2, *_wave(flagellum2, v_w2))
                   for v_w2 in [lam2 * f2 for f2 in f2_values]]
        k = None if output is None else tuple(OUTPUT_COLUMNS).index(output)
        inf = math.inf
        grid = []
        for i, f1 in enumerate(f1_values):
            v_w1 = lam1 * f1
            knl1, g1, den1, t1, c1, w1 = _wave(flagellum1, v_w1)
            row = []
            for v_w2, knl2, g2, den2, t2, c2, w2 in (
                    columns[i:i + 1] if diagonal else columns):
                U = num * (v_w1 + v_w2) / den + 0.0 if den else 0.0
                U2 = U ** 2
                P1 = knl1 * (g1 * (c1 - U) ** 2 / den1 + U2 + w1)
                P2 = knl2 * (g2 * (c2 + U) ** 2 / den2 + U2 + w2)
                P0 = stokes * U2
                total = P1 + P2
                # P0 / 0.0 raises where _fields raises InconsistencyError
                eta = 0.0 if P0 == 0.0 else P0 / total
                # a sum is finite only where each term is
                if not -inf < U + P0 + eta < inf:
                    return None
                speed = abs(U)
                if speed > 0:
                    cot = total / (weight * speed)
                elif total > 0:
                    cot = inf
                else:
                    cot = 0.0
                if k is None:
                    row.append((U, P1, P2, P0, eta, cot,
                                rho * speed * diameter / mu if a > 0
                                else 0.0))
                else:
                    # the one output k of OUTPUT_COLUMNS, and Re only where
                    # it is kept: a tuple, or Re, at every point would cost
                    # about a tenth of a heatmap's time
                    row.append(U if k == 0 else P1 if k == 1 else
                               P2 if k == 2 else P0 if k == 3 else
                               eta if k == 4 else cot if k == 5 else
                               rho * speed * diameter / mu if a > 0
                               else 0.0)
            grid.append(row)
    except (BiflagError, ArithmeticError):
        return None
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
        outputs = [cell for row in grid for cell in row]
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
