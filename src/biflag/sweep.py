"""Parameter sweeps and frequency heatmaps over either solver backend.

Grids are uniform and inclusive of both endpoints. Rows are assembled
in axis order, so identical inputs always produce bit-identical tables.

SOLVERS is the one map from backend name to solver. Frequency enters no
geometry check, so a grid over frequencies (axes f_sym, f1 and f2, and
every heatmap) validates each frequency once on either backend, and the
closed form computes the drag pair once; each point still gives exactly
what its backend gives on a fresh config. Geometry axes solve every
point from a fresh config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .closed_form import (
    RobotConfig,
    SolveResult,
    _matched_drags,
    _solve,
    full_solve,
)
from .core import FlagellumSpec
from .errors import BiflagError, ParameterError
from .oracle import OracleSettings, oracle_full_solve
from .presets import amplitude_for_length, with_params

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


def linear_grid(start: float, stop: float, count: int) -> list[float]:
    """Uniform inclusive grid; endpoints are exact."""
    if count < 1:
        raise ParameterError("count: must be >= 1")
    if count == 1:
        return [start]
    return [start + (stop - start) * (i / (count - 1)) for i in range(count)]


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description."""

    axis: str
    start: float
    stop: float
    count: int
    backend: str = "closed_form"
    coupling: Mapping[float, float] | None = None  # L -> A, axis "L" only

    def __post_init__(self) -> None:
        if self.axis not in AXIS_COLUMNS:
            raise ParameterError(
                f"axis: must be one of {sorted(AXIS_COLUMNS)}")
        if self.start > self.stop:
            raise ParameterError("start: must be <= stop")
        if self.count < 1:
            raise ParameterError("count: must be >= 1")
        if self.backend not in SOLVERS:
            raise ParameterError(f"backend: must be one of {BACKENDS}")
        if self.coupling is not None and self.axis != "L":
            raise ParameterError("coupling: only valid with axis 'L'")


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


def _frequency_solver(cfg: RobotConfig, f1_values: list[float],
                      f2_values: list[float], backend: str,
                      settings: OracleSettings | None
                      ) -> Callable[[int, int], SolveResult]:
    """solve(i, j) of ``cfg`` at (f1_values[i], f2_values[j]) on ``backend``.

    Equal to SOLVERS[backend](with_params(cfg, {"f1": ..., "f2": ...}),
    settings), and raises what that raises, in the same order: each
    frequency is validated by building its flagellum spec on first use.
    The closed form computes the drag pair, which no frequency changes,
    at the first point.
    """
    anterior: dict[int, FlagellumSpec] = {}
    posterior: dict[int, FlagellumSpec] = {}
    drags = None

    def specs(i: int, j: int) -> tuple[FlagellumSpec, FlagellumSpec]:
        if i not in anterior:
            anterior[i] = replace(cfg.anterior, f=f1_values[i])
        if j not in posterior:
            posterior[j] = replace(cfg.posterior, f=f2_values[j])
        return anterior[i], posterior[j]

    def closed_form(i: int, j: int) -> SolveResult:
        nonlocal drags
        spec1, spec2 = specs(i, j)
        if drags is None:
            drags = _matched_drags(cfg)
        return _solve(cfg, drags, spec1.v_w, spec2.v_w)

    def oracle(i: int, j: int) -> SolveResult:
        spec1, spec2 = specs(i, j)
        return oracle_full_solve(replace(cfg, anterior=spec1,
                                         posterior=spec2), settings)

    return closed_form if backend == "closed_form" else oracle


def sweep(cfg: RobotConfig, spec: SweepSpec,
          settings: OracleSettings | None = None) -> Table:
    """Every output along one axis: the axis column, then OUTPUT_COLUMNS.

    A model-precondition failure at any grid point aborts the whole
    sweep with an error naming the point; no partial table is returned.
    """
    values = linear_grid(spec.start, spec.stop, spec.count)
    axis_col = AXIS_COLUMNS[spec.axis]
    if spec.axis in ("f_sym", "f1", "f2"):
        f1_values = [cfg.anterior.f] if spec.axis == "f2" else values
        f2_values = [cfg.posterior.f] if spec.axis == "f1" else values
        solve_at = _frequency_solver(cfg, f1_values, f2_values,
                                     spec.backend, settings)

        def solve(i: int) -> SolveResult:
            return solve_at(0 if spec.axis == "f2" else i,
                            0 if spec.axis == "f1" else i)
    else:
        solver = SOLVERS[spec.backend]

        def solve(i: int) -> SolveResult:
            point = {spec.axis: values[i]}
            if spec.coupling is not None:
                point["A"] = amplitude_for_length(values[i],
                                                  dict(spec.coupling))
            return solver(with_params(cfg, point), settings)

    def evaluate(i: int) -> list[float]:
        try:
            result = solve(i)
        except BiflagError as exc:
            raise type(exc)(
                f"sweep point {axis_col}={values[i]!r}: {exc}") from exc
        return [values[i]] + [getattr(result, name) for name in OUTPUT_COLUMNS]

    rows = [evaluate(i) for i in range(len(values))]
    return Table(columns=[axis_col, *OUTPUT_COLUMNS.values()], rows=rows)


def heatmap(cfg: RobotConfig, f1_range: tuple[float, float],
            f2_range: tuple[float, float], counts: tuple[int, int],
            output: str = "eta", backend: str = "closed_form",
            settings: OracleSettings | None = None) -> HeatmapResult:
    """Output over the (f1, f2) frequency grid, row-major in f1."""
    if output not in OUTPUT_COLUMNS:
        raise ParameterError(f"output: unknown output {output!r}")
    if backend not in SOLVERS:
        raise ParameterError(f"backend: must be one of {BACKENDS}")
    f1_values = linear_grid(f1_range[0], f1_range[1], counts[0])
    f2_values = linear_grid(f2_range[0], f2_range[1], counts[1])
    solve = _frequency_solver(cfg, f1_values, f2_values, backend, settings)

    def evaluate(i: int, j: int) -> float:
        try:
            result = solve(i, j)
        except BiflagError as exc:
            raise type(exc)(
                f"heatmap point f1_hz={f1_values[i]!r},"
                f" f2_hz={f2_values[j]!r}: {exc}") from exc
        return getattr(result, output)

    values = [[evaluate(i, j) for j in range(len(f2_values))]
              for i in range(len(f1_values))]
    return HeatmapResult(f1=f1_values, f2=f2_values, output=output,
                         values=values)
