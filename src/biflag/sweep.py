"""Parameter sweeps and frequency heatmaps over either solver backend.

Grids are uniform and inclusive of both endpoints. Every grid point is
a fresh solve; rows are assembled in axis order, so identical inputs
always produce bit-identical tables. Grid points may be evaluated
concurrently (BIFLAG_THREADS), which does not change the output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from .closed_form import RobotConfig, SolveResult, assemble_result, full_solve
from .errors import BiflagError, ParameterError
from .oracle import OracleSettings, average_thrust, oracle_power, oracle_solve
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

DEFAULT_OUTPUTS = ("U_X", "P1", "P2", "P0", "eta", "CoT", "Re")

BACKENDS = ("closed_form", "oracle")

THREADS_ENV = "BIFLAG_THREADS"


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
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS

    def __post_init__(self) -> None:
        if self.axis not in AXIS_COLUMNS:
            raise ParameterError(
                f"axis: must be one of {sorted(AXIS_COLUMNS)}")
        if self.start > self.stop:
            raise ParameterError("start: must be <= stop")
        if self.count < 1:
            raise ParameterError("count: must be >= 1")
        if self.backend not in BACKENDS:
            raise ParameterError(f"backend: must be one of {BACKENDS}")
        if self.coupling is not None and self.axis != "L":
            raise ParameterError("coupling: only valid with axis 'L'")
        for name in self.outputs:
            if name not in OUTPUT_COLUMNS:
                raise ParameterError(f"outputs: unknown output {name!r}")


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


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParameterError(f"{THREADS_ENV}: not an integer: {raw!r}") from None


def _map_ordered(fn, items: Sequence):
    threads = _thread_count()
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def oracle_full_solve(cfg: RobotConfig,
                      settings: OracleSettings | None = None) -> SolveResult:
    """SolveResult assembled entirely from the numerical oracle."""
    settings = settings or OracleSettings()
    U = oracle_solve(cfg, settings).U
    return assemble_result(
        cfg, U,
        average_thrust(cfg, 1, U, settings), average_thrust(cfg, 2, U, settings),
        oracle_power(cfg, 1, U, settings), oracle_power(cfg, 2, U, settings))


def _solve_backend(cfg: RobotConfig, backend: str,
                   settings: OracleSettings | None) -> SolveResult:
    if backend == "oracle":
        return oracle_full_solve(cfg, settings)
    return full_solve(cfg)


def sweep(cfg: RobotConfig, spec: SweepSpec,
          settings: OracleSettings | None = None) -> Table:
    """Evaluate the requested outputs along one axis.

    A model-precondition failure at any grid point aborts the whole
    sweep with an error naming the point; no partial table is returned.
    """
    values = linear_grid(spec.start, spec.stop, spec.count)
    axis_col = AXIS_COLUMNS[spec.axis]

    def evaluate(value: float) -> list[float]:
        try:
            values = {spec.axis: value}
            if spec.coupling is not None:
                values["A"] = amplitude_for_length(value, dict(spec.coupling))
            point = with_params(cfg, values)
            result = _solve_backend(point, spec.backend, settings)
        except BiflagError as exc:
            raise type(exc)(
                f"sweep point {axis_col}={value!r}: {exc}") from exc
        return [value] + [getattr(result, name) for name in spec.outputs]

    rows = _map_ordered(evaluate, values)
    columns = [axis_col] + [OUTPUT_COLUMNS[name] for name in spec.outputs]
    return Table(columns=columns, rows=rows)


def heatmap(cfg: RobotConfig, f1_range: tuple[float, float],
            f2_range: tuple[float, float], counts: tuple[int, int],
            output: str = "eta", backend: str = "closed_form",
            settings: OracleSettings | None = None) -> HeatmapResult:
    """Output over the (f1, f2) frequency grid, row-major in f1."""
    if output not in OUTPUT_COLUMNS:
        raise ParameterError(f"output: unknown output {output!r}")
    if backend not in BACKENDS:
        raise ParameterError(f"backend: must be one of {BACKENDS}")
    f1_values = linear_grid(f1_range[0], f1_range[1], counts[0])
    f2_values = linear_grid(f2_range[0], f2_range[1], counts[1])

    def evaluate(pair: tuple[float, float]) -> float:
        f1, f2 = pair
        try:
            point = with_params(cfg, {"f1": f1, "f2": f2})
            result = _solve_backend(point, backend, settings)
        except BiflagError as exc:
            raise type(exc)(
                f"heatmap point f1_hz={f1!r}, f2_hz={f2!r}: {exc}") from exc
        return getattr(result, output)

    pairs = [(f1, f2) for f1 in f1_values for f2 in f2_values]
    flat = _map_ordered(evaluate, pairs)
    n2 = len(f2_values)
    values = [flat[i * n2:(i + 1) * n2] for i in range(len(f1_values))]
    return HeatmapResult(f1=f1_values, f2=f2_values, output=output,
                         values=values)
