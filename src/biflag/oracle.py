"""Numerical reference evaluator for the segment drag model.

Integrates the local drag law dF/ds = K_N*V_N*n + K_L*V_L*l over arc
length and one beat period with composite trapezoidal quadrature, then
solves the zero-net-force balance by bisection. Unlike the closed-form
module it keeps the exact arc-length measure ds = sqrt(1+slope^2) dx and
makes no averaging approximations, so the difference between the two is
a direct measurement of the closed form's approximation error. It also
handles flagella with differing geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import RobotConfig, body_drag
from .core import FlagellumSpec, waveform_eval
from .errors import BracketError, ParameterError

_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class OracleSettings:
    """Quadrature resolution and root-finding tolerances."""

    n_segments: int = 512              # x intervals per flagellum
    n_time: int = 128                  # time samples per beat period
    u_bracket: tuple[float, float] = (-1.0, 1.0)  # search interval [m/s]
    tol_force: float = 1e-12           # [N]
    tol_u: float = 1e-12               # [m/s]

    def __post_init__(self) -> None:
        if self.n_segments < 16:
            raise ParameterError("n_segments: must be >= 16")
        if self.n_time < 8:
            raise ParameterError("n_time: must be >= 8")
        if not self.tol_force > 0:
            raise ParameterError("tol_force: must be > 0")
        if not self.tol_u > 0:
            raise ParameterError("tol_u: must be > 0")
        lo, hi = self.u_bracket
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParameterError("u_bracket: must be finite and ordered")


@dataclass(frozen=True)
class SegmentState:
    """Geometry and kinematics of one filament segment."""

    x: float
    y: float
    tangent: tuple[float, float]     # unit vector along the filament
    normal: tuple[float, float]      # unit vector normal to the filament
    v_material: tuple[float, float]  # lab-frame segment velocity [m/s]
    ds: float                        # segment arc length [m]


class OracleSolution(NamedTuple):
    U: float         # root of the averaged force balance [m/s]
    residual: float  # total averaged force at U [N]


def segment_state(cfg: RobotConfig, k: int, x: float, t: float,
                  U: float = 0.0, dx: float = 1e-4) -> SegmentState:
    """Segment frame at (x, t) for flagellum ``k`` and swimming speed U."""
    spec = cfg.spec_for(k)
    w = waveform_eval(spec, cfg.body.a, x, t)
    root = math.sqrt(1.0 + w.slope ** 2)
    return SegmentState(
        x=x,
        y=w.y,
        tangent=(1.0 / root, w.slope / root),
        normal=(-w.slope / root, 1.0 / root),
        v_material=(U, w.y_t),
        ds=root * dx,
    )


def segment_force_x(cfg: RobotConfig, k: int, x: float, t: float,
                    U: float) -> float:
    """x-component of the drag force per unit arc length at (x, t).

    The fluid is at rest in the lab frame, so the relative fluid
    velocity at a segment is -(U, y_t); decomposing it in the local
    frame and projecting the drag law onto x gives

        dFx/ds = [(K_N - K_L)*y_t*slope - U*(K_N*slope^2 + K_L)] / (1 + slope^2)
    """
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    w = waveform_eval(spec, cfg.body.a, x, t)
    num = (drag.K_N - drag.K_L) * w.y_t * w.slope \
        - U * (drag.K_N * w.slope ** 2 + drag.K_L)
    return num / (1.0 + w.slope ** 2)


def _kinematic_grid(spec: FlagellumSpec, body_radius: float,
                    settings: OracleSettings):
    """Sampled slope, y_t and arc factor over one beat period.

    Returns (slope, y_t, root, dx, dt, period) with arrays shaped
    (n_time+1, n_segments+1). For f = 0 the waveform is static and the
    averaging window is an arbitrary 1 s.
    """
    x0, x1 = spec.axial_span(body_radius)
    period = 1.0 / spec.f if spec.f > 0 else 1.0
    x = np.linspace(x0, x1, settings.n_segments + 1)
    t = np.linspace(0.0, period, settings.n_time + 1)
    s = float(spec.axis_sign)
    omega = 2.0 * math.pi * spec.f
    phase = s * (omega * t[:, None]
                 + 2.0 * math.pi * (x[None, :] + s * body_radius) / spec.lam)
    c = np.cos(phase)
    slope = spec.A * c * (s * 2.0 * math.pi / spec.lam)
    y_t = spec.A * c * (s * omega)
    root = np.sqrt(1.0 + slope ** 2)
    dx = (x1 - x0) / settings.n_segments
    dt = period / settings.n_time
    return slope, y_t, root, dx, dt, period


def _trap_average(values: np.ndarray, dx: float, dt: float,
                  period: float) -> float:
    """(1/T) * integral over t and x by composite trapezoid."""
    wt = np.ones(values.shape[0])
    wt[0] = wt[-1] = 0.5
    wx = np.ones(values.shape[1])
    wx[0] = wx[-1] = 0.5
    return float(wt @ values @ wx) * dx * dt / period


def average_thrust(cfg: RobotConfig, k: int, U: float,
                   settings: OracleSettings | None = None) -> float:
    """Period-averaged x-thrust of flagellum ``k`` at swimming speed U.

    F = (1/T) int_0^T int_0^L (dFx/ds) ds dt with ds = sqrt(1+slope^2) dx.
    """
    settings = settings or OracleSettings()
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    slope, y_t, root, dx, dt, period = _kinematic_grid(
        spec, cfg.body.a, settings)
    integrand = ((drag.K_N - drag.K_L) * y_t * slope
                 - U * (drag.K_N * slope ** 2 + drag.K_L)) / root
    return _trap_average(integrand, dx, dt, period)


def _thrust_coefficients(cfg: RobotConfig, k: int,
                         settings: OracleSettings) -> tuple[float, float]:
    """(T0, D) with average_thrust(U) = T0 - D*U.

    The integrand is affine in U pointwise, so the averaged thrust is
    affine exactly; evaluating the two quadratures once makes repeated
    force evaluations during bisection cheap without changing any value.
    """
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    slope, y_t, root, dx, dt, period = _kinematic_grid(
        spec, cfg.body.a, settings)
    t0 = _trap_average((drag.K_N - drag.K_L) * y_t * slope / root,
                       dx, dt, period)
    d = _trap_average((drag.K_N * slope ** 2 + drag.K_L) / root,
                      dx, dt, period)
    return t0, d


def oracle_solve(cfg: RobotConfig,
                 settings: OracleSettings | None = None) -> OracleSolution:
    """Swimming speed from the averaged force balance, by bisection.

    The total averaged force is affine in U, so once the bracket spans a
    sign change bisection converges unconditionally; it stops when the
    interval shrinks below tol_u or the force magnitude drops below
    tol_force, whichever happens first.

    Raises BracketError when the bracket does not contain a sign change
    (the caller should widen u_bracket).
    """
    settings = settings or OracleSettings()
    t1, d1 = _thrust_coefficients(cfg, 1, settings)
    t2, d2 = _thrust_coefficients(cfg, 2, settings)
    body_factor = 6.0 * math.pi * cfg.fluid.mu * cfg.body.a

    def total(U: float) -> float:
        return (t1 + t2) - U * (d1 + d2 + body_factor)

    f_zero = total(0.0)
    if abs(f_zero) <= settings.tol_force:
        return OracleSolution(U=0.0, residual=f_zero)
    lo, hi = settings.u_bracket
    f_lo, f_hi = total(lo), total(hi)
    if f_lo == 0.0:
        return OracleSolution(U=lo, residual=0.0)
    if f_hi == 0.0:
        return OracleSolution(U=hi, residual=0.0)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(
            f"no sign change of total force on u_bracket [{lo:g}, {hi:g}];"
            " widen the bracket")
    mid, f_mid = 0.5 * (lo + hi), 0.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = total(mid)
        if abs(f_mid) <= settings.tol_force or 0.5 * (hi - lo) <= settings.tol_u:
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return OracleSolution(U=mid, residual=f_mid)


def oracle_power(cfg: RobotConfig, k: int, U: float,
                 settings: OracleSettings | None = None) -> float:
    """Period-averaged power dissipated by flagellum ``k`` at speed U.

    P = (1/T) int int (K_N*V_N^2 + K_L*V_L^2) ds dt, which is the rate
    of work the flagellum does against the fluid; non-negative for every
    valid configuration.
    """
    settings = settings or OracleSettings()
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    slope, y_t, root, dx, dt, period = _kinematic_grid(
        spec, cfg.body.a, settings)
    integrand = (drag.K_N * (U * slope - y_t) ** 2
                 + drag.K_L * (U + y_t * slope) ** 2) / root
    return _trap_average(integrand, dx, dt, period)


def oracle_residual(cfg: RobotConfig, U: float,
                    settings: OracleSettings | None = None) -> float:
    """Total averaged force (both flagella plus body drag) at speed U."""
    settings = settings or OracleSettings()
    return (average_thrust(cfg, 1, U, settings)
            + average_thrust(cfg, 2, U, settings)
            + body_drag(cfg.fluid, cfg.body, U))
