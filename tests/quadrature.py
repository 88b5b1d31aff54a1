"""Independent references for ``biflag``'s solvers.

For ``biflag.oracle``: samples the waveform on an (n_time+1) x
(n_segments+1) grid over one beat period and the flagellum's axial span,
averages the local drag law by composite trapezoids in x and t, and finds
the swimming speed by bisection. It shares no arithmetic with the
package's exact period averages, which the tests compare against it;
unlike them it depends on the resolution in ``OracleSettings``, so its
convergence can be measured.

For ``biflag.closed_form.solve_velocity``: the unreduced form of the same
force-balance root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from biflag.closed_form import RobotConfig
from biflag.core import FlagellumSpec
from biflag.errors import BracketError, DomainError
from biflag.oracle import OracleSettings

MAX_BISECTIONS = 200


class OracleSolution(NamedTuple):
    U: float         # root of the averaged force balance [m/s]
    residual: float  # total averaged force at U [N]


class WaveformState(NamedTuple):
    """Local waveform sample: deflection, slope and transverse velocity."""

    y: float      # transverse deflection [m]
    slope: float  # dy/dx
    y_t: float    # transverse material velocity dy/dt [m/s]


def waveform_eval(spec: FlagellumSpec, body_radius: float,
                  x: float, t: float) -> WaveformState:
    """Evaluate the travelling sine waveform of one flagellum.

    y(x, t) = A sin(s*omega*t + s*2*pi*(x + s*a)/lambda) with s = -1 for
    the anterior flagellum and s = +1 for the posterior one; ``slope``
    and ``y_t`` are the exact analytic partial derivatives.

    Raises DomainError when x is outside the flagellum's axial half-line.
    """
    s = spec.axis_sign
    a = body_radius
    tol = 1e-9 * max(1.0, abs(a))
    if s * x > -a + tol:
        raise DomainError(
            f"x={x!r} is outside the {spec.role} flagellum domain")
    omega = 2.0 * math.pi * spec.f
    phase = s * (omega * t + 2.0 * math.pi * (x + s * a) / spec.lam)
    c = math.cos(phase)
    return WaveformState(
        y=spec.A * math.sin(phase),
        slope=spec.A * c * s * 2.0 * math.pi / spec.lam,
        y_t=spec.A * c * s * omega,
    )


@dataclass(frozen=True)
class SegmentState:
    """Geometry and kinematics of one filament segment."""

    x: float
    y: float
    tangent: tuple[float, float]     # unit vector along the filament
    normal: tuple[float, float]      # unit vector normal to the filament
    v_material: tuple[float, float]  # lab-frame segment velocity [m/s]
    ds: float                        # segment arc length [m]


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


def kinematic_grid(spec: FlagellumSpec, body_radius: float,
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


def trap_average(values: np.ndarray, dx: float, dt: float,
                 period: float) -> float:
    """(1/T) * integral over t and x by composite trapezoid."""
    wt = np.ones(values.shape[0])
    wt[0] = wt[-1] = 0.5
    wx = np.ones(values.shape[1])
    wx[0] = wx[-1] = 0.5
    return float(wt @ values @ wx) * dx * dt / period


def average_thrust(cfg: RobotConfig, k: int, U: float,
                   settings: OracleSettings | None = None) -> float:
    """Period-averaged x-thrust of flagellum ``k`` at swimming speed U."""
    settings = settings or OracleSettings()
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    slope, y_t, root, dx, dt, period = kinematic_grid(
        spec, cfg.body.a, settings)
    integrand = ((drag.K_N - drag.K_L) * y_t * slope
                 - U * (drag.K_N * slope ** 2 + drag.K_L)) / root
    return trap_average(integrand, dx, dt, period)


def oracle_power(cfg: RobotConfig, k: int, U: float,
                 settings: OracleSettings | None = None) -> float:
    """Period-averaged power dissipated by flagellum ``k`` at speed U."""
    settings = settings or OracleSettings()
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    slope, y_t, root, dx, dt, period = kinematic_grid(
        spec, cfg.body.a, settings)
    integrand = (drag.K_N * (U * slope - y_t) ** 2
                 + drag.K_L * (U + y_t * slope) ** 2) / root
    return trap_average(integrand, dx, dt, period)


def thrust_coefficients(cfg: RobotConfig, k: int,
                        settings: OracleSettings) -> tuple[float, float]:
    """(T0, D) with average_thrust(U) = T0 - D*U, from two quadratures."""
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    slope, y_t, root, dx, dt, period = kinematic_grid(
        spec, cfg.body.a, settings)
    t0 = trap_average((drag.K_N - drag.K_L) * y_t * slope / root,
                      dx, dt, period)
    d = trap_average((drag.K_N * slope ** 2 + drag.K_L) / root,
                     dx, dt, period)
    return t0, d


def oracle_solve(cfg: RobotConfig,
                 settings: OracleSettings | None = None) -> OracleSolution:
    """Swimming speed from the quadrature force balance, by bisection.

    Stops when the interval shrinks below tol_u or the force magnitude
    drops below tol_force, whichever happens first. Raises BracketError
    when u_bracket holds no sign change.
    """
    settings = settings or OracleSettings()
    t1, d1 = thrust_coefficients(cfg, 1, settings)
    t2, d2 = thrust_coefficients(cfg, 2, settings)
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
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = total(mid)
        if abs(f_mid) <= settings.tol_force or 0.5 * (hi - lo) <= settings.tol_u:
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return OracleSolution(U=mid, residual=f_mid)


def solve_velocity_unreduced(cfg: RobotConfig) -> float:
    """Algebraically equivalent unreduced form of the force balance root.

    An independent cross-check of ``solve_velocity`` for identical
    flagella, whose shared geometry it reads from the anterior one; the
    two agree to machine precision on every such configuration.
    """
    spec = cfg.anterior
    drag, L, beta = cfg.effective_drag(spec), spec.L, spec.beta
    q = 2.0 * math.pi ** 2 * beta ** 2
    g = drag.gamma - 1.0
    v_sum = cfg.anterior.v_w + cfg.posterior.v_w
    num = (-2.0 * math.pi ** 2 * beta ** 2 * drag.K_N * L * g / (1.0 + q)) * v_sum
    den = (2.0 * drag.K_N * L * (g / (1.0 + q) + 1.0)
           + 6.0 * math.pi * cfg.fluid.mu * cfg.body.a)
    if den == 0.0:  # only at L = 0 and a = 0, where num is 0 too
        return 0.0
    return num / den + 0.0
