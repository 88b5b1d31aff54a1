"""Closed-form speed, force, power, and efficiency of the swimmer.

All expressions treat each flagellum through three numbers: its scaled
drag pair (K_N, K_L), the shape coefficient beta = A/lambda, and the
wave speed v_w = lambda*f. Period-averaged quantities only; no
instantaneous dynamics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    ANTERIOR,
    POSTERIOR,
    BodyGeometry,
    CompositeDrag,
    FlagellumSpec,
    FluidMedium,
    _non_finite,
    composite_coeffs,
    reynolds_number,
)
from .errors import (
    AsymmetryError,
    DomainError,
    InconsistencyError,
    NumericalError,
    ParameterError,
)

GRAVITY = 9.81  # [m/s^2], used by the cost-of-transport definition

_GEOM_RTOL = 1e-12  # relative tolerance for the identical-flagella check


@dataclass(frozen=True)
class RobotConfig:
    """Complete model input: fluid, body, both flagella, calibration scale.

    ``thrust_scale`` multiplies K_N and K_L of both flagella; it absorbs
    geometric prefactors (such as the membrane width convention) when the
    model is calibrated against measured speeds.
    """

    fluid: FluidMedium
    body: BodyGeometry
    anterior: FlagellumSpec
    posterior: FlagellumSpec
    thrust_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.anterior.role != ANTERIOR:
            raise ParameterError("anterior: spec must have role 'anterior'")
        if self.posterior.role != POSTERIOR:
            raise ParameterError("posterior: spec must have role 'posterior'")
        if not self.thrust_scale > 0:
            raise ParameterError("thrust_scale: must be > 0")

    @property
    def flagella(self) -> tuple[FlagellumSpec, FlagellumSpec]:
        return (self.anterior, self.posterior)

    def spec_for(self, k: int) -> FlagellumSpec:
        """Flagellum by index: 1 = anterior, 2 = posterior."""
        if k == 1:
            return self.anterior
        if k == 2:
            return self.posterior
        raise ParameterError("k: flagellum index must be 1 or 2")

    def effective_drag(self, spec: FlagellumSpec) -> CompositeDrag:
        """Composite coefficients of ``spec`` scaled by thrust_scale."""
        return composite_coeffs(spec, self.fluid).scaled(self.thrust_scale)


@dataclass(frozen=True)
class SolveResult:
    """Full steady-state solution of the force balance."""

    U_X: float      # swimming speed along x [m/s]
    F1: float       # anterior flagellum thrust along x [N]
    F2: float       # posterior flagellum thrust along x [N]
    F_body: float   # body drag along x [N]
    residual: float  # F1 + F2 + F_body at the returned speed [N]
    P1: float       # anterior flagellum power [W]
    P2: float       # posterior flagellum power [W]
    P0: float       # useful body-propulsion power [W]
    eta: float      # propulsion efficiency P0/(P1+P2)
    CoT: float      # cost of transport (P1+P2)/(m*g*|U|)
    Re: float       # Reynolds number on the body diameter


class PowerBreakdown(NamedTuple):
    P1: float
    P2: float
    P0: float


def flagellum_thrust(drag: CompositeDrag, L: float, v_w: float,
                     beta: float, U: float) -> float:
    """Period-averaged x-thrust of one flagellum at swimming speed U.

    F = K_N*L*[(-2*pi^2*v_w*(gamma-1)*beta^2 - (gamma-1)*U)/(1+2*pi^2*beta^2) - U]

    The same expression serves both flagella; only v_w differs.
    """
    if L < 0:
        raise ParameterError("L: must be >= 0")
    if beta < 0:
        raise ParameterError("beta: must be >= 0")
    q = 2.0 * math.pi ** 2 * beta ** 2
    g = drag.gamma - 1.0
    # trailing + 0.0 turns an exact -0.0 into 0.0 in serialized output
    return drag.K_N * L * ((-q * v_w * g - g * U) / (1.0 + q) - U) + 0.0


def body_drag(fluid: FluidMedium, body: BodyGeometry, U: float) -> float:
    """Stokes drag -6*pi*mu*a*U on the spherical body."""
    return -6.0 * math.pi * fluid.mu * body.a * U + 0.0


def _matched_drags(cfg: RobotConfig) -> tuple[CompositeDrag, CompositeDrag]:
    """Effective drags of the two flagella, whose geometry must be identical.

    Frequencies may differ; geometry may not. Raises AsymmetryError when
    K_N, gamma, beta, or L disagree beyond 1e-12 relative; asymmetric
    designs are handled by the numerical oracle solver instead.
    """
    d1 = cfg.effective_drag(cfg.anterior)
    d2 = cfg.effective_drag(cfg.posterior)
    pairs = (
        ("K_N", d1.K_N, d2.K_N),
        ("gamma", d1.gamma, d2.gamma),
        ("beta", cfg.anterior.beta, cfg.posterior.beta),
        ("L", cfg.anterior.L, cfg.posterior.L),
    )
    for name, u, v in pairs:
        if not math.isclose(u, v, rel_tol=_GEOM_RTOL, abs_tol=0.0):
            raise AsymmetryError(
                f"flagella differ in {name} ({u!r} vs {v!r}); the closed form"
                " assumes identical flagella, use the oracle solver instead")
    return d1, d2


def _velocity(cfg: RobotConfig, drag: CompositeDrag, v_sum: float) -> float:
    beta, L = cfg.anterior.beta, cfg.anterior.L
    q = 2.0 * math.pi ** 2 * beta ** 2
    num = -math.pi ** 2 * beta ** 2 * drag.K_N * L * (drag.gamma - 1.0) * v_sum
    den = (drag.K_N * L * (drag.gamma + q)
           + 3.0 * math.pi * cfg.fluid.mu * cfg.body.a * (1.0 + q))
    if den == 0.0:  # only at L = 0 and a = 0, where num is 0 too
        return 0.0
    return num / den + 0.0


def solve_velocity(cfg: RobotConfig) -> float:
    """Swimming speed from the zero-net-force balance (reduced form).

    U_X = -pi^2*beta^2*K_N*L*(gamma-1)*(v_w1+v_w2)
          / [K_N*L*(gamma + 2*pi^2*beta^2) + 3*pi*mu*a*(1 + 2*pi^2*beta^2)]

    Raises NumericalError when U_X is not finite: the inputs then lie
    beyond double-precision range.
    """
    U = _velocity(cfg, _matched_drags(cfg)[0],
                  cfg.anterior.v_w + cfg.posterior.v_w)
    if not math.isfinite(U):
        raise _non_finite("U_X", U)
    return U


def _flagellum_power(drag: CompositeDrag, spec: FlagellumSpec, v_w: float,
                     U: float) -> float:
    q = 2.0 * math.pi ** 2 * spec.beta ** 2
    inner = 2.0 * math.pi ** 2 * v_w * spec.beta ** 2 + spec.axis_sign * U
    return drag.K_N * spec.L * (
        (drag.gamma - 1.0) * inner ** 2 / (1.0 + q)
        + U ** 2
        + q * v_w ** 2)


def powers(cfg: RobotConfig, U: float) -> PowerBreakdown:
    """Period-averaged flagellar powers P1, P2 and useful power P0 at speed U.

    P_k = K_N*L*[(gamma-1)*(2*pi^2*v_wk*beta^2 -/+ U)^2/(1+2*pi^2*beta^2)
                 + U^2 + 2*pi^2*v_wk^2*beta^2]

    with - for the anterior flagellum and + for the posterior one;
    P0 = 6*pi*mu*a*U^2.

    This is the leading-order small-beta average of the RFT power
    integral. Its relative gap to the exact integral (the oracle) is
    2*pi^2*beta^2*(1/4 + gamma/2), plus 4*(gamma-1)*U/v_w for the
    anterior flagellum only, up to O(beta^4). The exact integral does
    not depend on the sign: the oracle gives P1 = P2 at equal frequency.
    The - flips the anterior's U cross term, so only the posterior keeps
    the RFT identity dP/dU = -2F with flagellum_thrust.
    """
    P1, P2 = (_flagellum_power(cfg.effective_drag(spec), spec, spec.v_w, U)
              for spec in cfg.flagella)
    return PowerBreakdown(P1=P1, P2=P2, P0=_useful_power(cfg, U))


def _useful_power(cfg: RobotConfig, U: float) -> float:
    return 6.0 * math.pi * cfg.fluid.mu * cfg.body.a * U ** 2


def efficiency(P0: float, P1: float, P2: float) -> float:
    """Propulsion efficiency eta = P0/(P1+P2); defined as 0 when P0 = 0."""
    total = P1 + P2
    if total == 0.0:
        if P0 == 0.0:
            return 0.0
        raise InconsistencyError(
            f"useful power {P0!r} with zero flagellar power")
    if P0 == 0.0:
        return 0.0
    return P0 / total


def cost_of_transport(P: float, mass: float, U: float) -> float:
    """CoT = P/(m*g*U): power per unit weight per unit speed."""
    if mass <= 0:
        raise ParameterError("mass: must be > 0")
    if U <= 0:
        raise DomainError("U: must be > 0 for cost of transport")
    return P / (mass * GRAVITY * U)


def _in_double_range(solve):
    """``solve`` with the OverflowError and ZeroDivisionError of float
    arithmetic raised as NumericalError: where they occur, the inputs lie
    beyond double-precision range."""
    @functools.wraps(solve)
    def checked(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            kind = ("overflow" if isinstance(exc, OverflowError)
                    else "division by an underflowed zero")
            raise NumericalError(f"floating-point {kind}: the inputs lie"
                                 " beyond double-precision range") from exc
    return checked


def assemble_result(cfg: RobotConfig, U: float, F1: float, F2: float,
                    P1: float, P2: float) -> SolveResult:
    """SolveResult from a speed and the two flagellar thrusts and powers.

    The one definition of the body drag, P0, eta, CoT and Re that every
    backend shares. CoT uses the total flagellar power and the speed
    magnitude so that backward-swimming configurations (gamma > 1) remain
    well defined; it is 0 for a fully quiescent swimmer and infinite when
    the flagella dissipate power without producing net motion.

    Raises NumericalError when any field but CoT is not finite: the
    inputs then lie beyond double-precision range. U and P0 are checked
    before eta is formed from them.
    """
    if not math.isfinite(U):
        raise _non_finite("U_X", U)
    F_body = body_drag(cfg.fluid, cfg.body, U)
    P0 = _useful_power(cfg, U)
    if not math.isfinite(P0):
        raise _non_finite("P0", P0)
    eta = efficiency(P0, P1, P2)
    speed = abs(U)
    total_power = P1 + P2
    if speed > 0:
        cot = cost_of_transport(total_power, cfg.body.mass, speed)
    elif total_power > 0:
        cot = math.inf
    else:
        cot = 0.0
    if cfg.body.a > 0:
        re = reynolds_number(cfg.fluid, U, 2.0 * cfg.body.a)
    else:
        re = 0.0
    result = SolveResult(U_X=U, F1=F1, F2=F2, F_body=F_body,
                         residual=F1 + F2 + F_body,
                         P1=P1, P2=P2, P0=P0, eta=eta, CoT=cot, Re=re)
    for name, value in vars(result).items():
        if name != "CoT" and not math.isfinite(value):
            raise _non_finite(name, value)
    return result


@_in_double_range
def _solve(cfg: RobotConfig, drags: tuple[CompositeDrag, CompositeDrag],
           v_w1: float, v_w2: float) -> SolveResult:
    """full_solve of ``cfg`` with beat wave speeds v_w1 and v_w2.

    ``drags`` must be ``_matched_drags(cfg)``. Frequency enters only
    through the wave speeds, so a frequency grid passes one drag pair to
    every point.
    """
    d1, d2 = drags
    anterior, posterior = cfg.flagella
    U = _velocity(cfg, d1, v_w1 + v_w2)
    F1 = flagellum_thrust(d1, anterior.L, v_w1, anterior.beta, U)
    F2 = flagellum_thrust(d2, posterior.L, v_w2, posterior.beta, U)
    P1 = _flagellum_power(d1, anterior, v_w1, U)
    P2 = _flagellum_power(d2, posterior, v_w2, U)
    return assemble_result(cfg, U, F1, F2, P1, P2)


def full_solve(cfg: RobotConfig) -> SolveResult:
    """Solve the force balance and assemble every derived quantity."""
    return _solve(cfg, _matched_drags(cfg), cfg.anterior.v_w,
                  cfg.posterior.v_w)
