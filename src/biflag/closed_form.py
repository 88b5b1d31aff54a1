"""Closed-form speed, force, power, and efficiency of the swimmer.

All expressions treat each flagellum through three numbers: its scaled
drag pair (K_N, K_L), the shape coefficient beta = A/lambda, and the
wave speed v_w = lambda*f. Period-averaged quantities only; no
instantaneous dynamics.
"""

from __future__ import annotations

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
    composite_coeffs,
    reynolds_number,
)
from .errors import AsymmetryError, DomainError, InconsistencyError, ParameterError

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


def _matched_geometry(cfg: RobotConfig) -> tuple[CompositeDrag, float, float]:
    """Shared (drag, L, beta) of the two flagella, which must be identical.

    Frequencies may differ; geometry may not. Raises AsymmetryError when
    K_N, gamma, beta, or L disagree beyond 1e-12 relative; asymmetric
    designs are handled by the numerical oracle solver instead.
    """
    d1 = cfg.effective_drag(cfg.anterior)
    d2 = cfg.effective_drag(cfg.posterior)
    b1 = cfg.anterior.beta
    b2 = cfg.posterior.beta
    pairs = (
        ("K_N", d1.K_N, d2.K_N),
        ("gamma", d1.gamma, d2.gamma),
        ("beta", b1, b2),
        ("L", cfg.anterior.L, cfg.posterior.L),
    )
    for name, u, v in pairs:
        if not math.isclose(u, v, rel_tol=_GEOM_RTOL, abs_tol=0.0):
            raise AsymmetryError(
                f"flagella differ in {name} ({u!r} vs {v!r}); the closed form"
                " assumes identical flagella, use the oracle solver instead")
    return d1, cfg.anterior.L, b1


def solve_velocity(cfg: RobotConfig) -> float:
    """Swimming speed from the zero-net-force balance (reduced form).

    U_X = -pi^2*beta^2*K_N*L*(gamma-1)*(v_w1+v_w2)
          / [K_N*L*(gamma + 2*pi^2*beta^2) + 3*pi*mu*a*(1 + 2*pi^2*beta^2)]
    """
    drag, L, beta = _matched_geometry(cfg)
    q = 2.0 * math.pi ** 2 * beta ** 2
    v_sum = cfg.anterior.v_w + cfg.posterior.v_w
    num = -math.pi ** 2 * beta ** 2 * drag.K_N * L * (drag.gamma - 1.0) * v_sum
    den = (drag.K_N * L * (drag.gamma + q)
           + 3.0 * math.pi * cfg.fluid.mu * cfg.body.a * (1.0 + q))
    if den == 0.0:  # only at L = 0 and a = 0, where num is 0 too
        return 0.0
    return num / den + 0.0


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
    values = []
    for spec in cfg.flagella:
        drag = cfg.effective_drag(spec)
        q = 2.0 * math.pi ** 2 * spec.beta ** 2
        inner = 2.0 * math.pi ** 2 * spec.v_w * spec.beta ** 2 + spec.axis_sign * U
        values.append(drag.K_N * spec.L * (
            (drag.gamma - 1.0) * inner ** 2 / (1.0 + q)
            + U ** 2
            + q * spec.v_w ** 2))
    return PowerBreakdown(P1=values[0], P2=values[1], P0=_useful_power(cfg, U))


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


def assemble_result(cfg: RobotConfig, U: float, F1: float, F2: float,
                    P1: float, P2: float) -> SolveResult:
    """SolveResult from a speed and the two flagellar thrusts and powers.

    The one definition of the body drag, P0, eta, CoT and Re that every
    backend shares. CoT uses the total flagellar power and the speed
    magnitude so that backward-swimming configurations (gamma > 1) remain
    well defined; it is 0 for a fully quiescent swimmer and infinite when
    the flagella dissipate power without producing net motion.
    """
    F_body = body_drag(cfg.fluid, cfg.body, U)
    P0 = _useful_power(cfg, U)
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
    return SolveResult(U_X=U, F1=F1, F2=F2, F_body=F_body,
                       residual=F1 + F2 + F_body,
                       P1=P1, P2=P2, P0=P0, eta=eta, CoT=cot, Re=re)


def full_solve(cfg: RobotConfig) -> SolveResult:
    """Solve the force balance and assemble every derived quantity."""
    U = solve_velocity(cfg)
    F1, F2 = (flagellum_thrust(cfg.effective_drag(spec), spec.L, spec.v_w,
                               spec.beta, U) for spec in cfg.flagella)
    P1, P2, _ = powers(cfg, U)
    return assemble_result(cfg, U, F1, F2, P1, P2)
