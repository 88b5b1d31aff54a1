"""Closed-form speed, force, power, and efficiency of the swimmer.

All expressions treat each flagellum through three numbers: its scaled
drag pair (K_N, K_L), the shape coefficient beta = A/lambda, and the
wave speed v_w = lambda*f. Period-averaged quantities only; no
instantaneous dynamics.

A solve runs in two stages. The first computes, once per geometry, every
factor that no beat frequency changes, as a tuple of constants; the
second evaluates a point from those and each flagellum's per-wave
constants, which a frequency grid forms once per row and per column.
Each factor is formed in the order of the formula it belongs to, so the
stages round exactly as the formula written out in one expression.
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
    _bound,
    _composite_coeffs,
    _in_double_range,
    _non_finite,
)
from .errors import (
    AsymmetryError,
    InconsistencyError,
    ParameterError,
)

GRAVITY = 9.81  # [m/s^2], used by the cost-of-transport definition

_GEOM_RTOL = 1e-12  # relative tolerance for the identical-flagella check

_TWO_PI_SQ = 2.0 * math.pi ** 2
_NEG_PI_SQ = -math.pi ** 2
_THREE_PI = 3.0 * math.pi


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
        _bound("thrust_scale", self.thrust_scale, strict=True, owner=self)

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
        """Composite coefficients of ``spec`` scaled by thrust_scale, memoised
        per distinct (mu, lambda, d_membrane, d_hinge, w, h, n, scale) in
        core's one bounded LRU of 256 entries; errors are never kept."""
        return _composite_coeffs(self.fluid.mu, spec.lam, spec.d_membrane,
                                 spec.d_hinge, spec.w, spec.h, spec.n,
                                 self.thrust_scale)


def _check_config(cfg: object) -> None:
    """ParameterError where ``cfg`` is not a RobotConfig."""
    if not isinstance(cfg, RobotConfig):
        raise ParameterError(f"cfg: must be a RobotConfig, got {cfg!r}")


class SolveResult(NamedTuple):
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


def _shape(drag: CompositeDrag, beta: float, mu: float, a: float) -> tuple:
    """First stage of one flagellum but its length, for _stage: (K_N,
    gamma-1, beta^2, q, 1+q, -pi^2*beta^2*K_N, gamma+q, 3*pi*mu*a*(1+q)),
    where q = 2*pi^2*beta^2."""
    K_N, gamma = drag.K_N, drag.gamma
    b2 = beta ** 2
    q = _TWO_PI_SQ * b2
    den = 1.0 + q
    return (K_N, gamma - 1.0, b2, q, den, _NEG_PI_SQ * b2 * K_N, gamma + q,
            _THREE_PI * mu * a * den)


def _wave(flagellum: tuple, v_w: float) -> tuple:
    """_point's constants of a flagellum at wave speed v_w: (K_N*L,
    gamma-1, 1+q, -q*v_w*(gamma-1), 2*pi^2*v_w*beta^2, q*v_w^2), where
    q = 2*pi^2*beta^2. A caller that names its errors forms it after a
    speed at v_w, so that an overflowing speed is named first."""
    knl, g, b2, q, den = flagellum
    return (knl, g, den, -q * v_w * g, _TWO_PI_SQ * v_w * b2, q * v_w ** 2)


def _speed(terms: tuple, v_sum: float) -> float:
    """solve_velocity's U_X at v_sum = v_w1 + v_w2 from the speed terms of
    _stage; raises NumericalError when it is not finite."""
    num, den = terms
    if den == 0.0:  # only at L = 0 and a = 0, where num is 0 too
        return 0.0
    U = num * v_sum / den + 0.0
    if not math.isfinite(U):
        raise _non_finite("U_X", U)
    return U


@_in_double_range
def solve_velocity(cfg: RobotConfig) -> float:
    """Swimming speed from the zero-net-force balance (reduced form).

    U_X = -pi^2*beta^2*K_N*L*(gamma-1)*(v_w1+v_w2)
          / [K_N*L*(gamma + 2*pi^2*beta^2) + 3*pi*mu*a*(1 + 2*pi^2*beta^2)]

    Raises NumericalError when U_X is not finite or the inputs otherwise
    lie beyond double-precision range.
    """
    _check_config(cfg)
    return _speed(_kernel(cfg)[0], cfg.anterior.v_w + cfg.posterior.v_w)


def _body(cfg: RobotConfig) -> tuple:
    """First stage of the body: (6*pi*mu*a, m*g, rho, 2a, mu, a), for
    _fields."""
    mu, a = cfg.fluid.mu, cfg.body.a
    return (6.0 * math.pi * mu * a, cfg.body.mass * GRAVITY, cfg.fluid.rho,
            2.0 * a, mu, a)


def _fields(body: tuple, U: float, F1: float, F2: float, P1: float,
            P2: float) -> tuple:
    """The fields of a SolveResult, in its order, from _body(cfg), a finite
    speed, two thrusts and two powers.

    The one definition of the body drag, P0, eta, CoT and Re that both
    backends share:

    F_body = -6*pi*mu*a*U (Stokes), P0 = 6*pi*mu*a*U^2,
    eta = P0/(P1+P2), CoT = (P1+P2)/(m*g*|U|), Re = rho*|U|*2a/mu.

    eta is 0 when P0 = 0, and P0 > 0 with zero flagellar power raises
    InconsistencyError. CoT uses the total flagellar power and the speed
    magnitude so that backward-swimming configurations (gamma > 1) remain
    well defined; it is 0 for a fully quiescent swimmer and infinite when
    the flagella dissipate power without producing net motion.

    Raises NumericalError when any field but CoT is not finite: the
    inputs then lie beyond double-precision range. P0 is checked before
    eta is formed from it. Two loops repeat these formulas inline:
    sweep._frequency_grid for the outputs a frequency grid returns, and
    the efficiency search of calibrate._objective_fn for eta but no CoT.
    Both form no thrust, body drag or residual where one bound,
    sweep._bounded, shows that the finiteness sum below is finite wherever
    eta is: on a grid's first stage, or on the envelope of a pass of the
    search (calibrate._envelope). An unbounded pass forms that sum. A
    frequency grid runs only where sweep._certified also shows that no
    point can fail, and then forms each row's one output, or a sweep's
    seven, with no check per point; the search checks eta at each design.
    """
    stokes, weight, rho, diameter, mu, a = body
    P0 = stokes * U ** 2
    if not math.isfinite(P0):
        raise _non_finite("P0", P0)
    total_power = P1 + P2
    if total_power == 0.0 and P0 != 0.0:
        raise InconsistencyError(
            f"useful power {P0!r} with zero flagellar power")
    eta = 0.0 if P0 == 0.0 else P0 / total_power
    speed = abs(U)
    if speed > 0:
        cot = total_power / (weight * speed)
    elif total_power > 0:
        cot = math.inf
    else:
        cot = 0.0
    re = rho * speed * diameter / mu if a > 0 else 0.0
    # -stokes * U rounds as (-6*pi*mu*a) * U: rounding is symmetric in sign
    F_body = -stokes * U + 0.0
    residual = F1 + F2 + F_body
    fields = (U, F1, F2, F_body, residual, P1, P2, P0, eta, cot, re)
    # every field but CoT (U by the caller, P0 above) in one test: a sum
    # is finite only where each term is, though it may overflow where
    # each is finite; the loop names the first that is not
    if not math.isfinite(F1 + F2 + F_body + residual + P1 + P2 + eta + re):
        for name, value in zip(SolveResult._fields, fields):
            if name != "CoT" and not math.isfinite(value):
                raise _non_finite(name, value)
    return fields


def _check_identical(*pairs: tuple) -> None:
    """AsymmetryError at the first (name, anterior's, posterior's) of
    ``pairs`` whose two differ beyond 1e-12 relative: the closed form
    assumes identical K_N, gamma, beta and L, checked in that order."""
    for name, u, v in pairs:
        if not math.isclose(u, v, rel_tol=_GEOM_RTOL, abs_tol=0.0):
            raise AsymmetryError(
                f"flagella differ in {name} ({u!r} vs {v!r}); the closed form"
                " assumes identical flagella, use the oracle solver instead")


def _stage(shape1: tuple, shape2: tuple, L1: float, L2: float) -> tuple:
    """First stage of a geometry from each flagellum's _shape and length,
    the anterior's first, once _check_identical has passed them: (the
    speed's numerator but its factor v_w1 + v_w2 and its denominator, then
    each flagellum's (K_N*L, gamma-1, beta^2, q, 1+q)), for _speed, _wave."""
    K_N, g, b2, q, den, lead, gq, body = shape1
    knl = K_N * L1
    K_N2, g2, b22, q2, den2, _, _, _ = shape2
    return ((lead * L1 * g, knl * gq + body), (knl, g, b2, q, den),
            (K_N2 * L2, g2, b22, q2, den2))


def _kernel(cfg: RobotConfig) -> tuple:
    """_stage of ``cfg``, after its identical-flagella check."""
    (anterior, posterior), mu, a = cfg.flagella, cfg.fluid.mu, cfg.body.a
    d1, d2 = cfg.effective_drag(anterior), cfg.effective_drag(posterior)
    beta1, beta2 = anterior.beta, posterior.beta
    _check_identical(("K_N", d1.K_N, d2.K_N), ("gamma", d1.gamma, d2.gamma),
                     ("beta", beta1, beta2), ("L", anterior.L, posterior.L))
    shape1 = _shape(d1, beta1, mu, a)  # equal inputs give equal shapes
    shape2 = (shape1 if (d2.K_N, d2.gamma, beta2) == (d1.K_N, d1.gamma, beta1)
              else _shape(d2, beta2, mu, a))
    return _stage(shape1, shape2, anterior.L, posterior.L)


def _point(body: tuple, U: float, wave1: tuple, wave2: tuple) -> tuple:
    """The fields of full_solve at a finite speed U from _body and the
    _wave of each flagellum, the anterior's first, as _fields gives them.
    Callers raise its OverflowError or ZeroDivisionError as _range_error.

    With t, c and w the last three of a _wave, each flagellum's
    period-averaged x-thrust and power are F = K_N*L*[(t - (gamma-1)*U)
    /(1+q) - U] and P = K_N*L*[(gamma-1)*(c -/+ U)^2/(1+q) + U^2 + w],
    with - for the anterior flagellum and + for the posterior one. P is
    the small-beta average of the RFT power integral; README's power
    check gives its gap to the exact one, the oracle's, which has no such
    sign. The - flips the anterior's U cross term, so only the posterior
    keeps the RFT identity dP/dU = -2F. The powers come first: only they
    can raise, so no outcome depends on whether the thrusts are formed.
    """
    knl1, g1, den1, t1, c1, w1 = wave1
    knl2, g2, den2, t2, c2, w2 = wave2
    P1 = knl1 * (g1 * (c1 - U) ** 2 / den1 + U ** 2 + w1)
    P2 = knl2 * (g2 * (c2 + U) ** 2 / den2 + U ** 2 + w2)
    # trailing + 0.0 turns an exact -0.0 into 0.0 in serialized output
    F1 = knl1 * ((t1 - g1 * U) / den1 - U) + 0.0
    F2 = knl2 * ((t2 - g2 * U) / den2 - U) + 0.0
    return _fields(body, U, F1, F2, P1, P2)


@_in_double_range
def full_solve(cfg: RobotConfig) -> SolveResult:
    """Solve the force balance and assemble every derived quantity.

    Raises NumericalError where the inputs lie beyond double-precision
    range.
    """
    _check_config(cfg)
    (speed_terms, flagellum1, flagellum2), body = _kernel(cfg), _body(cfg)
    v_w1, v_w2 = cfg.anterior.v_w, cfg.posterior.v_w
    U = _speed(speed_terms, v_w1 + v_w2)
    return SolveResult._make(_point(body, U, _wave(flagellum1, v_w1),
                                    _wave(flagellum2, v_w2)))
