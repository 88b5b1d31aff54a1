"""Reference evaluator of the segment drag model: exact period averages.

Averages the local drag law dF/ds = K_N*V_N*n + K_L*V_L*l over one beat
period and the flagellum's length with the exact arc-length measure
ds = sqrt(1+slope^2) dx. Unlike the closed-form module it makes no
small-amplitude expansion, so the difference between the two is a direct
measurement of the closed form's approximation error. It also handles
flagella with differing geometry.

For f > 0 the waveform is a travelling wave, so the time average at every
x is the same average over the phase. Each term is then a phase average
I_2j = <c^2j / sqrt(1+B^2 c^2)> with c = cos(phase) and B = 2*pi*A/lambda,
a complete elliptic integral. A static flagellum (f = 0) covers a partial
wavelength, so its drag is averaged over x by the trapezoid rule.

Per flagellum the averages reduce to three numbers (T0, D, Q): thrust is
T0 - D*U and power D*U^2 - 2*T0*U + Q, so the force balance has a closed
root instead of an iterative search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import (
    RobotConfig,
    SolveResult,
    _in_double_range,
    assemble_result,
)
from .core import _non_finite
from .errors import BracketError, ParameterError


@dataclass(frozen=True)
class OracleSettings:
    """Static-flagellum resolution, accepted speed range and zero-thrust test.

    The period averages are exact, so ``n_time`` and ``tol_u`` are
    validated but have no effect.
    """

    n_segments: int = 512              # x intervals of a static (f = 0) flagellum
    n_time: int = 128                  # no effect: the period average is exact
    u_bracket: tuple[float, float] = (-1.0, 1.0)  # accepted speeds [m/s]
    tol_force: float = 1e-12           # total thrust treated as 0 [N]
    tol_u: float = 1e-12               # no effect: the root is exact [m/s]

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


def _phase_averages(B: float) -> tuple[float, float, float]:
    """(I0, I2, B^2*I4) with I_2j = <c^2j / sqrt(1+B^2 c^2)> over the phase.

    With r = sqrt(1+B^2) and m = B^2/r^2, I0 = 2K(m)/(pi*r) and
    I2 = I0*(1 - S) with S = (K-E)/(m*K). The arithmetic-geometric mean
    from (1, 1/r) gives K = pi/(2*a_inf) and S = 1/2 + sigma with
    sigma = sum_{n>=1} 2^(n-1)*c_n^2/m (Abramowitz & Stegun 17.6). Each
    c_{n+1} = c_n^2/(4*a_{n+1}) comes from the one before, so no difference
    of nearly equal numbers is formed (Carlson 1995) and I2 keeps full
    relative precision as B -> 0. Averaging
    d/dphase[sin*cos*sqrt(1+B^2 c^2)] = 0 gives
    3*B^2*I4 = I0 - (2-2B^2)*I2 = 2*I0*sigma + 2*B^2*I2.
    """
    r = math.sqrt(1.0 + B * B)
    m = (B / r) ** 2
    b0 = 1.0 / r
    a, b = 0.5 * (1.0 + b0), math.sqrt(b0)
    c = m / (2.0 * (1.0 + b0))  # c_1 = (1 - b0)/2
    sigma, weight, tol = 0.0, 1.0, 1e-17 * c
    while c > tol:
        sigma += weight * (c * c / m)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
        weight *= 2.0
    i0 = 1.0 / (a * r)
    i2 = i0 * (0.5 - sigma)
    return i0, i2, (2.0 * i0 * sigma + 2.0 * B * B * i2) / 3.0


class FlagellumAverages(NamedTuple):
    """Exact period averages of one flagellum; T0 = Q = 0 when static."""

    T0: float  # thrust at U = 0 [N]
    D: float   # thrust lost per unit speed [N.s/m]
    Q: float   # power at U = 0 [W]

    def thrust(self, U: float) -> float:
        """Period-averaged x-thrust at swimming speed U."""
        return self.T0 - self.D * U

    def power(self, U: float) -> float:
        """Period-averaged power at speed U, >= 0 for every valid config."""
        return self.D * U * U - 2.0 * self.T0 * U + self.Q


def flagellum_averages(cfg: RobotConfig, k: int,
                       settings: OracleSettings | None = None) -> FlagellumAverages:
    """Period averages (T0, D, Q) of flagellum ``k``.

    F = (1/T) int_0^T int_0^L (dFx/ds) ds dt with ds = sqrt(1+slope^2) dx
    is T0 - D*U, and the power P = (1/T) int int (K_N*V_N^2 + K_L*V_L^2)
    ds dt is D*U^2 - 2*T0*U + Q.
    """
    settings = settings or OracleSettings()
    spec = cfg.spec_for(k)
    drag = cfg.effective_drag(spec)
    x0, x1 = spec.axial_span(cfg.body.a)
    B = 2.0 * math.pi * spec.A / spec.lam
    if spec.f > 0:
        i0, i2, b2i4 = _phase_averages(B)
        length = x1 - x0
        a_omega = 2.0 * math.pi * spec.f * spec.A
        return FlagellumAverages(
            (drag.K_N - drag.K_L) * a_omega * B * i2 * length,
            (drag.K_N * B * B * i2 + drag.K_L * i0) * length,
            a_omega ** 2 * (drag.K_N * i2 + drag.K_L * b2i4) * length)
    # inputs beyond double range give a non-finite D, which the range
    # checks turn into one NumericalError: numpy need not warn as well
    with np.errstate(all="ignore"):
        x = np.linspace(x0, x1, settings.n_segments + 1)
        slope2 = (B * np.cos(2.0 * math.pi * (x + spec.axis_sign * cfg.body.a)
                             / spec.lam)) ** 2
        values = (drag.K_N * slope2 + drag.K_L) / np.sqrt(1.0 + slope2)
        trapezoid = float(values.sum()) - 0.5 * float(values[0] + values[-1])
    return FlagellumAverages(0.0, trapezoid * (x1 - x0) / settings.n_segments,
                             0.0)


@_in_double_range
def oracle_full_solve(cfg: RobotConfig,
                      settings: OracleSettings | None = None) -> SolveResult:
    """SolveResult of the averaged force balance, from the oracle alone.

    The total averaged force (T1 + T2) - U*(D1 + D2 + 6*pi*mu*a) is affine
    in U, so its root is U = (T1 + T2)/(D1 + D2 + 6*pi*mu*a). A total
    thrust within tol_force of 0 gives U = 0, which also covers the zero
    denominator at L = 0, a = 0.

    Raises BracketError when the root lies outside u_bracket (ends
    included), and NumericalError when the inputs lie beyond
    double-precision range, a root that is not finite included.
    """
    settings = settings or OracleSettings()
    anterior = flagellum_averages(cfg, 1, settings)
    posterior = flagellum_averages(cfg, 2, settings)
    thrust = anterior.T0 + posterior.T0
    U = 0.0
    if abs(thrust) > settings.tol_force:
        U = thrust / (anterior.D + posterior.D
                      + 6.0 * math.pi * cfg.fluid.mu * cfg.body.a)
        if not math.isfinite(U):
            raise _non_finite("U_X", U)
        lo, hi = settings.u_bracket
        if not lo <= U <= hi:
            raise BracketError(
                f"no sign change of total force on u_bracket [{lo:g}, {hi:g}];"
                " widen the bracket")
    return assemble_result(cfg, U, anterior.thrust(U), posterior.thrust(U),
                           anterior.power(U), posterior.power(U))
