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
wavelength, so its drag is averaged over x by the trapezoid rule on
n_segments + 1 nodes, formed as np.linspace forms them: with both ends as
floats and step = (x1 - x0)/n, node i is i*step + x0 (or i/n*(x1 - x0) +
x0 where the step underflows to 0) and the last node is x1 itself. The
nodes and the integrand are computed in place, each operation in the
order of the plain expression, so D is bit for bit that of np.linspace
and temporary arrays.

Per flagellum the averages reduce to three numbers (T0, D, Q): thrust is
T0 - D*U and power D*U^2 - 2*T0*U + Q, so the force balance has a closed
root instead of an iterative search. A solve checks its config and
settings once, then averages each flagellum, the anterior first; two
flagella of equal B share one evaluation of the phase averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import (
    RobotConfig,
    SolveResult,
    _body,
    _check_config,
    _fields,
)
from .core import (
    FlagellumSpec,
    _bound,
    _check_count,
    _check_integer,
    _in_double_range,
    _non_finite,
    _pair,
    _real,
    _require,
)
from .errors import BracketError, ParameterError


@dataclass(frozen=True)
class OracleSettings:
    """Static-flagellum resolution, accepted speed range and zero-thrust test.

    ``n_segments`` is a count from 16 to core._MOST_POINTS (core._check_count),
    at which the static trapezoid errs by about 5e-12, and ``n_time`` an
    integer >= 8. The period averages are exact, so ``n_time`` and
    ``tol_u`` are validated but have no effect.
    """

    n_segments: int = 512              # x intervals of a static (f = 0) flagellum
    n_time: int = 128                  # no effect: the period average is exact
    u_bracket: tuple[float, float] = (-1.0, 1.0)  # accepted speeds [m/s]
    tol_force: float = 1e-12           # total thrust treated as 0 [N]
    tol_u: float = 1e-12               # no effect: the root is exact [m/s]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_segments",
                           _check_count("n_segments", self.n_segments, 16))
        _check_integer("n_time", self.n_time, 8)
        _bound("tol_force", self.tol_force, strict=True, owner=self)
        _bound("tol_u", self.tol_u, strict=True, owner=self)
        lo, hi = map(_real, _pair(self.u_bracket))
        _require(-math.inf < lo < hi < math.inf,
                 "u_bracket: must be finite and ordered")
        object.__setattr__(self, "u_bracket", (lo, hi))


_DEFAULT_SETTINGS = OracleSettings()  # frozen: one serves every call


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


def _check_settings(settings: object) -> OracleSettings:
    """``settings``, or the defaults where it is None; ParameterError
    where it is no OracleSettings."""
    if settings is None:
        return _DEFAULT_SETTINGS
    if not isinstance(settings, OracleSettings):
        raise ParameterError(
            f"settings: must be an OracleSettings, got {settings!r}")
    return settings


@_in_double_range
def flagellum_averages(cfg: RobotConfig, k: int,
                       settings: OracleSettings | None = None) -> FlagellumAverages:
    """Period averages (T0, D, Q) of flagellum ``k``.

    F = (1/T) int_0^T int_0^L (dFx/ds) ds dt with ds = sqrt(1+slope^2) dx
    is T0 - D*U, and the power P = (1/T) int int (K_N*V_N^2 + K_L*V_L^2)
    ds dt is D*U^2 - 2*T0*U + Q.

    Overflow raises NumericalError; the result is not range-checked.
    """
    _check_config(cfg)
    settings = _check_settings(settings)
    return _averages(cfg, cfg.spec_for(k), settings, {})


def _averages(cfg: RobotConfig, spec: FlagellumSpec, settings: OracleSettings,
              phases: dict) -> FlagellumAverages:
    """flagellum_averages of ``spec``, one of cfg's flagella, once cfg and
    settings have passed their checks. ``phases`` maps each B seen to its
    _phase_averages(B), so that flagella averaged with one dict form
    those of one B once."""
    drag = cfg.effective_drag(spec)
    x0, x1 = spec.axial_span(cfg.body.a)
    B = 2.0 * math.pi * spec.A / spec.lam
    if spec.f > 0:
        phase = phases.get(B)
        if phase is None:
            phase = phases[B] = _phase_averages(B)
        i0, i2, b2i4 = phase
        length = x1 - x0
        a_omega = 2.0 * math.pi * spec.f * spec.A
        return FlagellumAverages(
            (drag.K_N - drag.K_L) * a_omega * B * i2 * length,
            (drag.K_N * B * B * i2 + drag.K_L * i0) * length,
            a_omega ** 2 * (drag.K_N * i2 + drag.K_L * b2i4) * length)
    # the nodes of np.linspace(x0, x1, n + 1), by its arithmetic in one
    # buffer
    n = settings.n_segments
    delta = x1 - x0
    step = delta / n
    # inputs beyond double range give a non-finite D, which the range
    # checks turn into one NumericalError: numpy need not warn as well
    with np.errstate(all="ignore"):
        x = np.arange(n + 1, dtype=float)
        if step == 0.0:  # an underflowed step, as np.linspace treats it
            x /= n
            x *= delta
        else:
            x *= step
        x += x0
        x[-1] = x1
        # slope^2 = (B*cos(2*pi*(x + s*a)/lambda))^2 and the integrand
        # (K_N*slope^2 + K_L)/sqrt(1 + slope^2), in place, in that order
        x += spec.axis_sign * cfg.body.a
        x *= 2.0 * math.pi
        x /= spec.lam
        np.cos(x, out=x)
        x *= B
        slope2 = np.square(x, out=x)
        values = np.multiply(slope2, drag.K_N)
        values += drag.K_L
        slope2 += 1.0
        values /= np.sqrt(slope2, out=slope2)
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

    ``cfg`` and ``settings`` are checked once; each flagellum's averages
    are then those of flagellum_averages, bit for bit, with the phase
    averages formed once where both flagella have the same B.
    """
    _check_config(cfg)
    settings = _check_settings(settings)
    phases = {}
    anterior = _averages(cfg, cfg.anterior, settings, phases)
    posterior = _averages(cfg, cfg.posterior, settings, phases)
    body = _body(cfg)
    thrust = anterior.T0 + posterior.T0
    U = 0.0
    if abs(thrust) > settings.tol_force:
        U = thrust / (anterior.D + posterior.D + body[0])  # 6*pi*mu*a
        if not math.isfinite(U):
            raise _non_finite("U_X", U)
        lo, hi = settings.u_bracket
        if not lo <= U <= hi:
            raise BracketError(
                f"no sign change of total force on u_bracket [{lo:g}, {hi:g}];"
                " widen the bracket")
    return SolveResult._make(_fields(
        body, U, anterior.thrust(U), posterior.thrust(U), anterior.power(U),
        posterior.power(U)))
