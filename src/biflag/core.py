"""Domain types, flagellum geometry, and drag coefficients.

Units are SI throughout: lengths in m, times in s, frequencies in Hz,
viscosity in Pa.s. Drag coefficients are per unit filament length.

The swimmer is a sphere of radius ``a`` centred at the origin with two
flagella beating planar sine waves: the anterior flagellum occupies the
axial interval [a, a+L] and the posterior one [-a-L, -a]. Flagellum k
deflects as y(x, t) = A sin(s*omega*t + s*2*pi*(x + s*a)/lambda) with
s = ``axis_sign`` (-1 anterior, +1 posterior). Both waves travel toward
-x, so an anisotropic filament (gamma != 1) propels the body along x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import NumericalError, ParameterError, SlenderBodyError

ANTERIOR = "anterior"
POSTERIOR = "posterior"

#: the slender-body log law has a pole where ln(4*lambda/d) hits this value
SLENDER_LOG_LIMIT = 2.90


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _non_finite(name: str, value: float) -> NumericalError:
    """The error for a quantity ``name`` that overflowed to ``value``."""
    return NumericalError(f"non-finite {name} ({value!r}): the inputs lie"
                          " beyond double-precision range")


@dataclass(frozen=True)
class FluidMedium:
    """Newtonian working fluid; the defaults model glycerine."""

    mu: float = 1.49     # dynamic viscosity [Pa.s]
    rho: float = 1000.0  # density [kg/m^3]

    def __post_init__(self) -> None:
        _require(self.mu > 0, "mu: must be > 0")
        _require(self.rho > 0, "rho: must be > 0")


@dataclass(frozen=True)
class BodyGeometry:
    """Effective spherical body."""

    a: float = 0.035     # effective spherical radius [m]
    mass: float = 0.256  # robot mass [kg]

    def __post_init__(self) -> None:
        _require(self.a >= 0, "a: must be >= 0")
        _require(self.mass > 0, "mass: must be > 0")


@dataclass(frozen=True)
class FlagellumSpec:
    """Geometry and actuation of one flagellum.

    The membrane is the load-bearing sheet of the flagellum; the hinge
    lattice is the set of transverse filaments (``n`` per unit length,
    each of length ``h``) that stiffen it. Both contribute drag.
    """

    role: str                  # "anterior" or "posterior"
    L: float = 0.12            # flagellum length [m]
    A: float = 0.0075          # wave amplitude [m]
    lam: float = 0.10          # wavelength [m]
    f: float = 4.41            # beat frequency [Hz]
    d_membrane: float = 0.002  # membrane effective diameter [m]
    d_hinge: float = 0.002     # hinge filament diameter [m]
    w: float = 0.035           # membrane width [m]
    h: float = 0.016           # hinge length [m]
    n: float = 200.0           # hinge line density [1/m]

    def __post_init__(self) -> None:
        _require(self.role in (ANTERIOR, POSTERIOR),
                 f"role: must be '{ANTERIOR}' or '{POSTERIOR}'")
        _require(self.L >= 0, "L: must be >= 0")
        _require(self.lam > 0, "lambda: must be > 0")
        _require(self.f >= 0, "f: must be >= 0")
        _require(0 <= self.A < self.lam / 2, "A: must satisfy 0 <= A < lambda/2")
        _require(self.d_membrane > 0, "d_membrane: must be > 0")
        _require(self.d_hinge > 0, "d_hinge: must be > 0")
        _require(self.w > 0, "w: must be > 0")
        _require(self.h >= 0, "h: must be >= 0")
        _require(self.n >= 0, "n: must be >= 0")

    @property
    def axis_sign(self) -> int:
        """(-1)**k: -1 for the anterior flagellum, +1 for the posterior."""
        return -1 if self.role == ANTERIOR else 1

    @property
    def beta(self) -> float:
        """Amplitude-to-wavelength ratio A/lambda."""
        return self.A / self.lam

    @property
    def v_w(self) -> float:
        """Wave propagation speed lambda*f [m/s]."""
        return self.lam * self.f

    def axial_span(self, body_radius: float) -> tuple[float, float]:
        """Ascending (x_min, x_max) interval occupied by this flagellum."""
        if self.role == ANTERIOR:
            return (body_radius, body_radius + self.L)
        return (-body_radius - self.L, -body_radius)


@dataclass(frozen=True)
class CompositeDrag:
    """Normal/tangential drag coefficients per unit length and their ratio.

    A coefficient that is infinite raises NumericalError: the inputs it
    was computed from lie beyond double-precision range.
    """

    K_N: float  # normal coefficient [Pa.s]
    K_L: float  # tangential coefficient [Pa.s]
    gamma: float = field(init=False)  # K_L / K_N

    def __post_init__(self) -> None:
        if not (0 < self.K_N < math.inf and 0 < self.K_L < math.inf):
            for name, value in (("K_N", self.K_N), ("K_L", self.K_L)):
                _require(value > 0, f"{name}: must be > 0")
                if value == math.inf:
                    raise _non_finite(name, value)
        object.__setattr__(self, "gamma", self.K_L / self.K_N)

    def scaled(self, factor: float) -> "CompositeDrag":
        """Both coefficients multiplied by ``factor`` (ratio unchanged)."""
        _require(factor > 0, "factor: must be > 0")
        return CompositeDrag(self.K_N * factor, self.K_L * factor)


def slender_log(lam: float, d: float) -> float:
    """ln(4*lambda/d), the slender-body log term; -inf where the ratio
    underflows to 0, which lies past the pole like any ratio below it."""
    ratio = 4.0 * lam / d
    return math.log(ratio) if ratio > 0.0 else -math.inf


def brennen_winet(mu: float, lam: float, d: float) -> CompositeDrag:
    """Slender-body drag coefficients of a waving filament (Brennen & Winet).

    K_N = 4*pi*mu / (ln(4*lambda/d) - 2.90)
    K_L = 2*pi*mu / (ln(4*lambda/d) - 1.90)

    Raises SlenderBodyError when ln(4*lambda/d) <= 2.90, where the
    normal-coefficient denominator is no longer positive, and
    NumericalError where 4*lambda/d overflows to inf.
    """
    _require(mu > 0, "mu: must be > 0")
    _require(lam > 0, "lambda: must be > 0")
    _require(d > 0, "d: must be > 0")
    log_term = slender_log(lam, d)
    if log_term <= SLENDER_LOG_LIMIT:
        raise SlenderBodyError(
            f"slender-body validity violated: ln(4*lambda/d) = {log_term:.4f}"
            f" <= {SLENDER_LOG_LIMIT} for lambda={lam:g}, d={d:g}")
    if log_term == math.inf:
        raise _non_finite("ln(4*lambda/d)", log_term)
    return CompositeDrag(
        K_N=4.0 * math.pi * mu / (log_term - 2.90),
        K_L=2.0 * math.pi * mu / (log_term - 1.90),
    )


def composite_coeffs(spec: FlagellumSpec, fluid: FluidMedium) -> CompositeDrag:
    """Effective drag coefficients of the membrane-plus-hinge assembly.

    K_N = w*(K_Nm + n*h*K_Lh) and K_L = w*(K_Lm + n*h*K_Nh): a hinge
    filament lies transverse to the flagellum axis, so its tangential
    coefficient resists normal motion of the assembly and vice versa.
    With an active hinge term the composite ratio gamma = K_L/K_N can
    exceed 1, and callers must not assume otherwise. The width w acts
    as a scaling factor on both coefficients and leaves gamma unchanged.

    Only mu, lambda, d_membrane, d_hinge, w, h and n enter, so the result
    is memoised per distinct input in a bounded least-recently-used
    cache: a design search that varies L, A and f reuses it. Errors are
    not memoised and are raised afresh on every call.
    """
    return _composite_coeffs(fluid.mu, spec.lam, spec.d_membrane,
                             spec.d_hinge, spec.w, spec.h, spec.n)


# bounded, so that a population of configs none of which repeats (a
# random cross-check) holds at most 256 entries; typed, so that an int
# input never shares an entry with the equal float
@functools.lru_cache(maxsize=256, typed=True)
def _composite_coeffs(mu: float, lam: float, d_membrane: float,
                      d_hinge: float, w: float, h: float,
                      n: float) -> CompositeDrag:
    membrane = brennen_winet(mu, lam, d_membrane)
    hinge_per_length = n * h
    if hinge_per_length > 0:
        hinge = brennen_winet(mu, lam, d_hinge)
        return CompositeDrag(
            K_N=w * (membrane.K_N + hinge_per_length * hinge.K_L),
            K_L=w * (membrane.K_L + hinge_per_length * hinge.K_N),
        )
    return CompositeDrag(K_N=w * membrane.K_N, K_L=w * membrane.K_L)
