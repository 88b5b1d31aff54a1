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
import numbers
from dataclasses import dataclass, field

from .errors import NumericalError, ParameterError, SlenderBodyError
from .errors import _MixError

ANTERIOR = "anterior"
POSTERIOR = "posterior"

#: the slender-body log law has a pole where ln(4*lambda/d) hits this value
SLENDER_LOG_LIMIT = 2.90


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _check_number(name: str, value: object) -> None:
    """Raise ParameterError where ``value`` is not a number: where it does
    not order against 0, as every real number does."""
    try:
        value < 0
    except TypeError:
        raise ParameterError(
            f"{name}: must be a number, got {value!r}") from None


def _check_real(name: str, value: object) -> None:
    """_check_number, which a NaN fails too, with the same message."""
    _check_number(name, value)
    if value != value:  # NaN; math.isnan overflows on an int beyond range
        raise ParameterError(f"{name}: must be a number, got {value!r}")


def _bound(name: str, value: float, least: float = 0,
           strict: bool = False) -> None:
    """The one bound check: ParameterError where ``value`` is not a number,
    or is not > ``least`` where ``strict``, else >= ``least``."""
    try:
        if value > least if strict else value >= least:
            return
    except TypeError:
        pass
    _check_number(name, value)
    raise ParameterError(f"{name}: must be {'>' if strict else '>='} {least}")


def _check_integer(name: str, value: int, least: int) -> None:
    """The one integer check: an Integral, not a bool, and >= ``least``."""
    # int first: its exact type match skips the abstract class's slow check
    if type(value) is bool or not isinstance(value, (int, numbers.Integral)):
        raise ParameterError(f"{name}: must be an integer, got {value!r}")
    _bound(name, value, least)


def _check_amplitude(A: float, lam: float) -> None:
    """The one amplitude check, against a lambda that has passed its own:
    ParameterError where A is not a number, or not 0 <= A < lambda/2."""
    try:
        half = lam / 2
    except OverflowError:  # an int lambda beyond double range
        half = (lam + 1) // 2  # A < half exactly where A < lambda/2
    try:
        if 0 <= A < half:
            return
    except TypeError:
        pass
    _check_number("A", A)
    raise ParameterError("A: must satisfy 0 <= A < lambda/2")


def _finite(value: float) -> bool:
    """Whether ``value`` is a finite float or an int within double range:
    math.isfinite, but false where it raises OverflowError for an int
    too large to convert, or TypeError for a value that is no number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def _pair(value, name: str = "") -> tuple:
    """``value``'s two items. Where it is not a pair: a ParameterError
    that names ``name``, or with no name two NaNs."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        if name:
            raise ParameterError(f"{name}: must be a pair, got {value!r}")
        return math.nan, math.nan
    return lo, hi


def _check_finite(name: str, value: float,
                  error: type = ParameterError) -> None:
    """The one finite check: ParameterError where ``value`` is not a
    number (_check_number), and ``error`` where _finite rejects it; an int
    beyond double range is described, not printed in full."""
    if not _finite(value):
        _check_number(name, value)
        got = ("an integer beyond double-precision range"
               if isinstance(value, int) else repr(value))
        raise error(f"{name}: must be finite, got {got}")


def _check_mixes(*pairs: tuple) -> None:
    """A _MixError at the first (name, value) of ``pairs`` whose value is
    a number of a kind that float arithmetic rejects, such as a Decimal."""
    for name, value in pairs:
        if type(value) is not float and not isinstance(value, numbers.Real):
            raise _MixError(f"{name}: must be a number that mixes with"
                            f" floats, got {value!r}")


def _non_finite(name: str, value: float) -> NumericalError:
    """The error for a quantity ``name`` that overflowed to ``value``."""
    return NumericalError(f"non-finite {name} ({value!r}): the inputs lie"
                          " beyond double-precision range")


def _range_error(exc: ArithmeticError) -> NumericalError:
    """The error for an OverflowError or ZeroDivisionError of float
    arithmetic: where they occur, the inputs lie beyond double-precision
    range."""
    kind = ("overflow" if isinstance(exc, OverflowError)
            else "division by an underflowed zero")
    return NumericalError(f"floating-point {kind}: the inputs lie"
                          " beyond double-precision range")


def _in_double_range(solve):
    """``solve`` with the OverflowError and ZeroDivisionError of float
    arithmetic raised as _range_error."""
    @functools.wraps(solve)
    def checked(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise _range_error(exc) from exc
    return checked


@dataclass(frozen=True)
class FluidMedium:
    """Newtonian working fluid; the defaults model glycerine."""

    mu: float = 1.49     # dynamic viscosity [Pa.s]
    rho: float = 1000.0  # density [kg/m^3]

    def __post_init__(self) -> None:
        _bound("mu", self.mu, strict=True)
        _bound("rho", self.rho, strict=True)


@dataclass(frozen=True)
class BodyGeometry:
    """Effective spherical body."""

    a: float = 0.035     # effective spherical radius [m]
    mass: float = 0.256  # robot mass [kg]

    def __post_init__(self) -> None:
        _bound("a", self.a)
        _bound("mass", self.mass, strict=True)


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
        _bound("L", self.L)
        _bound("lambda", self.lam, strict=True)
        _bound("f", self.f)
        _check_amplitude(self.A, self.lam)
        _bound("d_membrane", self.d_membrane, strict=True)
        _bound("d_hinge", self.d_hinge, strict=True)
        _bound("w", self.w, strict=True)
        _bound("h", self.h)
        _bound("n", self.n)

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
    was computed from lie beyond double-precision range. So does a
    coefficient beyond that range, such as an int, a ratio that overflows,
    a K_N that converts to 0.0, and a scaling that overflows. Two
    coefficients of kinds that do not divide, such as a Decimal and a
    float, raise ParameterError.
    """

    K_N: float  # normal coefficient [Pa.s]
    K_L: float  # tangential coefficient [Pa.s]
    gamma: float = field(init=False)  # K_L / K_N

    def __post_init__(self) -> None:
        K_N, K_L = self.K_N, self.K_L
        # measured: calling the checks for every drag slowed a cross-check
        # job by about 10%, so two floats in range, the common case, skip them
        if not (type(K_N) is type(K_L) is float and 0.0 < K_N < math.inf
                and 0.0 < K_L < math.inf):
            for name, value in (("K_N", K_N), ("K_L", K_L)):
                _bound(name, value, strict=True)
                if value == math.inf:
                    raise _non_finite(name, value)
                if not _finite(value):  # say, an int beyond double range
                    raise _range_error(OverflowError())
            if not float(K_N):  # say, a Fraction that rounds to 0.0
                raise _range_error(ZeroDivisionError())
            try:
                ratio = K_L / K_N
            except TypeError:  # say, a Decimal and a float
                raise ParameterError(
                    f"K_N, K_L: must be numbers of kinds that divide, got"
                    f" {K_N!r} and {K_L!r}") from None
            if not _finite(ratio):  # an exact ratio, say of Fractions
                raise _range_error(OverflowError())
        gamma = K_L / K_N
        if gamma == math.inf:
            raise _range_error(OverflowError())
        object.__setattr__(self, "gamma", gamma)

    def scaled(self, factor: float) -> "CompositeDrag":
        """Both coefficients multiplied by ``factor`` (ratio unchanged)."""
        _bound("factor", factor, strict=True)
        try:
            return CompositeDrag(self.K_N * factor, self.K_L * factor)
        except OverflowError as exc:  # an int factor beyond double range
            raise _range_error(exc) from exc


def slender_log(lam: float, d: float) -> float:
    """ln(4*lambda/d), the slender-body log term; -inf where the ratio
    underflows to 0, which lies past the pole like any ratio below it."""
    ratio = 4.0 * lam / d
    return math.log(ratio) if ratio > 0.0 else -math.inf


@_in_double_range
def brennen_winet(mu: float, lam: float, d: float) -> CompositeDrag:
    """Slender-body drag coefficients of a waving filament (Brennen & Winet).

    K_N = 4*pi*mu / (ln(4*lambda/d) - 2.90)
    K_L = 2*pi*mu / (ln(4*lambda/d) - 1.90)

    Raises SlenderBodyError when ln(4*lambda/d) <= 2.90, where the
    normal-coefficient denominator is no longer positive, NumericalError
    where 4*lambda/d overflows to inf or an input lies beyond
    double-precision range, and ParameterError for an input, such as a
    Decimal, that does not mix with floats.
    """
    _bound("mu", mu, strict=True)
    _bound("lambda", lam, strict=True)
    _bound("d", d, strict=True)
    try:
        log_term = slender_log(lam, d)
        if log_term <= SLENDER_LOG_LIMIT:
            raise SlenderBodyError(
                f"slender-body validity violated: ln(4*lambda/d) ="
                f" {log_term:.4f} <= {SLENDER_LOG_LIMIT} for lambda={lam:g},"
                f" d={d:g}")
        if log_term == math.inf:
            raise _non_finite("ln(4*lambda/d)", log_term)
        return CompositeDrag(
            K_N=4.0 * math.pi * mu / (log_term - 2.90),
            K_L=2.0 * math.pi * mu / (log_term - 1.90),
        )
    except TypeError:  # named only on failure: a check first costs each call
        _check_mixes(("mu", mu), ("lambda", lam), ("d", d))
        raise


def composite_coeffs(spec: FlagellumSpec, fluid: FluidMedium) -> CompositeDrag:
    """Effective drag coefficients of the membrane-plus-hinge assembly.

    K_N = w*(K_Nm + n*h*K_Lh) and K_L = w*(K_Lm + n*h*K_Nh): a hinge
    filament lies transverse to the flagellum axis, so its tangential
    coefficient resists normal motion of the assembly and vice versa.
    With an active hinge term the composite ratio gamma = K_L/K_N can
    exceed 1, and callers must not assume otherwise. The width w acts
    as a scaling factor on both coefficients and leaves gamma unchanged.

    The scaled drag is memoised per distinct (mu, lambda, d_membrane,
    d_hinge, w, h, n, scale), here at scale 1.0, in one bounded, typed
    LRU of 256 entries; errors are never kept. An input, such as a
    Decimal, that does not mix with floats raises ParameterError.
    """
    return _composite_coeffs(fluid.mu, spec.lam, spec.d_membrane,
                             spec.d_hinge, spec.w, spec.h, spec.n, 1.0)


# the one drag memo: the scaled drag per distinct (mu, lambda, d_membrane,
# d_hinge, w, h, n, scale), errors never kept; bounded, so that configs
# that never repeat (a random cross-check) hold 256 entries at most, and
# typed, so that an int input never shares an entry with the equal float
@functools.lru_cache(maxsize=256, typed=True)
def _composite_coeffs(mu: float, lam: float, d_membrane: float,
                      d_hinge: float, w: float, h: float, n: float,
                      scale: float) -> CompositeDrag:
    try:
        membrane = brennen_winet(mu, lam, d_membrane)
        K_N, K_L = membrane.K_N, membrane.K_L
        if n * h > 0:
            hinge = brennen_winet(mu, lam, d_hinge)
            K_N, K_L = K_N + n * h * hinge.K_L, K_L + n * h * hinge.K_N
        drag = CompositeDrag(K_N=w * K_N, K_L=w * K_L)
    except TypeError:  # as in brennen_winet, naming the drag input
        _check_mixes(("mu", mu), ("lambda", lam), ("d_membrane", d_membrane),
                     ("d_hinge", d_hinge), ("w", w), ("h", h), ("n", n))
        raise
    return drag.scaled(scale)
