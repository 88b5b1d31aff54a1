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

ANTERIOR = "anterior"
POSTERIOR = "posterior"

#: the slender-body log law has a pole where ln(4*lambda/d) hits this value
#: (Brennen & Winet 1977, Annu. Rev. Fluid Mech. 9:339)
SLENDER_LOG_LIMIT = 2.90


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _real(value: object, name: str = "", owner: object = None,
          field: str = "") -> float:
    """The one number policy: ``value`` as a float, the form in which every
    model object stores it. With an ``owner``, a frozen dataclass whose
    field ``field`` (by default ``name``) holds ``value``, a value that is
    not yet a float is stored there as one. An int beyond double range
    raises NumericalError. A value that is no real number raises a
    ParameterError that names ``name``, "must be a number that mixes with
    floats" for a number such as a Decimal; with no name it gives NaN."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError as exc:
            raise _range_error(exc) from None
        if owner is not None:
            # measured: storing through vars(owner) made every later read
            # of a field about 2x slower; object.__setattr__ keeps them fast
            object.__setattr__(owner, field or name, number)
        return number
    if not name:
        return math.nan
    mixes = (isinstance(value, numbers.Number)
             and not isinstance(value, numbers.Complex))
    raise ParameterError(f"{name}: must be a number"
                         f"{' that mixes with floats' if mixes else ''},"
                         f" got {value!r}")


def _bound(name: str, value: float, least: float = 0, strict: bool = False,
           owner: object = None, field: str = "") -> float:
    """The one bound check: ``value`` as a float (_real, which stores it
    in ``owner``) where it is > ``least`` where ``strict``, else >=
    ``least``; else ParameterError."""
    # measured: one more _real call per spec made its build about 10%
    # slower, so a float skips the call, here and in _check_amplitude
    if type(value) is not float:
        value = _real(value, name, owner, field)
    if value > least if strict else value >= least:
        return value
    raise ParameterError(f"{name}: must be {'>' if strict else '>='} {least}")


def _check_real(name: str, value: object, owner: object = None) -> float:
    """``value`` as a float (_real, which stores it in ``owner``); a NaN
    is no number either."""
    value = _real(value, name, owner)
    if value != value:
        raise ParameterError(f"{name}: must be a number, got {value!r}")
    return value


def _check_finite(name: str, value: float, error: type = ParameterError,
                  owner: object = None) -> float:
    """The one finite check: ``value`` as a float (_real, which stores it
    in ``owner``), and ``error`` where it is not finite."""
    value = _real(value, name, owner)
    if -math.inf < value < math.inf:
        return value
    raise error(f"{name}: must be finite, got {value!r}")


def _check_integer(name: str, value: int, least: int) -> None:
    """The one integer check: an Integral, not a bool, and >= ``least``."""
    # int first: its exact type match skips the abstract class's slow check
    if type(value) is bool or not isinstance(value, (int, numbers.Integral)):
        raise ParameterError(f"{name}: must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name}: must be >= {least}")


#: the most points of a grid axis, a heatmap or a coarse design grid, and
#: of static-flagellum intervals: far more would exhaust memory
_MOST_POINTS = 2 ** 20


def _check_count(name: str, count: int, least: int = 1) -> int:
    """The one count check: an integer from ``least`` to _MOST_POINTS,
    returned as an int, so that an Integral such as numpy's int64 puts no
    numpy scalar into what is built from it."""
    _check_integer(name, count, least)
    if count > _MOST_POINTS:
        raise ParameterError(f"{name}: must be <= {_MOST_POINTS}")
    return int(count)


def _check_amplitude(A: float, lam: float, owner: object = None) -> float:
    """The one amplitude check, against a lambda that has passed its own:
    ``A`` as a float (_real, which stores it in ``owner``) where
    0 <= A < lambda/2, else ParameterError."""
    if type(A) is not float:
        A = _real(A, "A", owner)
    if 0 <= A < lam / 2:
        return A
    raise ParameterError("A: must satisfy 0 <= A < lambda/2")


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
        _bound("mu", self.mu, strict=True, owner=self)
        _bound("rho", self.rho, strict=True, owner=self)


@dataclass(frozen=True)
class BodyGeometry:
    """Effective spherical body."""

    a: float = 0.035     # effective spherical radius [m]
    mass: float = 0.256  # robot mass [kg]

    def __post_init__(self) -> None:
        _bound("a", self.a, owner=self)
        _bound("mass", self.mass, strict=True, owner=self)


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
        _bound("L", self.L, owner=self)
        lam = _bound("lambda", self.lam, strict=True, owner=self, field="lam")
        _bound("f", self.f, owner=self)
        _check_amplitude(self.A, lam, owner=self)
        _bound("d_membrane", self.d_membrane, strict=True, owner=self)
        _bound("d_hinge", self.d_hinge, strict=True, owner=self)
        _bound("w", self.w, strict=True, owner=self)
        _bound("h", self.h, owner=self)
        _bound("n", self.n, owner=self)

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


def _drag_ratio(K_N: float, K_L: float, owner: object = None) -> float:
    """The one drag check: gamma = K_L/K_N of two coefficients, each taken
    as a float (_real, which stores it in ``owner``), K_N first. One that
    is not > 0 raises ParameterError and one that is infinite
    NumericalError: the inputs it was computed from lie beyond
    double-precision range. So does a ratio that overflows."""
    # measured: calling the checks for every drag slowed a cross-check
    # job by about 10%, so two floats in range, the common case, skip them
    if not (type(K_N) is type(K_L) is float and 0.0 < K_N < math.inf
            and 0.0 < K_L < math.inf):
        checked = []
        for name, value in (("K_N", K_N), ("K_L", K_L)):
            value = _bound(name, value, strict=True, owner=owner)
            if value == math.inf:
                raise _non_finite(name, value)
            checked.append(value)
        K_N, K_L = checked
    gamma = K_L / K_N
    if gamma == math.inf:
        raise _range_error(OverflowError())
    return gamma


@dataclass(frozen=True)
class CompositeDrag:
    """Normal/tangential drag coefficients per unit length and their ratio.

    Each coefficient is stored as a float (core._real) and checked by
    core._drag_ratio, which also forms gamma: one that is not > 0 raises
    ParameterError, one that is infinite NumericalError, as do a ratio
    and a scaling that overflow.
    """

    K_N: float  # normal coefficient [Pa.s]
    K_L: float  # tangential coefficient [Pa.s]
    gamma: float = field(init=False)  # K_L / K_N

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma",
                           _drag_ratio(self.K_N, self.K_L, self))

    def scaled(self, factor: float) -> "CompositeDrag":
        """Both coefficients multiplied by ``factor`` (ratio unchanged)."""
        factor = _bound("factor", factor, strict=True)
        return CompositeDrag(self.K_N * factor, self.K_L * factor)


def slender_log(lam: float, d: float) -> float:
    """ln(4*lambda/d), the slender-body log term; -inf where the ratio
    underflows to 0, which lies past the pole like any ratio below it."""
    ratio = 4.0 * lam / d
    return math.log(ratio) if ratio > 0.0 else -math.inf


def _slender_pair(mu: float, lam: float, d: float) -> tuple[float, float]:
    """brennen_winet's (K_N, K_L) of three floats that have passed its
    bound checks, as floats, with its log checks; the pair is not yet
    checked (_drag_ratio)."""
    log_term = slender_log(lam, d)
    if log_term <= SLENDER_LOG_LIMIT:
        raise SlenderBodyError(
            f"slender-body validity violated: ln(4*lambda/d) ="
            f" {log_term:.4f} <= {SLENDER_LOG_LIMIT} for lambda={lam:g},"
            f" d={d:g}")
    if log_term == math.inf:
        raise _non_finite("ln(4*lambda/d)", log_term)
    return (4.0 * math.pi * mu / (log_term - SLENDER_LOG_LIMIT),
            2.0 * math.pi * mu / (log_term - 1.90))


def brennen_winet(mu: float, lam: float, d: float) -> CompositeDrag:
    """Slender-body drag coefficients of a waving filament (Brennen & Winet).

    K_N = 4*pi*mu / (ln(4*lambda/d) - 2.90)
    K_L = 2*pi*mu / (ln(4*lambda/d) - 1.90)

    Raises SlenderBodyError when ln(4*lambda/d) <= SLENDER_LOG_LIMIT, where
    the normal-coefficient denominator is no longer positive, NumericalError
    where 4*lambda/d overflows to inf or an input lies beyond
    double-precision range, and what CompositeDrag raises for the pair.
    Each input is taken as a float (core._real). The arithmetic is
    core._slender_pair's, which composite_coeffs shares.
    """
    mu = _bound("mu", mu, strict=True)
    lam = _bound("lambda", lam, strict=True)
    d = _bound("d", d, strict=True)
    return CompositeDrag(*_slender_pair(mu, lam, d))


def composite_coeffs(spec: FlagellumSpec, fluid: FluidMedium) -> CompositeDrag:
    """Effective drag coefficients of the membrane-plus-hinge assembly.

    K_N = w*(K_Nm + n*h*K_Lh) and K_L = w*(K_Lm + n*h*K_Nh): a hinge
    filament lies transverse to the flagellum axis, so its tangential
    coefficient resists normal motion of the assembly and vice versa.
    With an active hinge term the composite ratio gamma = K_L/K_N can
    exceed 1, and callers must not assume otherwise. The width w acts
    as a scaling factor on both coefficients and leaves gamma unchanged.

    The scaled drag is memoised per distinct (mu, lambda, d_membrane,
    d_hinge, w, h, n, scale), here at scale 1.0, in one bounded LRU of
    256 entries; errors are never kept. Every input is a float, as the
    spec and the fluid store it. A drag is computed in floats:
    brennen_winet's membrane pair and hinge pair (the membrane's where
    the diameters are equal), their sum, that times w, then times the
    scale, each checked as a CompositeDrag of it would be, in that order;
    only the drag returned is built.
    """
    return _composite_coeffs(fluid.mu, spec.lam, spec.d_membrane,
                             spec.d_hinge, spec.w, spec.h, spec.n, 1.0)


# the one drag memo: the scaled drag per distinct (mu, lambda, d_membrane,
# d_hinge, w, h, n, scale), errors never kept; bounded, so that configs
# that never repeat (a random cross-check) hold 256 entries at most
@functools.lru_cache(maxsize=256)
def _composite_coeffs(mu: float, lam: float, d_membrane: float,
                      d_hinge: float, w: float, h: float, n: float,
                      scale: float) -> CompositeDrag:
    # the inputs' objects have checked them; each step is checked as a
    # CompositeDrag of it would be, and only the last is built
    K_N, K_L = _slender_pair(mu, lam, d_membrane)
    _drag_ratio(K_N, K_L)
    nh = n * h
    if nh > 0:
        if d_hinge == d_membrane:  # equal inputs: the pair just checked
            K_Nh, K_Lh = K_N, K_L
        else:
            K_Nh, K_Lh = _slender_pair(mu, lam, d_hinge)
            _drag_ratio(K_Nh, K_Lh)
        K_N, K_L = K_N + nh * K_Lh, K_L + nh * K_Nh
    K_N, K_L = w * K_N, w * K_L
    _drag_ratio(K_N, K_L)
    return CompositeDrag(K_N * scale, K_L * scale)
