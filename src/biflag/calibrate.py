"""Calibration against measured speeds and derivative-free design search.

The single calibration knob is ``thrust_scale``, a multiplier on both
drag coefficients of both flagella. Model speed is monotone and bounded
in it, yet the relative least-squares residual over several points need
not be unimodal, so the golden-section search over log(scale) can return
a local minimum.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .closed_form import (
    _NEG_PI_SQ,
    _TWO_PI_SQ,
    RobotConfig,
    SolveResult,
    _body,
    _check_config,
    _check_identical,
    _point,
    _shape,
    _speed,
    _stage,
    _wave,
    solve_velocity,
)
from .config_io import _read_text, _write_csv
from .core import (
    _MOST_POINTS,
    CompositeDrag,
    FlagellumSpec,
    _bound,
    _check_amplitude,
    _check_finite,
    _check_integer,
    _composite_coeffs,
    _drag_ratio,
    _in_double_range,
    _non_finite,
    _pair,
    _real,
    composite_coeffs,
)
from .errors import BiflagError, DomainError, ParameterError
from .presets import _amplitude, _knots, with_params
from .sweep import _bounded, linear_grid

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: fitted scale is searched on this interval
SCALE_BOUNDS = (1e-3, 1e3)

DATASET_CSV_COLUMNS = ("L_m", "f1_hz", "f2_hz", "speed_m_s",
                       "speed_sd_m_s", "source")

DESIGN_PARAMS = ("f1", "f2", "L", "A", "lambda")


@dataclass(frozen=True)
class ExperimentalPoint:
    """One measured operating point of the robot."""

    L: float         # flagellum length [m]
    f1: float        # anterior beat frequency [Hz]
    f2: float        # posterior beat frequency [Hz]
    speed: float     # measured speed [m/s]
    speed_sd: float  # standard deviation of the speed [m/s]
    source: str      # label of the measurement series

    def __post_init__(self) -> None:
        for name in ("L", "f1", "f2", "speed", "speed_sd"):
            _check_finite(name, getattr(self, name), owner=self)
        _bound("speed", self.speed)
        _bound("speed_sd", self.speed_sd)
        # a dataset CSV file holds the label as UTF-8 text
        if isinstance(self.source, str):
            try:
                self.source.encode()
                return
            except UnicodeEncodeError:
                pass
        raise ParameterError(f"source: must be a str that encodes as UTF-8,"
                             f" got {self.source!r}")


@dataclass(frozen=True)
class CalibrationResult:
    thrust_scale: float           # fitted multiplier
    residuals: tuple[float, ...]  # signed relative errors, one per point
    max_rel_error: float          # max |residual|


@dataclass(frozen=True)
class DesignBounds:
    """Closed search intervals per design parameter.

    ``constraint_sum`` fixes f1 + f2 to a constant; the posterior
    frequency is then slaved to the anterior one and must stay
    non-negative over the searched interval. Every end is stored as a
    float, in a dict of (lo, hi) pairs, which takes no part in the hash.
    """

    intervals: Mapping[str, tuple[float, float]] = field(hash=False)
    constraint_sum: float | None = None

    def __post_init__(self) -> None:
        # None and an empty sequence are as empty as an empty mapping; the
        # truth of anything else, such as an array, is not asked
        if self.intervals is None or isinstance(
                self.intervals, (Mapping, Sequence)) and not self.intervals:
            raise ParameterError("intervals: must not be empty")
        if not isinstance(self.intervals, Mapping):
            raise ParameterError(
                f"intervals: must be a mapping, got {self.intervals!r}")
        intervals = {}
        for name, interval in self.intervals.items():
            if name not in DESIGN_PARAMS:
                raise ParameterError(
                    f"intervals: unknown design parameter {name!r}")
            lo, hi = map(_real, _pair(interval))
            if not -math.inf < lo <= hi < math.inf:
                raise ParameterError(
                    f"intervals: {name}: interval must be finite and ordered")
            intervals[name] = (lo, hi)
        object.__setattr__(self, "intervals", intervals)
        if self.constraint_sum is not None:
            _check_finite("constraint_sum", self.constraint_sum, owner=self)
            if "f1" not in intervals:
                raise ParameterError(
                    "constraint_sum: requires an f1 interval to search along")


def builtin_dataset() -> list[ExperimentalPoint]:
    """Measured speeds of the glycerine-tank robot.

    Three symmetric-frequency points for the 12 cm flagella, two length
    variants at 4.41 Hz, the two single-flagellum runs, and the
    dual-actuation point from the power-consumption study. The last one
    deliberately duplicates the 4.41 Hz operating condition of the
    frequency sweep at a different measured speed; both are retained
    under distinct source labels. The frequency-sweep top point is
    labelled 5.28 Hz in the measurement series even though one summary
    lists 5.18 Hz; the label records the discrepancy.
    """
    return [
        ExperimentalPoint(0.12, 2.05, 2.05, 0.0118, 0.0005,
                          "frequency-sweep@2.05Hz"),
        ExperimentalPoint(0.12, 4.41, 4.41, 0.0332, 0.0004,
                          "frequency-sweep@4.41Hz"),
        ExperimentalPoint(0.12, 5.28, 5.28, 0.0341, 0.0003,
                          "frequency-sweep@5.28Hz(also-listed-5.18Hz)"),
        ExperimentalPoint(0.10, 4.41, 4.41, 0.0235, 0.0005,
                          "length-study@L=0.10m"),
        ExperimentalPoint(0.065, 4.41, 4.41, 0.0094, 0.0003,
                          "length-study@L=0.065m"),
        ExperimentalPoint(0.12, 4.41, 0.0, 0.0164, 0.0002,
                          "single-flagellum@anterior-4.41Hz"),
        ExperimentalPoint(0.12, 0.0, 4.41, 0.0044, 0.0002,
                          "single-flagellum@posterior-4.41Hz"),
        ExperimentalPoint(0.12, 4.41, 4.41, 0.0309, 0.0006,
                          "dual-power-study@4.41Hz"),
    ]


def symmetric_points(points: Iterable[ExperimentalPoint]) -> list[ExperimentalPoint]:
    """Points with both flagella at the same frequency.

    Single-flagellum runs are excluded from fitting by default: the
    model treats pulling and pushing identically, so it cannot
    distinguish them. They remain available for reporting.
    """
    return [p for p in points if p.f1 == p.f2]


def point_config(base: RobotConfig, point: ExperimentalPoint,
                 coupling: Mapping[float, float] | None = None) -> RobotConfig:
    """Base configuration adjusted to one experimental operating point."""
    if not isinstance(point, ExperimentalPoint):
        raise ParameterError(
            f"point: must be an ExperimentalPoint, got {point!r}")
    knots = None if coupling is None else _knots(coupling, "coupling")
    _check_config(base)
    amplitude = (base.anterior.A if knots is None
                 else _amplitude(knots, point.L))
    return with_params(base, {"L": point.L, "A": amplitude,
                              "f1": point.f1, "f2": point.f2})


def model_speed(base: RobotConfig, point: ExperimentalPoint,
                coupling: Mapping[float, float] | None = None) -> float:
    return solve_velocity(point_config(base, point, coupling))


def _golden_min(fn: Callable[[float], float], lo: float, hi: float,
                tol: float) -> float:
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi)


def fit_thrust_scale(points: Sequence[ExperimentalPoint], base: RobotConfig,
                     coupling: Mapping[float, float] | None = None,
                     rel_tol: float = 1e-6) -> CalibrationResult:
    """Fit thrust_scale by relative least squares on measured speeds.

    Minimizes sum(((U_model - U_exp)/U_exp)^2) by golden-section search
    in log(scale) over [1e-3, 1e3] to relative tolerance ``rel_tol``,
    which must be finite and > 0; below a few ulps of the search bracket
    it acts as that floor. The fitted scale replaces whatever
    thrust_scale ``base`` carries. Raises DomainError when the model
    speed is 0 at every point at the fitted scale, where the scale has
    no effect on the fit.

    No spec or config is built: each point's L, f1, f2 and amplitude are
    checked as point_config checks them, in order and words, and its L,
    each flagellum's beta and v_w1 + v_w2 kept as numbers.

    Every step scales base's drag pair in floats, as
    CompositeDrag.scaled does and with its checks, and checks its K_N and
    gamma; the pair is looked up once, on the first step, and where the
    posterior's is the anterior's memo entry its numbers are the
    anterior's, so it is neither scaled nor checked. The first step then
    checks each point's beta and keeps the numbers of its anterior's
    _shape that no drag changes. Every step, the first included, runs
    one path: it forms each point's speed inline from those numbers and
    the step's own K_N and gamma, in the order of operations of the
    anterior's _shape, _stage and _speed and with _speed's zero
    denominator and error, then one list of squared relative residuals
    against the measured speeds, kept once, which it sums in point
    order. So no outcome differs from solving each point afresh.
    """
    if not 0.0 < _real(rel_tol) < math.inf:
        raise ParameterError("rel_tol: must be finite and > 0")
    points = _experimental_points(points)
    if not points:
        raise DomainError("fit requires at least one experimental point")
    for p in points:
        if p.speed <= 0:
            raise DomainError(
                f"point {p.source!r}: relative residual needs speed > 0")
    # checked and sorted once per fit
    knots = None if coupling is None else _knots(coupling, "coupling")
    _check_config(base)
    anterior, posterior = base.flagella
    lam1, lam2 = anterior.lam, posterior.lam
    # each point's L, each flagellum's beta and v_w1 + v_w2, after the
    # checks of what a point sets (base has passed the others)
    geometry = []
    for p in points:
        A = anterior.A if knots is None else _amplitude(knots, p.L)
        _bound("L", p.L)
        _bound("f", p.f1)
        _check_amplitude(A, lam1)
        _bound("f", p.f2)
        if lam2 != lam1:
            _check_amplitude(A, lam2)
        geometry.append((p.L, A / lam1, A / lam2, lam1 * p.f1 + lam2 * p.f2))
    measured = [p.speed for p in points]
    # a point changes only L, A and the frequencies, none of which enters
    # the drag, so every point shares base's drag pair, kept from the
    # first step on
    fluid, mu, a = base.fluid, base.fluid.mu, base.body.a
    drags = []
    # from the first step on, each point's anterior L, -pi^2*beta^2, q and
    # 3*pi*mu*a*(1+q) of its _shape, and v_w1 + v_w2
    kept = []

    @_in_double_range
    def speeds_at(scale: float) -> list[float]:
        """solve_velocity at every point with thrust_scale ``scale``."""
        # each drag's K_N, K_L and gamma as .scaled(scale) forms them
        if not drags:
            drags.append(composite_coeffs(anterior, fluid))
        d1, factor = drags[0], _bound("factor", scale, strict=True)
        K_N = d1.K_N * factor
        gamma = _drag_ratio(K_N, d1.K_L * factor)
        if len(drags) == 1:
            drags.append(composite_coeffs(posterior, fluid))
        d2 = drags[1]
        if d2 is not d1:
            K_N2 = d2.K_N * factor
            _check_identical(("K_N", K_N, K_N2), (
                "gamma", gamma, _drag_ratio(K_N2, d2.K_L * factor)))
        if not kept:
            for L, beta1, beta2, v_sum in geometry:
                _check_identical(("beta", beta1, beta2))
                # no number kept from the shape depends on its drag
                _, _, b2, q, _, _, _, body = _shape(d1, beta1, mu, a)
                kept.append((L, _NEG_PI_SQ * b2, q, body, v_sum))
        g = gamma - 1.0
        speeds = []
        for L1, neg_pi2b2, q, body, v_sum in kept:
            den = K_N * L1 * (gamma + q) + body
            U = neg_pi2b2 * K_N * L1 * g * v_sum / den + 0.0 if den else 0.0
            if not -math.inf < U < math.inf:
                raise _non_finite("U_X", U)
            speeds.append(U)
        return speeds

    def objective(log_scale: float) -> float:
        return sum([(r := (u - m) / m) * r for u, m in
                    zip(speeds_at(math.exp(log_scale)), measured)])

    lo, hi = math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1])
    # a bracket narrower than a few ulps of its ends can shrink no further
    log_tol = max(math.log1p(rel_tol), 4.0 * math.ulp(max(-lo, hi)))
    log_best = _golden_min(objective, lo, hi, log_tol)
    scale = math.exp(log_best)
    speeds = speeds_at(scale)
    if not any(speeds):
        raise DomainError("model speed is 0 at every point at the fitted"
                          f" thrust_scale {scale!r}: the fit is undetermined")
    residuals = [(u - m) / m for u, m in zip(speeds, measured)]
    return CalibrationResult(thrust_scale=scale,
                             residuals=tuple(residuals),
                             max_rel_error=max(abs(r) for r in residuals))


@dataclass(frozen=True)
class OptimizeResult:
    params: dict[str, float]  # best point found, one entry per free axis
    value: float              # objective value there
    objective: str


def _envelope(shaped: list, lengths: Sequence[float]) -> tuple:
    """The envelope of a design-search pass, in place of one config's
    _kernel and wavelengths for sweep._bounded, from each (A, lambda)
    pair's (shape1, shape2, lam1, lam2, _) and the pass's lengths: ((the
    largest |lead|*L_max*|gamma-1|, the least speed denominator), each
    flagellum's largest (K_N*L_max, |gamma-1|, 1+q)), and each one's
    largest lambda. Every L and frequency is >= 0, a denominator
    K_N*L*(gamma+q) + 3*pi*mu*a*(1+q) cannot fall as L grows, rounding is
    monotone and beta^2 <= q < 1+q, so where _bounded holds for the
    envelope, it holds for each design of the pass."""
    L_min, L_max = min(lengths), max(lengths)
    if len(shaped) == 1:  # most passes: one pair, its own envelope
        [(shape1, shape2, lam1, lam2, _)] = shaped
        K_N1, g1, _, _, den1, lead, gq, body1 = shape1
        K_N2, g2, _, _, den2, _, _, _ = shape2
        lead, g1, g2 = abs(lead), abs(g1), abs(g2)
        den = K_N1 * L_min * gq + body1
    else:
        shapes1, shapes2, lams1, lams2, _ = zip(*shaped)
        K_N1s, g1s, _, _, den1s, leads, gqs, body1s = zip(*shapes1)
        K_N1, g1, den1 = max(K_N1s), max(map(abs, g1s)), max(den1s)
        if shapes2 == shapes1:  # alike flagella share each shape
            K_N2, g2, den2 = K_N1, g1, den1
        else:
            K_N2s, g2s, _, _, den2s, _, _, _ = zip(*shapes2)
            K_N2, g2, den2 = max(K_N2s), max(map(abs, g2s)), max(den2s)
        lead, lam1, lam2 = max(map(abs, leads)), max(lams1), max(lams2)
        den = min([K * L_min * c + b for K, c, b in zip(K_N1s, gqs, body1s)])
    return (((lead * L_max * g1, den), (K_N1 * L_max, g1, den1),
             (K_N2 * L_max, g2, den2)), lam1, lam2)


def _objective_fn(cfg: RobotConfig, objective: str,
                  constraint_sum: float | None, axes: Sequence[str]
                  ) -> Callable[[Sequence[list[float]]],
                                tuple[dict[str, float], float]]:
    """The search over ``axes``: given one grid per axis, the design of
    their product with the largest abs(solve_velocity(...)) or
    full_solve(...).eta after with_params, the first in itertools.product
    order among equal ones, and that value.

    No spec or config is built. Each grid value of L, lambda and f1, each
    f2 of a free f2 axis or of ``constraint_sum``, and each (A, lambda)
    pair's amplitude where A or lambda is free, is checked once, in
    FlagellumSpec's order, the anterior's first: the posterior's L and
    lambda are the anterior's, and its amplitude is checked only where
    its A or lambda is not the anterior's. The base values that no grid
    changes have passed the checks of ``cfg``. Then _check_identical runs
    once per lambda (K_N, gamma), (A, lambda) pair (beta) and L. Each
    flagellum's _shape is formed once per (A, lambda) pair, and from those
    the _stage of each L, which evaluates every frequency pair. Only
    lambda enters the drag, looked up in core's drag memo and checked
    once per wavelength of the search; the wave speeds, and their
    factors of _wave that no A changes, are formed once per wavelength
    of each pass. Where the posterior's drag is the anterior's memo
    entry, its K_N and gamma are not compared, and where its A and
    lambda are the anterior's, its beta is not checked: each would
    compare equal numbers. Where both hold, the two share one _shape.
    The efficiency objective forms _body(cfg) once, when the search is
    built: it is float products only and cannot raise.

    Each design is evaluated inline, in the order of operations of
    _speed, or of _speed, _wave, _point and _fields but CoT, so each value
    is the one those give. Where the speed search's inline U is not
    finite, it raises _speed's error. The efficiency search bounds each
    pass once, through sweep._bounded on the envelope of the pass's
    shapes: the largest |lead| and |gamma-1|, 1+q and K_N*L_max of each
    flagellum, lambda*f_max of each, and the least speed denominator,
    which no design of the pass exceeds (or, the denominator, undercuts)
    since rounding is monotone. Where the pass is bounded, the
    finiteness sum of _fields is finite wherever eta is, so only U, the
    powers, P0 and eta are formed; elsewhere that sum is formed too, with
    the thrusts, body drag, residual and Re. Where eta or that sum is not
    finite, where m*g*|U| underflows, or where the arithmetic raises an
    ArithmeticError, those functions evaluate the design again: they
    raise its error, or, where only the sum overflows, give its value,
    and the pass goes on.

    Where a check or an evaluation fails, the first design in
    itertools.product order that fails as a one-design grid raises its
    error, naming it. A pass raises exactly where one of its designs
    raises alone, so the search runs each value of the outermost axis as
    a pass with every inner value, and descends the same way, axis by
    axis, only into a pass that raises: about the sum of the axis sizes
    in passes, not their product. A one-design grid checks and evaluates
    in the order of with_params and full_solve, so it raises their error.
    """
    inf = math.inf
    if objective == "speed":
        def waves_of(lam1: float, lam2: float, frequencies: list) -> list:
            """Each (offset, f1, f2) of ``frequencies`` with its v_w1 +
            v_w2 at wavelengths lam1 and lam2."""
            return [(offset, f1, f2, lam1 * f1 + lam2 * f2)
                    for offset, f1, f2 in frequencies]

        def scan(shaped: list, rows: list, lengths: Sequence, f1s: list,
                 f2s: list) -> tuple:
            """(best, (f1, f2, L, s) or None) over every design of the
            pass, from each (A, lambda) pair s's (shape1, shape2, lam1,
            lam2, waves); a speed needs no bound, so the lengths and
            frequencies of the efficiency scan's are not read."""
            best, best_k, found = -inf, inf, None
            for s, (shape1, shape2, _, _, waves) in enumerate(shaped):
                for row, L, L1, L2 in rows:
                    stage, g = _stage(shape1, shape2, L1, L2), row + s
                    num, den = stage[0]
                    for offset, f1, f2, v_sum in waves:
                        # _speed's U, whose + 0.0 abs makes moot
                        v = abs(num * v_sum / den) if den else 0.0
                        if not v < inf:  # _speed's error, naming the signed U
                            raise _non_finite("U_X", num * v_sum / den + 0.0)
                        if v >= best and (v > best or offset + g < best_k):
                            best, best_k, found = v, offset + g, (f1, f2, L,
                                                                  s)
            return best, found
    elif objective == "efficiency":
        body, eta_field = _body(cfg), SolveResult._fields.index("eta")
        stokes, weight, rho, diameter, _, _ = body
        minus_stokes, bodied = -stokes, cfg.body.a > 0

        def waves_of(lam1: float, lam2: float, frequencies: list) -> list:
            """Each (offset, f1, f2) of ``frequencies`` with what no A
            changes of each _wave at wavelengths lam1 and lam2: v_w1, v_w2,
            v_w1 + v_w2, 2*pi^2*v_w1, 2*pi^2*v_w2, v_w1^2 and v_w2^2. A
            square is inf from v_w = 1e154 on, so that none overflows here:
            a pass with such a wave speed is not bounded, so the field sum
            of its design is not finite, and the design is evaluated
            again."""
            return [(offset, f1, f2, (v_w1 := lam1 * f1), (v_w2 := lam2 * f2),
                     v_w1 + v_w2, _TWO_PI_SQ * v_w1, _TWO_PI_SQ * v_w2,
                     v_w1 ** 2 if v_w1 < 1e154 else inf,
                     v_w2 ** 2 if v_w2 < 1e154 else inf)
                    for offset, f1, f2 in frequencies]

        def value(stage: tuple, v_w1: float, v_w2: float) -> float:
            U = _speed(stage[0], v_w1 + v_w2)
            return _point(body, U, _wave(stage[1], v_w1),
                          _wave(stage[2], v_w2))[eta_field]

        def scan(shaped: list, rows: list, lengths: Sequence, f1s: list,
                 f2s: list) -> tuple:
            """(best, (f1, f2, L, s) or None) over every design of the
            pass, from each (A, lambda) pair s's (shape1, shape2, lam1,
            lam2, waves), after one bound of the pass's envelope."""
            kernel, lam1, lam2 = _envelope(shaped, lengths)
            bounded = _bounded(kernel, body, lam1, f1s, lam2, f2s)
            best, best_k, found = -inf, inf, None
            for s, (shape1, shape2, _, _, waves) in enumerate(shaped):
                _, g1, b21, q1, den1, _, _, _ = shape1
                _, g2, b22, q2, den2, _, _, _ = shape2
                minus_q1, minus_q2 = -q1, -q2
                for row, L, L1, L2 in rows:
                    stage, g = _stage(shape1, shape2, L1, L2), row + s
                    (num, den), (knl1, _, _, _, _), (knl2, _, _, _, _) = stage
                    for (offset, f1, f2, v_w1, v_w2, v_sum, c1, c2, w1,
                         w2) in waves:
                        try:
                            # _speed, each _wave, _point and _fields in
                            # their order of operations, but CoT
                            U = num * v_sum / den + 0.0 if den else 0.0
                            U2 = U ** 2
                            P1 = knl1 * (g1 * (c1 * b21 - U) ** 2 / den1 + U2
                                         + q1 * w1)
                            P2 = knl2 * (g2 * (c2 * b22 + U) ** 2 / den2 + U2
                                         + q2 * w2)
                            P0 = stokes * U2
                            # P0 / 0.0 raises where _fields raises
                            # InconsistencyError
                            eta = 0.0 if P0 == 0.0 else P0 / (P1 + P2)
                            if bounded:  # the sum is finite where eta is
                                fine = -inf < eta < inf
                            else:
                                speed = abs(U)
                                # F1 + F2 + F_body, which _fields sums
                                # twice, as the residual is their sum;
                                # their + 0.0 moves no sum's finiteness
                                F = (knl1 * ((minus_q1 * v_w1 * g1 - g1 * U)
                                             / den1 - U)
                                     + knl2 * ((minus_q2 * v_w2 * g2 - g2 * U)
                                               / den2 - U)
                                     + minus_stokes * U)
                                # _fields' finiteness sum, whose F_body is
                                # finite only where U is and eta only where
                                # P0 is
                                fine = -inf < F + F + P1 + P2 + eta + (
                                    rho * speed * diameter / mu if bodied
                                    else 0.0) < inf
                            # CoT divides by m*g*|U|, which underflows to
                            # 0 where m*g*U does
                            fine = fine and (weight * U or not U)
                        except ArithmeticError:
                            fine = False
                        # _fields' own evaluation, which raises or, where
                        # only the sum overflows, gives the same eta
                        v = eta if fine else value(stage, v_w1, v_w2)
                        if v >= best and (v > best or offset + g < best_k):
                            best, best_k, found = v, offset + g, (f1, f2, L,
                                                                  s)
            return best, found
    else:
        raise ParameterError("objective: must be 'speed' or 'efficiency'")
    anterior, posterior = cfg.flagella
    mu, a, scale = cfg.fluid.mu, cfg.body.a, cfg.thrust_scale
    # (grid value or None, anterior's, posterior's) of each geometry axis
    # that is not free
    fixed_L = [(None, anterior.L, posterior.L)]
    fixed_A = [(None, anterior.A, posterior.A)]
    fixed_lam = [(None, anterior.lam, posterior.lam)]
    f2_free = constraint_sum is not None or "f2" in axes
    shape_free = "A" in axes or "lambda" in axes
    # whether each pair's posterior A and lambda are the anterior's, where
    # its amplitude and beta would be checked as equal numbers; if not,
    # no pair's are
    alike = (("A" in axes or posterior.A == anterior.A)
             and ("lambda" in axes or posterior.lam == anterior.lam))

    def drag(spec: FlagellumSpec, lam: float) -> CompositeDrag:
        """RobotConfig.effective_drag of ``spec`` at wavelength ``lam``."""
        return _composite_coeffs(mu, lam, spec.d_membrane, spec.d_hinge,
                                 spec.w, spec.h, spec.n, scale)

    checked = {}  # each wavelength pair's drags, once they have passed

    @_in_double_range
    def grid_pass(grids: Sequence[list[float]]) -> tuple[dict, float]:
        grid = dict(zip(axes, grids))
        # a free axis's value is both flagella's
        Ls = [(v, v, v) for v in grid["L"]] if "L" in grid else fixed_L
        As = [(v, v, v) for v in grid["A"]] if "A" in grid else fixed_A
        lams = ([(v, v, v) for v in grid["lambda"]] if "lambda" in grid
                else fixed_lam)
        f1s = grid.get("f1", [anterior.f])
        f2s = ([constraint_sum - f1 for f1 in f1s] if constraint_sum is not None
               else grid.get("f2", [posterior.f]))
        A_lams = list(itertools.product(As, lams))
        for L in grid.get("L", ()):
            _bound("L", L)
        for lam in grid.get("lambda", ()):
            _bound("lambda", lam, strict=True)
        for f in grid.get("f1", ()):
            _bound("f", f)
        for (_, A1, _), (_, lam1, _) in A_lams if shape_free else ():
            _check_amplitude(A1, lam1)
        for f in f2s if f2_free else ():
            _bound("f", f)
        for (_, _, A2), (_, _, lam2) in (
                A_lams if shape_free and not alike else ()):
            _check_amplitude(A2, lam2)
        # the frequencies come first in DESIGN_PARAMS, so outermost in the
        # product: pair j, L i and (A, lambda) s are design j * n + i *
        # len(A_lams) + s; of equal values (all finite) the first wins
        n = len(Ls) * len(A_lams)
        frequencies = [(j * n, f1, f2) for j, (f1, f2) in enumerate(
            zip(f1s, f2s) if constraint_sum is not None
            else itertools.product(f1s, f2s))]
        # each wavelength's drag pair, looked up and checked once per
        # search, and its waves_of the frequency pairs
        drags = {}
        for _, lam1, lam2 in lams:
            if (lam1, lam2) not in checked:
                d1, d2 = drag(anterior, lam1), drag(posterior, lam2)
                if d2 is not d1:  # one memo entry has one K_N and gamma
                    _check_identical(("K_N", d1.K_N, d2.K_N),
                                     ("gamma", d1.gamma, d2.gamma))
                checked[lam1, lam2] = d1, d2
            drags[lam1, lam2] = (*checked[lam1, lam2],
                                 waves_of(lam1, lam2, frequencies))
        for (_, A1, A2), (_, lam1, lam2) in A_lams if not alike else ():
            _check_identical(("beta", A1 / lam1, A2 / lam2))
        for _, L1, L2 in Ls:
            _check_identical(("L", L1, L2))
        shaped = []
        for (_, A1, A2), (_, lam1, lam2) in A_lams:
            d1, d2, waves = drags[lam1, lam2]
            shape1 = _shape(d1, A1 / lam1, mu, a)
            # the same drag (so lambda) and A give the same shape
            shaped.append((shape1, shape1 if d2 is d1 and A2 == A1
                           else _shape(d2, A2 / lam2, mu, a), lam1, lam2,
                           waves))
        rows = [(i * len(A_lams), *L) for i, L in enumerate(Ls)]
        best, (f1, f2, L, s) = scan(
            shaped, rows,
            grid["L"] if "L" in grid else (anterior.L, posterior.L), f1s, f2s)
        design = dict(zip(DESIGN_PARAMS, (f1, f2, L, A_lams[s][0][0],
                                          A_lams[s][1][0])))
        return {name: design[name] for name in axes}, best

    def search(grids: Sequence[list[float]]) -> tuple[dict, float]:
        try:
            return grid_pass(grids)
        except BiflagError:
            _descend(grid_pass, axes, list(grids), 0)
            raise
    return search


def _descend(grid_pass: Callable, axes: Sequence[str],
             grids: list[list[float]], k: int) -> None:
    """Raise the error of the first design of ``grids`` in
    itertools.product order that fails as a one-design grid_pass, naming
    it, where the grids before axis k hold one value each: pass each
    value of axis k with every later value, and descend into each pass
    that raises. A module function, so that a search holds no cycle."""
    for v in grids[k]:
        part = [*grids[:k], [v], *grids[k + 1:]]
        try:
            grid_pass(part)
        except BiflagError as exc:
            if k + 1 < len(grids):
                _descend(grid_pass, axes, part, k + 1)
                continue
            design = {name: values[0] for name, values in zip(axes, part)}
            raise type(exc)(f"objective undefined at {design!r}: {exc}"
                            ) from exc


def optimize_design(cfg: RobotConfig, bounds: DesignBounds, objective: str,
                    coarse: int = 33) -> OptimizeResult:
    """Maximize speed or efficiency over the bounded design parameters.

    Strategy: exhaustive coarse grid (``coarse`` points per free axis,
    an integer >= 1 of which at least 17 are taken, and 17 on three or
    more axes), then coordinate-wise pattern refinement with halving
    steps until every step is below 1e-4 of its axis span. The result is
    never worse than the best coarse-grid point. On one or two free axes
    the grid may hold at most core._MOST_POINTS (2**20) points, an axis
    whose interval is a single value giving one.

    The coarse grid and every refinement step run through one search
    (_objective_fn). A refinement step's grid holds the moved axis's
    clamped candidates x - step and x + step, less any equal to x, and
    every other axis's current value; a candidate is taken only where its
    value is greater. Where a check fails or an evaluation raises, the
    first failing design in grid order raises its error, naming it. Ties
    go to the first design in grid order.
    """
    _check_config(cfg)
    try:  # floor(), unlike int(), parses no string
        math.floor(coarse)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(
            f"coarse: must be a finite number, got {coarse!r}") from None
    _check_integer("coarse", coarse, 1)
    coarse = max(17, int(coarse))
    if not isinstance(bounds, DesignBounds):
        raise ParameterError(f"bounds: must be a DesignBounds, got {bounds!r}")
    axes = [p for p in DESIGN_PARAMS if p in bounds.intervals]
    if bounds.constraint_sum is not None and "f2" in axes:
        axes.remove("f2")  # slaved to f1 through the constraint
    intervals = {}
    for name in axes:
        lo, hi = bounds.intervals[name]
        if bounds.constraint_sum is not None and name == "f1" and \
                "f2" in bounds.intervals:
            f2_lo, f2_hi = bounds.intervals["f2"]
            lo = max(lo, bounds.constraint_sum - f2_hi)
            hi = min(hi, bounds.constraint_sum - f2_lo)
            if lo > hi:
                raise ParameterError(
                    "constraint_sum: empty feasible f1 interval")
        intervals[name] = (lo, hi)
    search = _objective_fn(cfg, objective, bounds.constraint_sum, axes)

    if len(axes) >= 3:  # keep the cartesian coarse stage tractable
        coarse = 17
    else:  # far more would run for hours; a point interval is one value
        free = sum(hi > lo for lo, hi in intervals.values())
        if coarse ** free > _MOST_POINTS:
            raise ParameterError(
                f"coarse: must be <= {round(_MOST_POINTS ** (1 / free))}")
    current, best = search([linear_grid(lo, hi, coarse if hi > lo else 1)
                            for lo, hi in intervals.values()])

    spans = {name: intervals[name][1] - intervals[name][0] for name in axes}
    steps = {name: (spans[name] / (coarse - 1) if spans[name] > 0 else 0.0)
             for name in axes}
    while any(steps[name] > 1e-4 * spans[name] for name in axes
              if spans[name] > 0):
        moved = False
        for name in axes:
            lo, hi = intervals[name]
            x = current[name]
            candidates = [c for c in (min(max(x - steps[name], lo), hi),
                                      min(max(x + steps[name], lo), hi))
                          if c != x]
            if not candidates:
                continue
            trial, v = search([candidates if axis == name else [current[axis]]
                               for axis in axes])
            if v > best:
                current, best, moved = trial, v, True
        if not moved:
            steps = {name: step / 2.0 for name, step in steps.items()}
    return OptimizeResult(params=current, value=best, objective=objective)


def _experimental_points(points) -> list[ExperimentalPoint]:
    """``points``, an iterable of ExperimentalPoints, as a list."""
    if not isinstance(points, Iterable):
        raise ParameterError(f"points: must be an iterable, got {points!r}")
    points = list(points)
    for p in points:
        if not isinstance(p, ExperimentalPoint):
            raise ParameterError(
                f"points: must hold ExperimentalPoints, got {p!r}")
    return points


def save_dataset_csv(points: Iterable[ExperimentalPoint], path) -> None:
    """Write ``points`` to ``path``, each checked before the file opens."""
    _write_csv(path, DATASET_CSV_COLUMNS,
               [(p.L, p.f1, p.f2, p.speed, p.speed_sd, p.source)
                for p in _experimental_points(points)])


def load_dataset_csv(path) -> list[ExperimentalPoint]:
    """Points of a dataset CSV file written by save_dataset_csv. Raises
    DomainError naming the line and column of a numeric field that is not
    a finite number, and one naming the file where it cannot be read or is
    not UTF-8, or where its header is wrong or, with the line, a row has
    the wrong field count or a field past the csv module's field limit."""
    reader = csv.reader(io.StringIO(
        _read_text(path, "dataset CSV file", DomainError), newline=""))
    try:
        if tuple(next(reader, ())) != DATASET_CSV_COLUMNS:
            raise DomainError(f"dataset CSV file {path!r}: must start with"
                              f" header {','.join(DATASET_CSV_COLUMNS)}")
        points = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(DATASET_CSV_COLUMNS):
                raise DomainError(
                    f"dataset CSV file {path!r}, line {reader.line_num}:"
                    f" row has {len(row)} fields: {row!r}")
            numbers = [_finite_field(reader.line_num, column, text)
                       for column, text in zip(DATASET_CSV_COLUMNS, row[:5])]
            points.append(ExperimentalPoint(*numbers, source=row[5]))
    except csv.Error as exc:
        raise DomainError(f"dataset CSV file {path!r}, line"
                          f" {reader.line_num}: {exc}") from exc
    return points


def _finite_field(line: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"dataset CSV line {line}, column {column}: must be"
                          f" a finite number, got {text!r}")
    return value
