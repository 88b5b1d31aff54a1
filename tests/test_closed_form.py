import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from biflag.calibrate import DesignBounds, optimize_design
from biflag.closed_form import (
    SolveResult,
    _body,
    _fields,
    _point,
    _shape,
    _stage,
    _wave,
    full_solve,
    solve_velocity,
)
from biflag.core import (
    ANTERIOR,
    BodyGeometry,
    CompositeDrag,
    FlagellumSpec,
    FluidMedium,
    composite_coeffs,
)
from biflag.errors import (
    AsymmetryError,
    InconsistencyError,
    NumericalError,
    ParameterError,
    SlenderBodyError,
)
from biflag.oracle import OracleSettings, oracle_full_solve
from biflag.presets import default_config, smooth_config, with_params
from biflag.sweep import SweepSpec, heatmap, sweep

from conftest import SPEED_OFFSETS, random_config, reference_configs
from quadrature import solve_velocity_unreduced

#: the default flagellum: L = 0.12, beta = 0.075, v_w = 0.441
FLAGELLUM = FlagellumSpec(role=ANTERIOR)
#: the default swimmer with no body, so that it has no body drag or P0
NO_BODY = replace(default_config(), body=BodyGeometry(a=0.0, mass=0.256))


def flagellum_of(drag, spec):
    """_stage's tuple of flagellum ``spec`` with the drag pair ``drag``;
    mu and a enter only the speed terms."""
    shape = _shape(drag, spec.beta, 0.0, 0.0)
    return _stage(shape, shape, spec.L, spec.L)[1]


def wave_of(cfg, spec):
    """_wave of ``spec`` of ``cfg`` at its own wave speed."""
    return _wave(flagellum_of(cfg.effective_drag(spec), spec), spec.v_w)


def point(cfg, U, wave1, wave2):
    """SolveResult of _point at speed U on the body of ``cfg``."""
    return SolveResult._make(_point(_body(cfg), U, wave1, wave2))


def thrust(drag, spec, v_w, U):
    """The thrust at speed U of flagellum ``spec`` with the drag pair
    ``drag`` at wave speed v_w: F1 of _point with no body."""
    wave = _wave(flagellum_of(drag, spec), v_w)
    return point(NO_BODY, U, wave, wave).F1


def assemble(body, U, F1, F2, P1, P2):
    """The SolveResult of _fields."""
    return SolveResult._make(_fields(body, U, F1, F2, P1, P2))


def derived(cfg, U, P1=1.0, P2=1.0):
    """assemble of ``cfg`` at speed U with no flagellar thrust."""
    return assemble(_body(cfg), U, 0.0, 0.0, P1, P2)


class TestThrust:
    def test_reference_value(self):
        drag = CompositeDrag(K_N=1.0, K_L=0.5)  # gamma = 0.5
        force = thrust(drag, replace(FLAGELLUM, L=0.5), v_w=0.441, U=0.0)
        assert force == pytest.approx(0.011018028414, rel=1e-10)
        assert force == pytest.approx(0.01101, rel=1e-3)

    def test_no_wave_no_speed_no_thrust(self):
        drag = CompositeDrag(K_N=1.0, K_L=0.5)
        assert thrust(drag, FLAGELLUM, 0.0, 0.0) == 0.0

    def test_isotropic_drag_produces_no_thrust(self):
        drag = CompositeDrag(K_N=1.0, K_L=1.0)
        assert thrust(drag, FLAGELLUM, 0.441, 0.0) == 0.0

    def test_invalid_arguments(self):
        # a negative length or beta (A < 0) never reaches the thrust
        with pytest.raises(ParameterError):
            replace(FLAGELLUM, L=-0.1)
        with pytest.raises(ParameterError):
            replace(FLAGELLUM, A=-0.0075)


class TestBodyDrag:
    def test_values(self):
        cfg = default_config()  # a = 0.035 in glycerine
        assert derived(cfg, 0.0).F_body == 0.0
        assert derived(NO_BODY, 0.01).F_body == 0.0
        assert derived(cfg, 0.01).F_body == pytest.approx(
            -0.009830043413, rel=1e-10)


class TestSolveVelocity:
    def test_zero_frequencies(self):
        cfg = with_params(default_config(), {"f_sym": 0.0})
        assert solve_velocity(cfg) == 0.0

    def test_reference_value_via_thrust_balance(self):
        # K_N*L = 0.5, gamma = 0.5, beta = 0.075, v_w = 0.441 each:
        # cross-check the closed form against a scalar bisection on the
        # same thrust/drag expressions.
        drag = CompositeDrag(K_N=0.5 / 0.12, K_L=0.25 / 0.12)
        mu, a, v = 1.49, 0.035, 0.441

        def total(U):
            return 2 * thrust(drag, FLAGELLUM, v, U) - 6 * math.pi * mu * a * U

        lo, hi = 0.0, 0.1
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.copysign(1.0, total(mid)) == math.copysign(1.0, total(lo)):
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.014374722056, rel=1e-9)

    def test_frequency_swap_symmetry(self):
        cfg = default_config()
        a = replace(cfg, anterior=replace(cfg.anterior, f=2.0),
                    posterior=replace(cfg.posterior, f=5.0))
        b = replace(cfg, anterior=replace(cfg.anterior, f=5.0),
                    posterior=replace(cfg.posterior, f=2.0))
        assert solve_velocity(a) == solve_velocity(b)

    def test_forms_agree(self, rng):
        for _ in range(200):
            cfg = random_config(rng)
            u1 = solve_velocity(cfg)
            u2 = solve_velocity_unreduced(cfg)
            assert abs(u1 - u2) <= 1e-12 * max(abs(u1), abs(u2), 1e-300)

    def test_asymmetric_geometry_rejected(self):
        cfg = default_config()
        bad = replace(cfg, posterior=replace(cfg.posterior, L=0.10))
        with pytest.raises(AsymmetryError, match="oracle"):
            solve_velocity(bad)

    @pytest.mark.parametrize("field, name", [("d_membrane", "K_N"),
                                             ("A", "beta"), ("L", "L")])
    def test_one_match_check_for_every_caller(self, field, name):
        # one posterior value differs by 1%; every closed-form caller
        # raises the same message, after its own point or design prefix
        cfg = smooth_config()
        bad = replace(cfg, posterior=replace(cfg.posterior, **{
            field: getattr(cfg.posterior, field) * 1.01}))
        calls = [
            lambda: solve_velocity(bad),
            lambda: full_solve(bad),
            lambda: heatmap(bad, (1.0, 2.0), (1.5, 2.0), (2, 2)),
            lambda: sweep(bad, SweepSpec("f_sym", 1.0, 2.0, 2)),
            lambda: optimize_design(bad, DesignBounds({"f1": (1.0, 3.0)}),
                                    "speed")]
        messages = []
        for call in calls:
            with pytest.raises(AsymmetryError) as info:
                call()
            messages.append(str(info.value))
        detail = messages[0]
        assert re.fullmatch(rf"flagella differ in {name} \(\S+ vs \S+\); the"
                            " closed form assumes identical flagella, use the"
                            " oracle solver instead", detail)
        assert messages == [
            detail, detail, f"heatmap point f1_hz=1.0, f2_hz=1.5: {detail}",
            f"sweep point f_hz=1.0: {detail}",
            f"objective undefined at {{'f1': 1.0}}: {detail}"]

    def test_overflowed_speed_is_numerical_error(self):
        # finite drag coefficients, but the numerator overflows to -inf
        cfg = with_params(replace(default_config(), fluid=FluidMedium(mu=1e300)),
                          {"f_sym": 1e12})
        with pytest.raises(NumericalError, match=r"non-finite U_X \(-inf\)"):
            solve_velocity(cfg)

    def test_positive_speed_for_low_gamma(self, rng):
        for _ in range(200):
            cfg = random_config(rng)
            gamma = composite_coeffs(cfg.anterior, cfg.fluid).gamma
            f_sum = cfg.anterior.f + cfg.posterior.f
            if gamma < 1.0 and f_sum > 0:
                assert solve_velocity(cfg) > 0

    def test_linearity_in_frequency_sum(self):
        cfg = default_config()
        u = solve_velocity(with_params(cfg, {"f_sym": 3.0}))
        for delta in (0.5, 1.0, 2.9):
            shifted = replace(cfg, anterior=replace(cfg.anterior, f=3.0 + delta),
                              posterior=replace(cfg.posterior, f=3.0 - delta))
            assert solve_velocity(shifted) == pytest.approx(u, rel=1e-12)

    def test_zero_body_scale_invariance(self):
        cfg = replace(smooth_config(), body=BodyGeometry(a=0.0, mass=0.256))
        u1 = solve_velocity(cfg)
        u2 = solve_velocity(replace(cfg, thrust_scale=7.3))
        assert u2 == pytest.approx(u1, rel=1e-12)

    def test_thrust_scale_monotone_and_bounded(self):
        cfg = smooth_config()
        limit = solve_velocity(replace(cfg, body=BodyGeometry(a=0.0, mass=0.256)))
        previous = 0.0
        for scale in (0.1, 0.5, 1.0, 5.0, 25.0, 125.0):
            u = solve_velocity(replace(cfg, thrust_scale=scale))
            assert u > previous
            assert u < limit
            previous = u


class TestPowers:
    def test_all_zero_when_quiescent(self):
        p = full_solve(with_params(default_config(), {"f_sym": 0.0}))
        assert (p.P1, p.P2, p.P0) == (0.0, 0.0, 0.0)

    def test_beating_in_place_dissipates(self):
        cfg = default_config()
        result = point(cfg, 0.0, wave_of(cfg, cfg.anterior),
                       wave_of(cfg, cfg.posterior))
        P1, P2 = result.P1, result.P2
        assert P1 > 0 and P2 > 0
        assert derived(cfg, 0.0, P1, P2).P0 == 0.0

    def test_useful_power_reference_value(self):
        p = derived(default_config(), 0.014374722056)
        assert p.P0 == pytest.approx(2.031207764550e-4, rel=1e-9)

    def test_nonnegative_for_valid_configs(self, rng):
        for _ in range(300):
            p = full_solve(random_config(rng))
            assert p.P1 >= 0.0
            assert p.P2 >= 0.0
            assert p.P0 >= 0.0


class TestEfficiency:
    def test_conventions(self):
        cfg = default_config()
        assert derived(cfg, 0.0, 0.0, 0.0).eta == 0.0
        assert derived(cfg, 0.0, 1.0, 2.0).eta == 0.0
        P0 = derived(cfg, 0.01).P0
        assert derived(cfg, 0.01, 4.0 * P0, 6.0 * P0).eta == pytest.approx(0.1)

    def test_inconsistent_balance(self):
        with pytest.raises(InconsistencyError,
                           match="with zero flagellar power"):
            derived(default_config(), 0.01, 0.0, 0.0)

    def test_synchronized_beat_beats_split_frequencies(self):
        cfg = default_config()
        eta_sync = full_solve(with_params(cfg, {"f_sym": 4.41})).eta
        for delta in (0.5, -0.5, 1.0):
            split = replace(cfg, anterior=replace(cfg.anterior, f=4.41 + delta),
                            posterior=replace(cfg.posterior, f=4.41 - delta))
            assert eta_sync > full_solve(split).eta

    def test_bounded_below_one(self, rng):
        for _ in range(300):
            cfg = random_config(rng)
            result = full_solve(cfg)
            if result.P1 + result.P2 > 0:
                assert 0.0 <= result.eta < 1.0


class TestCostOfTransport:
    # the default swimmer weighs 0.256 kg; 4.91 + 4.91 W is exactly 9.82 W
    def test_zero_power(self):
        assert derived(NO_BODY, 0.03, 0.0, 0.0).CoT == 0.0

    def test_measured_point_arithmetic(self):
        cot = derived(default_config(), 0.0309, 4.91, 4.91).CoT
        assert cot == pytest.approx(126.544721884082, rel=1e-12)
        assert cot == pytest.approx(126.6, rel=1e-3)
        assert derived(default_config(), -0.0309, 4.91, 4.91).CoT == cot

    def test_inverse_proportionality(self):
        cfg = default_config()
        assert derived(cfg, 0.02).CoT == pytest.approx(
            derived(cfg, 0.01).CoT / 2)


class TestFullSolve:
    def test_zero_frequency_all_zero(self):
        result = full_solve(with_params(default_config(), {"f_sym": 0.0}))
        assert result == type(result)(U_X=0.0, F1=0.0, F2=0.0, F_body=0.0,
                                      residual=0.0, P1=0.0, P2=0.0, P0=0.0,
                                      eta=0.0, CoT=0.0, Re=0.0)

    def test_residual_is_tiny(self):
        result = full_solve(default_config())
        scale = max(abs(result.F1), abs(result.F2), abs(result.F_body))
        assert abs(result.residual) <= 1e-12 * scale

    @settings(max_examples=200)
    @given(cfg=reference_configs())
    def test_composition_consistency(self, cfg):
        result = full_solve(cfg)
        U = solve_velocity(cfg)
        assert result.U_X == U
        assert result == point(cfg, U, wave_of(cfg, cfg.anterior),
                               wave_of(cfg, cfg.posterior))
        # each thrust and power is the formula written out in one
        # expression, with -U in the anterior's cross term, +U in the
        # posterior's
        for spec, sign, F, P in zip(cfg.flagella, (-1, 1),
                                    (result.F1, result.F2),
                                    (result.P1, result.P2)):
            drag = cfg.effective_drag(spec)
            knl, g, v = drag.K_N * spec.L, drag.gamma - 1.0, spec.v_w
            b2 = spec.beta ** 2
            q = 2.0 * math.pi ** 2 * b2
            assert F == knl * ((-q * v * g - g * U) / (1.0 + q) - U) + 0.0
            c = 2.0 * math.pi ** 2 * v * b2
            assert P == knl * (g * (c + sign * U) ** 2 / (1.0 + q) + U ** 2
                               + q * v ** 2)
        assert result == assemble(_body(cfg), U, result.F1, result.F2,
                                  result.P1, result.P2)

    def test_derived_quantities_of_default_config(self):
        result = full_solve(default_config())
        assert result.eta == pytest.approx(result.P0 / (result.P1 + result.P2))
        assert result.CoT == pytest.approx(
            (result.P1 + result.P2) / (0.256 * 9.81 * abs(result.U_X)))
        assert result.Re == pytest.approx(
            1000.0 * abs(result.U_X) * 0.07 / 1.49)

    def test_default_composite_swims_backward(self):
        # the hinge lattice dominates the drag anisotropy (gamma > 1)
        assert full_solve(default_config()).U_X < 0

    def test_smooth_baseline_swims_forward(self):
        assert full_solve(smooth_config()).U_X > 0

    def test_straight_flagella_do_not_move_or_dissipate(self):
        cfg = smooth_config()
        quiet = replace(cfg, anterior=replace(cfg.anterior, A=0.0),
                        posterior=replace(cfg.posterior, A=0.0))
        result = full_solve(quiet)
        assert result.U_X == 0.0
        assert result.CoT == 0.0

    def test_isotropic_drag_beats_in_place_with_infinite_cot(self):
        # n*h = 1 with equal diameters makes K_N == K_L exactly (gamma=1):
        # the flagella dissipate power but generate no net motion
        cfg = default_config(n=100.0, h=0.01)
        result = full_solve(cfg)
        assert result.U_X == 0.0
        assert result.P1 > 0 and result.P2 > 0
        assert result.CoT == math.inf
        assert result.eta == 0.0

    def test_random_configs_solve(self, rng):
        for _ in range(100):
            result = full_solve(random_config(rng))
            scale = max(abs(result.F1), abs(result.F2), abs(result.F_body), 1e-30)
            assert abs(result.residual) <= 1e-10 * scale


class TestSolveResult:
    """The one result type of both backends: eleven named, immutable
    fields in a fixed order."""

    def test_fields_in_order(self):
        assert SolveResult._fields == ("U_X", "F1", "F2", "F_body",
                                       "residual", "P1", "P2", "P0", "eta",
                                       "CoT", "Re")

    def test_repr_names_each_field(self):
        result = full_solve(default_config())
        assert repr(result).startswith(
            f"SolveResult(U_X={result.U_X!r}, F1={result.F1!r}, ")
        assert repr(result).endswith(f", Re={result.Re!r})")

    def test_fields_cannot_be_assigned(self):
        result = full_solve(default_config())
        with pytest.raises(AttributeError):
            result.U_X = 0.0

    @pytest.mark.parametrize("solve", [
        full_solve,
        lambda cfg: oracle_full_solve(cfg, OracleSettings(n_segments=128)),
    ], ids=["full_solve", "oracle_full_solve"])
    def test_both_backends_return_it(self, solve):
        assert type(solve(default_config())) is SolveResult


@settings(max_examples=200)
@given(cfg=reference_configs())
def test_power_asymmetry_is_cross_term(cfg):
    # the sign of U in the cross term is the closed form's only difference
    # between the flagella: P1(f1=a, f2=b) - P2(f1=b, f2=a) = 4*T0*U with
    # T0 = -K_N*L*q*v_w*(gamma-1)/(1+q), q = 2*pi^2*beta^2, v_w = lambda*a
    swapped = with_params(cfg, {"f1": cfg.posterior.f, "f2": cfg.anterior.f})
    U = solve_velocity(cfg)
    p1 = full_solve(cfg).P1
    p2 = full_solve(swapped).P2
    spec = cfg.anterior
    drag = cfg.effective_drag(spec)
    q = 2 * math.pi ** 2 * spec.beta ** 2
    t0 = -drag.K_N * spec.L * q * spec.v_w * (drag.gamma - 1) / (1 + q)
    assert abs((p1 - p2) - 4 * t0 * U) <= 1e-12 * (p1 + p2)


@settings(max_examples=200)
@given(cfg=reference_configs(), offset=SPEED_OFFSETS)
def test_posterior_power_slope_is_minus_twice_thrust(cfg, offset):
    # the RFT identity dP2/dU = -2*F2 between _point's P2 and F2.
    # P2 is quadratic in U, so the central difference over [U-h, U+h] is
    # its exact slope, and only rounding separates it from -2*F2. Each P2
    # is a sum of three terms computed to a few ulps, so the difference
    # is off by at most ~10 ulps of the terms' magnitudes, over 2h; the
    # bound allows 1e-13 (~450 ulps) of that, and h >= |U| keeps the
    # rounding of U +- h below 2 ulps of the slope.
    spec = cfg.posterior
    drag = cfg.effective_drag(spec)
    wave = wave_of(cfg, spec)
    U = solve_velocity(cfg) + offset
    q = 2.0 * math.pi ** 2 * spec.beta ** 2
    c = q * spec.v_w
    h = abs(U) + abs(c) or 1.0

    def at(u):
        return point(NO_BODY, u, wave, wave)

    slope = (at(U + h).P2 - at(U - h).P2) / (2.0 * h)
    thrust = at(U).F2
    terms = drag.K_N * spec.L * (
        abs(drag.gamma - 1.0) * (abs(c) + abs(U) + h) ** 2
        + (abs(U) + h) ** 2 + q * spec.v_w ** 2)
    assert abs(slope + 2.0 * thrust) <= 1e-13 * terms / h


def drag_bits(drag):
    """A drag's coefficients and ratio, bit for bit."""
    return [float.hex(value) for value in (drag.K_N, drag.K_L, drag.gamma)]


class TestEffectiveDragMemo:
    """RobotConfig.effective_drag looks its drag up in core's one drag
    memo, keyed by the drag inputs and thrust_scale, which both flagella
    and every config share: in any order of calls each result equals a
    drag computed afresh, and an error is raised again on every call."""

    #: how the posterior differs from the anterior: not at all, in one
    #: drag input, in the type of one (an equal Fraction h, stored as the
    #: equal float, or an equal Decimal h, which the spec rejects, so the
    #: posterior stays as drawn), or where one flagellum fails the
    #: slender-body check; for "thrust_scale", the calls cycle through the
    #: config and two equal but for thrust_scale: doubled, and rounded up
    #: to an int
    CHANGES = (None, "lam", "w", "d_hinge", "h as a Fraction",
               "h as a Decimal", "slender anterior", "slender posterior",
               "thrust_scale")

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), change=st.sampled_from(CHANGES),
           calls=st.lists(st.integers(0, 3), min_size=1, max_size=8))
    @example(seed=1, change="h as a Decimal", calls=[0, 1, 1])
    @example(seed=1, change="slender anterior", calls=[1, 0, 0, 1])
    @example(seed=1, change="thrust_scale", calls=[0, 0, 0, 0])
    def test_equals_a_fresh_drag_in_any_order(self, seed, change, calls):
        cfg = random_config(random.Random(seed))
        anterior, posterior = cfg.flagella
        if change in ("lam", "w", "d_hinge"):
            posterior = replace(posterior,
                                **{change: getattr(posterior, change) * 1.25})
        elif change == "h as a Fraction":
            posterior = replace(posterior, h=Fraction(posterior.h))
        elif change == "h as a Decimal":
            with pytest.raises(ParameterError, match=(
                    "^h: must be a number that mixes with floats")):
                replace(posterior, h=Decimal(posterior.h))
        elif change == "slender anterior":
            anterior = replace(anterior, d_membrane=4.0 * anterior.lam)
        elif change == "slender posterior":
            posterior = replace(posterior, d_membrane=4.0 * posterior.lam)
        cfg = replace(cfg, anterior=anterior, posterior=posterior)
        owners = [cfg]
        if change == "thrust_scale":
            owners += [replace(cfg, thrust_scale=2.0 * cfg.thrust_scale),
                       replace(cfg, thrust_scale=math.ceil(cfg.thrust_scale))]
        for i, call in enumerate(calls):
            owner = owners[i % len(owners)]
            # 0 and 1 are the config's own flagella, 2 and 3 equal copies
            spec = owner.flagella[call % 2]
            if call >= 2:
                spec = replace(spec)
            try:
                fresh = composite_coeffs(spec, owner.fluid).scaled(
                    owner.thrust_scale)
            except SlenderBodyError as exc:
                with pytest.raises(type(exc),
                                   match=f"^{re.escape(str(exc))}$"):
                    owner.effective_drag(spec)
                continue
            assert drag_bits(owner.effective_drag(spec)) == drag_bits(fresh)
