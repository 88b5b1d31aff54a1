import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from biflag.closed_form import _flagellum_thrust, full_solve, solve_velocity
from biflag.core import FluidMedium
from biflag.errors import BracketError, NumericalError, ParameterError
from biflag.oracle import OracleSettings, _phase_averages, flagellum_averages
from biflag.presets import default_config, smooth_config, with_params
from biflag.sweep import oracle_full_solve

import quadrature
from conftest import (
    SPEED_OFFSETS,
    random_config,
    reference_configs,
    zero_corner,
)
from quadrature import segment_force_x, segment_state

FAST = OracleSettings(n_segments=128, n_time=32)
#: quadrature resolution of the reference comparisons: 128 time steps make
#: the periodic t-trapezoid exact to rounding up to beta = 0.49, and for
#: f > 0 the time average is the same at every x, so 64 x steps suffice
#: (for f = 0 both sides use the same x trapezoid)
REFERENCE = OracleSettings(n_segments=64, n_time=128)


def straight_config():
    return default_config(A=0.0)


class TestSettings:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            OracleSettings(n_segments=8)
        with pytest.raises(ParameterError):
            OracleSettings(n_time=4)
        with pytest.raises(ParameterError):
            OracleSettings(u_bracket=(1.0, -1.0))
        with pytest.raises(ParameterError):
            OracleSettings(tol_u=0.0)


class TestSegmentState:
    def test_orthonormal_frame(self):
        cfg = default_config()
        state = segment_state(cfg, 1, 0.09, 0.02, U=0.01, dx=1e-3)
        tx, ty = state.tangent
        nx, ny = state.normal
        assert tx * nx + ty * ny == pytest.approx(0.0, abs=1e-15)
        assert math.hypot(tx, ty) == pytest.approx(1.0, rel=1e-14)
        assert math.hypot(nx, ny) == pytest.approx(1.0, rel=1e-14)
        assert state.ds >= 1e-3
        assert state.v_material[0] == 0.01


class TestSegmentForce:
    def test_straight_filament_pure_tangential_drag(self):
        cfg = straight_config()
        drag = cfg.effective_drag(cfg.anterior)
        fx = segment_force_x(cfg, 1, 0.10, 0.3, U=0.02)
        assert fx == pytest.approx(-drag.K_L * 0.02, rel=1e-14)

    def test_zero_relative_velocity(self):
        cfg = default_config()
        # at a wave crest the segment is momentarily at rest transversely
        # (cos phase = 0); with U = 0 the drag density vanishes
        spec = cfg.anterior
        x = cfg.body.a + spec.lam / 4  # phase -pi/2 at t=0
        assert segment_force_x(cfg, 1, x, 0.0, U=0.0) == pytest.approx(0.0, abs=1e-18)

    def test_hand_projected_value_at_zero_crossing(self):
        # anterior flagellum at (x=a, t=0): phase 0, so slope=-m, y_t=-m*v
        # with m = 2*pi*A/lambda and v = lambda*f; projecting the drag law
        # by hand gives dFx/ds = (K_N-K_L)*m^2*v/(1+m^2) at U=0
        cfg = default_config()
        spec = cfg.anterior
        drag = cfg.effective_drag(spec)
        m = 2 * math.pi * spec.A / spec.lam
        v = spec.lam * spec.f
        expected = (drag.K_N - drag.K_L) * m * m * v / (1 + m * m)
        assert expected == pytest.approx(-0.031174463946306, rel=1e-12)
        assert segment_force_x(cfg, 1, cfg.body.a, 0.0, U=0.0) == pytest.approx(
            expected, rel=1e-12)


class TestAverageThrust:
    def test_straight_filament_exact(self):
        cfg = straight_config()
        drag = cfg.effective_drag(cfg.anterior)
        expected = -drag.K_L * cfg.anterior.L * 0.02
        assert flagellum_averages(cfg, 1, FAST).thrust(0.02) == pytest.approx(
            expected, rel=1e-13)

    def test_matches_closed_form_at_small_beta(self):
        cfg = smooth_config(A=0.004)  # beta = 0.04
        oracle = flagellum_averages(cfg, 1, OracleSettings()).thrust(0.0)
        spec = cfg.anterior
        closed = _flagellum_thrust(cfg.effective_drag(spec), spec, spec.v_w,
                                   0.0)
        assert oracle == pytest.approx(closed, rel=0.02)

    def test_richardson_convergence(self):
        # the reference quadrature converges; the exact averages it checks
        # do not depend on the resolution, so they would pass vacuously
        cfg = default_config()  # L is not a whole number of wavelengths
        forces = [quadrature.average_thrust(
                      cfg, 1, 0.003, OracleSettings(n_segments=n, n_time=t))
                  for n, t in ((64, 8), (128, 16), (256, 32))]
        d1 = abs(forces[1] - forces[0])
        d2 = abs(forces[2] - forces[1])
        assert d1 > 0
        assert d2 <= d1 / 4

    def test_affine_in_speed(self):
        cfg = default_config()
        u0 = 0.05
        averages = flagellum_averages(cfg, 2, FAST)
        f_neg = averages.thrust(-u0)
        f_zero = averages.thrust(0.0)
        f_pos = averages.thrust(u0)
        assert f_neg + f_pos - 2 * f_zero == pytest.approx(
            0.0, abs=1e-9 * max(abs(f_neg), abs(f_pos)))


class TestOracleSolve:
    def test_straight_flagella_do_not_swim(self):
        solution = oracle_full_solve(straight_config(), FAST)
        assert solution.U_X == 0.0

    def test_zero_frequency(self):
        cfg = with_params(default_config(), {"f_sym": 0.0})
        assert oracle_full_solve(cfg, FAST).U_X == 0.0

    def test_default_config_agrees_with_closed_form(self):
        cfg = default_config()  # beta = 0.075
        u_oracle = oracle_full_solve(cfg, OracleSettings()).U_X
        u_closed = solve_velocity(cfg)
        assert abs(u_oracle - u_closed) / abs(u_closed) <= 0.02

    def test_residual_at_root(self):
        cfg = default_config()
        solution = oracle_full_solve(cfg, OracleSettings())
        assert abs(solution.residual) <= 1e-10

    def test_bracket_failure(self):
        cfg = default_config()
        bad = OracleSettings(u_bracket=(0.5, 1.0))
        with pytest.raises(BracketError):
            oracle_full_solve(cfg, bad)

    def test_overflowed_root_is_not_a_bracket_failure(self):
        # finite drag coefficients, but the total thrust overflows
        cfg = with_params(replace(default_config(), fluid=FluidMedium(mu=1e300)),
                          {"f_sym": 1e12})
        with pytest.raises(NumericalError, match=r"non-finite U_X \(-inf\)"):
            oracle_full_solve(cfg, FAST)

    def test_handles_asymmetric_flagella(self):
        cfg = default_config()
        asym = replace(cfg, posterior=replace(cfg.posterior, L=0.065, A=0.004))
        solution = oracle_full_solve(asym, FAST)
        assert math.isfinite(solution.U_X)
        assert abs(solution.U_X) > 0


class TestOraclePower:
    def test_quiescent(self):
        cfg = with_params(default_config(A=0.0), {"f_sym": 0.0})
        assert flagellum_averages(cfg, 1, FAST).power(0.0) == 0.0

    def test_straight_filament_tangential_dissipation(self):
        cfg = straight_config()
        drag = cfg.effective_drag(cfg.anterior)
        expected = drag.K_L * cfg.anterior.L * 0.02 ** 2
        assert flagellum_averages(cfg, 1, FAST).power(0.02) == pytest.approx(
            expected, rel=1e-13)

    def test_matches_closed_form_at_small_beta(self):
        cfg = smooth_config(A=0.004)
        p_oracle = oracle_full_solve(cfg, OracleSettings()).P1
        closed = full_solve(cfg)
        assert p_oracle == pytest.approx(closed.P1, rel=0.03)

    def test_nonnegative(self):
        for cfg in (default_config(), smooth_config()):
            averages = [flagellum_averages(cfg, k, FAST) for k in (1, 2)]
            for u in (-0.05, 0.0, 0.03):
                assert averages[0].power(u) >= 0.0
                assert averages[1].power(u) >= 0.0

    def test_oracle_efficiency_in_unit_interval(self, rng):
        configs = [default_config(), smooth_config()]
        configs += [random_config(rng) for _ in range(10)]
        for cfg in configs:
            result = oracle_full_solve(cfg, FAST)
            p1, p2 = result.P1, result.P2
            p0 = 6 * math.pi * cfg.fluid.mu * cfg.body.a * result.U_X ** 2
            if p1 + p2 > 0:
                assert 0.0 <= p0 / (p1 + p2) < 1.0


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_zero_length_zero_body_backends_agree(seed):
    cfg = zero_corner(random_config(random.Random(seed)))
    closed, oracle = full_solve(cfg), oracle_full_solve(cfg, FAST)
    assert closed == oracle
    assert closed.U_X == 0.0


def reference_root(cfg):
    """(total thrust at U = 0, root of the force balance) by quadrature."""
    (t1, d1), (t2, d2) = (quadrature.thrust_coefficients(cfg, k, REFERENCE)
                          for k in (1, 2))
    body = 6 * math.pi * cfg.fluid.mu * cfg.body.a
    return t1 + t2, (t1 + t2) / (d1 + d2 + body)


@settings(max_examples=60)
@given(cfg=reference_configs(),
       U=st.one_of(st.floats(-1.0, -1e-6), st.floats(1e-6, 1.0)))
def test_exact_averages_match_quadrature(cfg, U):
    # thrust T0 - D*U and power D*U^2 - 2*T0*U + Q, each to 1e-12 of the
    # size of its terms
    for k in (1, 2):
        averages = flagellum_averages(cfg, k, REFERENCE)
        t0, d = quadrature.thrust_coefficients(cfg, k, REFERENCE)
        q = quadrature.oracle_power(cfg, k, 0.0, REFERENCE)
        for u in (0.0, U):
            thrust = quadrature.average_thrust(cfg, k, u, REFERENCE)
            power = quadrature.oracle_power(cfg, k, u, REFERENCE)
            assert abs(averages.thrust(u) - thrust) <= (
                1e-12 * (abs(t0) + d * abs(u)))
            assert abs(averages.power(u) - power) <= (
                1e-12 * (d * u * u + 2 * abs(t0 * u) + q))


@settings(max_examples=60)
@given(cfg=reference_configs(),
       ends=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_bracket_error_iff_root_outside(cfg, ends):
    # the bracket ends are offsets from the quadrature root in units of
    # its size; they stay 1e-9 away from it, beyond the two methods' gap
    lo, hi = sorted(ends)
    assume(lo < hi and min(abs(lo), abs(hi)) > 1e-9)
    thrust, root = reference_root(cfg)
    scale = max(abs(root), 1e-3)
    u_bracket = (root + lo * scale, root + hi * scale)
    assume(u_bracket[0] < u_bracket[1])  # ends 1 ulp apart can round equal
    bracket = OracleSettings(n_segments=REFERENCE.n_segments,
                             u_bracket=u_bracket)
    if abs(thrust) <= bracket.tol_force:  # no thrust: U = 0 on any bracket
        solution = oracle_full_solve(cfg, bracket)
        assert solution.U_X == 0.0
        assert abs(solution.residual) <= bracket.tol_force
        return
    if lo <= 0.0 <= hi:
        assert oracle_full_solve(cfg, bracket).U_X == pytest.approx(root,
                                                                    rel=1e-12)
    else:
        with pytest.raises(BracketError, match=(
                r"^no sign change of total force on u_bracket \[\S+, \S+\];"
                r" widen the bracket$")):
            oracle_full_solve(cfg, bracket)
    # the bracket's ends are inclusive, to the last bit of the root
    U = oracle_full_solve(cfg, replace(bracket, u_bracket=(root - scale,
                                                           root + scale))).U_X
    for inside, (a, b) in ((True, (U, U + 1.0)), (True, (U - 1.0, U)),
                           (False, (math.nextafter(U, math.inf), U + 1.0)),
                           (False, (U - 1.0, math.nextafter(U, -math.inf)))):
        edge = replace(bracket, u_bracket=(a, b))
        if inside:
            assert oracle_full_solve(cfg, edge).U_X == U
        else:
            with pytest.raises(BracketError):
                oracle_full_solve(cfg, edge)


def test_phase_averages_match_scipy_elliptic_integrals():
    special = pytest.importorskip("scipy.special")
    for i in range(48):
        beta = 0.01 + 0.01 * i
        B = 2 * math.pi * beta
        r = math.sqrt(1 + B * B)
        m = B * B / (r * r)
        i0 = 2 * special.ellipk(m) / (math.pi * r)
        # subtracting loses about 1e-16/B^2 here, below the tolerance
        i2 = (2 * r * special.ellipe(m) / math.pi - i0) / (B * B)
        got_i0, got_i2, _ = _phase_averages(B)
        assert got_i0 == pytest.approx(i0, rel=1e-14)
        assert got_i2 == pytest.approx(i2, rel=1e-13)


#: a bracket wide enough for every reference config, so that the
#: properties below see the root and never a BracketError
WIDE = OracleSettings(u_bracket=(-100.0, 100.0))


@settings(max_examples=200)
@given(cfg=reference_configs())
def test_swapping_frequencies_swaps_flagella(cfg):
    # the exact averages do not depend on the side a flagellum beats
    # from, so the oracle cannot tell the anterior from the posterior
    a = oracle_full_solve(cfg, WIDE)
    b = oracle_full_solve(
        with_params(cfg, {"f1": cfg.posterior.f, "f2": cfg.anterior.f}), WIDE)
    force = abs(a.F1) + abs(a.F2) + abs(a.F_body)
    assert abs(b.U_X - a.U_X) <= 1e-12 * abs(a.U_X)
    for swapped, original in ((b.P1, a.P2), (b.P2, a.P1)):
        assert abs(swapped - original) <= 1e-12 * (a.P1 + a.P2)
    for swapped, original in ((b.F1, a.F2), (b.F2, a.F1)):
        assert abs(swapped - original) <= 1e-12 * force


@settings(max_examples=200)
@given(cfg=reference_configs())
def test_residual_vanishes_at_root(cfg):
    result = oracle_full_solve(cfg, WIDE)
    if result.U_X == 0.0:  # total thrust within tol_force of 0
        assert abs(result.residual) <= WIDE.tol_force
    else:
        assert abs(result.residual) <= 1e-12 * (
            abs(result.F1) + abs(result.F2) + abs(result.F_body))


@settings(max_examples=200)
@given(cfg=reference_configs())
def test_powers_nonnegative_and_efficiency_below_one(cfg):
    for result in (full_solve(cfg), oracle_full_solve(cfg, WIDE)):
        assert result.P1 >= 0.0
        assert result.P2 >= 0.0
        assert 0.0 <= result.eta < 1.0


@settings(max_examples=200)
@given(cfg=reference_configs(), offset=SPEED_OFFSETS)
def test_power_slope_is_minus_twice_thrust(cfg, offset):
    # the RFT identity dP_k/dU = -2*F_k on both flagella. P_k is quadratic
    # in U, so the central difference over [U-h, U+h] is its exact slope,
    # and only rounding separates it from -2*F_k. Each power is a sum of
    # three terms computed to a few ulps, so the difference is off by at
    # most ~10 ulps of the terms' magnitudes, over 2h; the bound allows
    # 1e-13 (~450 ulps) of that, and h >= |U| keeps the rounding of
    # U +- h below 2 ulps of the slope.
    U = oracle_full_solve(cfg, WIDE).U_X + offset
    for k in (1, 2):
        averages = flagellum_averages(cfg, k)
        h = abs(U) + abs(averages.T0) / averages.D or 1.0
        slope = (averages.power(U + h) - averages.power(U - h)) / (2.0 * h)
        terms = (averages.D * (abs(U) + h) ** 2
                 + 2.0 * abs(averages.T0) * (abs(U) + h) + averages.Q)
        assert abs(slope + 2.0 * averages.thrust(U)) <= 1e-13 * terms / h
