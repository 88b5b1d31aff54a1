import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from biflag.closed_form import flagellum_thrust, full_solve, powers, solve_velocity
from biflag.errors import BracketError, ParameterError
from biflag.oracle import (
    OracleSettings,
    average_thrust,
    oracle_power,
    oracle_residual,
    oracle_solve,
    segment_force_x,
    segment_state,
)
from biflag.presets import default_config, smooth_config, with_params
from biflag.sweep import oracle_full_solve

from conftest import random_config, zero_corner

FAST = OracleSettings(n_segments=128, n_time=32)


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
        assert average_thrust(cfg, 1, 0.02, FAST) == pytest.approx(
            expected, rel=1e-13)

    def test_matches_closed_form_at_small_beta(self):
        cfg = smooth_config(A=0.004)  # beta = 0.04
        oracle = average_thrust(cfg, 1, 0.0, OracleSettings())
        shape = cfg.anterior.derived()
        closed = flagellum_thrust(cfg.effective_drag(cfg.anterior),
                                  cfg.anterior.L, shape.v_w, shape.beta, 0.0)
        assert oracle == pytest.approx(closed, rel=0.02)

    def test_richardson_convergence(self):
        cfg = default_config()  # L is not a whole number of wavelengths
        forces = [average_thrust(cfg, 1, 0.003,
                                 OracleSettings(n_segments=n, n_time=t))
                  for n, t in ((64, 8), (128, 16), (256, 32))]
        d1 = abs(forces[1] - forces[0])
        d2 = abs(forces[2] - forces[1])
        assert d2 <= d1 / 4

    def test_affine_in_speed(self):
        cfg = default_config()
        u0 = 0.05
        f_neg = average_thrust(cfg, 2, -u0, FAST)
        f_zero = average_thrust(cfg, 2, 0.0, FAST)
        f_pos = average_thrust(cfg, 2, u0, FAST)
        assert f_neg + f_pos - 2 * f_zero == pytest.approx(
            0.0, abs=1e-9 * max(abs(f_neg), abs(f_pos)))


class TestOracleSolve:
    def test_straight_flagella_do_not_swim(self):
        solution = oracle_solve(straight_config(), FAST)
        assert solution.U == 0.0

    def test_zero_frequency(self):
        cfg = with_params(default_config(), {"f_sym": 0.0})
        assert oracle_solve(cfg, FAST).U == 0.0

    def test_default_config_agrees_with_closed_form(self):
        cfg = default_config()  # beta = 0.075
        u_oracle = oracle_solve(cfg, OracleSettings()).U
        u_closed = solve_velocity(cfg)
        assert abs(u_oracle - u_closed) / abs(u_closed) <= 0.02

    def test_residual_at_root(self):
        cfg = default_config()
        solution = oracle_solve(cfg, OracleSettings())
        assert abs(oracle_residual(cfg, solution.U, OracleSettings())) <= 1e-10

    def test_bracket_failure(self):
        cfg = default_config()
        bad = OracleSettings(u_bracket=(0.5, 1.0))
        with pytest.raises(BracketError):
            oracle_solve(cfg, bad)

    def test_handles_asymmetric_flagella(self):
        cfg = default_config()
        asym = replace(cfg, posterior=replace(cfg.posterior, L=0.065, A=0.004))
        solution = oracle_solve(asym, FAST)
        assert math.isfinite(solution.U)
        assert abs(solution.U) > 0


class TestOraclePower:
    def test_quiescent(self):
        cfg = with_params(default_config(A=0.0), {"f_sym": 0.0})
        assert oracle_power(cfg, 1, 0.0, FAST) == 0.0

    def test_straight_filament_tangential_dissipation(self):
        cfg = straight_config()
        drag = cfg.effective_drag(cfg.anterior)
        expected = drag.K_L * cfg.anterior.L * 0.02 ** 2
        assert oracle_power(cfg, 1, 0.02, FAST) == pytest.approx(
            expected, rel=1e-13)

    def test_matches_closed_form_at_small_beta(self):
        cfg = smooth_config(A=0.004)
        u = oracle_solve(cfg, OracleSettings()).U
        p_oracle = oracle_power(cfg, 1, u, OracleSettings())
        closed = powers(cfg, solve_velocity(cfg))
        assert p_oracle == pytest.approx(closed.P1, rel=0.03)

    def test_nonnegative(self):
        for cfg in (default_config(), smooth_config()):
            for u in (-0.05, 0.0, 0.03):
                assert oracle_power(cfg, 1, u, FAST) >= 0.0
                assert oracle_power(cfg, 2, u, FAST) >= 0.0

    def test_oracle_efficiency_in_unit_interval(self, rng):
        configs = [default_config(), smooth_config()]
        configs += [random_config(rng) for _ in range(10)]
        for cfg in configs:
            u = oracle_solve(cfg, FAST).U
            p1 = oracle_power(cfg, 1, u, FAST)
            p2 = oracle_power(cfg, 2, u, FAST)
            p0 = 6 * math.pi * cfg.fluid.mu * cfg.body.a * u ** 2
            if p1 + p2 > 0:
                assert 0.0 <= p0 / (p1 + p2) < 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_zero_length_zero_body_backends_agree(seed):
    cfg = zero_corner(random_config(random.Random(seed)))
    closed, oracle = full_solve(cfg), oracle_full_solve(cfg, FAST)
    assert closed == oracle
    assert closed.U_X == 0.0
