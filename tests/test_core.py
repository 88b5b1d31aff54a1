import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from biflag import core
from biflag.closed_form import assemble_result
from biflag.core import (
    ANTERIOR,
    POSTERIOR,
    BodyGeometry,
    CompositeDrag,
    FlagellumSpec,
    FluidMedium,
    brennen_winet,
    composite_coeffs,
)
from biflag.errors import (
    DomainError,
    NumericalError,
    ParameterError,
    SlenderBodyError,
)
from biflag.presets import default_config

from conftest import random_config
from quadrature import waveform_eval


def flag(role=ANTERIOR, L=0.12, A=0.0075, lam=0.10, f=4.41, **kw):
    return FlagellumSpec(role=role, L=L, A=A, lam=lam, f=f, **kw)


GLYCERINE = FluidMedium(mu=1.49, rho=1000.0)


class TestDomainTypes:
    def test_fluid_invariants(self):
        with pytest.raises(ParameterError):
            FluidMedium(mu=0.0, rho=1000.0)
        with pytest.raises(ParameterError):
            FluidMedium(mu=1.49, rho=-1.0)

    def test_body_invariants(self):
        BodyGeometry(a=0.0, mass=0.256)  # zero radius is allowed
        with pytest.raises(ParameterError):
            BodyGeometry(a=-0.01, mass=0.256)
        with pytest.raises(ParameterError):
            BodyGeometry(a=0.035, mass=0.0)

    def test_flagellum_invariants(self):
        with pytest.raises(ParameterError):
            flag(role="sideways")
        with pytest.raises(ParameterError):
            flag(A=0.05)  # A must stay below lambda/2
        with pytest.raises(ParameterError):
            flag(lam=0.0)
        with pytest.raises(ParameterError):
            flag(f=-1.0)
        with pytest.raises(ParameterError):
            flag(d_membrane=0.0)

    def test_derived_shape(self):
        spec = flag()
        assert spec.beta == pytest.approx(0.075, rel=1e-15)
        assert spec.v_w == pytest.approx(0.441, rel=1e-15)

    def test_flagellum_indexing(self):
        assert flag(role=ANTERIOR).axis_sign == -1
        assert flag(role=POSTERIOR).axis_sign == 1

    def test_axial_span(self):
        a = 0.035
        assert flag(role=ANTERIOR).axial_span(a) == (0.035, 0.155)
        assert flag(role=POSTERIOR).axial_span(a) == (-0.155, -0.035)

    def test_composite_drag_gamma(self):
        drag = CompositeDrag(K_N=2.0, K_L=1.0)
        assert drag.gamma == 0.5
        assert drag.scaled(3.0).K_N == 6.0
        assert drag.scaled(3.0).gamma == 0.5

    def test_composite_drag_rejects_overflowed_coefficients(self):
        with pytest.raises(NumericalError, match=r"non-finite K_N \(inf\)"):
            CompositeDrag(K_N=math.inf, K_L=1.0)
        with pytest.raises(NumericalError, match=r"non-finite K_L \(inf\)"):
            CompositeDrag(K_N=1.0, K_L=2.0).scaled(1.797e308)


class TestWaveform:
    def test_zero_amplitude(self):
        state = waveform_eval(flag(A=0.0), 0.035, 0.1, 0.33)
        assert state == (0.0, 0.0, 0.0)

    def test_posterior_phase_zero_at_attachment(self):
        state = waveform_eval(flag(role=POSTERIOR), 0.035, -0.035, 0.0)
        assert state.y == pytest.approx(0.0, abs=1e-15)

    def test_periodicity(self):
        spec = flag()
        for x in (0.05, 0.09, 0.13):
            y0 = waveform_eval(spec, 0.035, x, 0.37).y
            y1 = waveform_eval(spec, 0.035, x, 0.37 + 1.0 / spec.f).y
            assert y1 == pytest.approx(y0, abs=1e-12)

    def test_anterior_quarter_wave_trough(self):
        spec = flag(role=ANTERIOR)
        state = waveform_eval(spec, 0.035, 0.035 + spec.lam / 4, 0.0)
        assert state.y == pytest.approx(-spec.A, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            waveform_eval(flag(role=ANTERIOR), 0.035, 0.0, 0.0)
        with pytest.raises(DomainError):
            waveform_eval(flag(role=POSTERIOR), 0.035, 0.0, 0.0)

    def test_derivatives_match_finite_differences(self):
        rng = random.Random(7)
        for _ in range(50):
            role = rng.choice([ANTERIOR, POSTERIOR])
            spec = flag(role=role, A=rng.uniform(0.001, 0.012),
                        lam=rng.uniform(0.05, 0.2), f=rng.uniform(0.5, 6.0))
            a = 0.035
            x0, x1 = spec.axial_span(a)
            x = rng.uniform(x0 + 0.01, x1 - 0.01)
            t = rng.uniform(0.0, 1.0)
            state = waveform_eval(spec, a, x, t)
            slope_scale = 2 * math.pi * spec.A / spec.lam
            if abs(state.slope) < 0.05 * slope_scale:
                continue  # relative comparison is meaningless at extrema
            hx = 1e-7 * spec.lam
            fd_x = (waveform_eval(spec, a, x + hx, t).y
                    - waveform_eval(spec, a, x - hx, t).y) / (2 * hx)
            assert fd_x == pytest.approx(state.slope, rel=1e-6)
            ht = 1e-7 / spec.f
            fd_t = (waveform_eval(spec, a, x, t + ht).y
                    - waveform_eval(spec, a, x, t - ht).y) / (2 * ht)
            assert fd_t == pytest.approx(state.y_t, rel=1e-6)


class TestBrennenWinet:
    def test_reference_values(self):
        drag = brennen_winet(1.49, 0.10, 0.002)
        assert drag.K_N == pytest.approx(7.807095289622, rel=1e-12)
        assert drag.K_L == pytest.approx(2.754876928169, rel=1e-12)
        assert drag.K_N == pytest.approx(7.806, rel=1e-3)
        assert drag.K_L == pytest.approx(2.755, rel=1e-3)

    def test_gamma_ratio(self):
        drag = brennen_winet(1.49, 0.10, 0.002)
        x = math.log(200.0)
        assert drag.gamma == pytest.approx((x - 2.90) / (2 * (x - 1.90)), rel=1e-12)
        assert drag.gamma == pytest.approx(0.353, abs=5e-4)

    def test_singularity(self):
        lam = 0.10
        d = 4 * lam / math.exp(2.90)
        with pytest.raises(SlenderBodyError):
            brennen_winet(1.49, lam, d)
        with pytest.raises(SlenderBodyError):
            brennen_winet(1.49, lam, d * 1.5)

    def test_underflowed_ratio_is_past_the_pole(self):
        # 4*lambda/d underflows to 0, whose log would be a math domain error
        with pytest.raises(SlenderBodyError,
                           match=r"ln\(4\*lambda/d\) = -inf <= 2\.9 "):
            brennen_winet(1.49, 1e-320, 1e300)

    def test_gamma_always_below_half(self):
        rng = random.Random(11)
        for _ in range(300):
            lam = rng.uniform(0.01, 0.5)
            d = rng.uniform(1e-5, 0.2 * lam)
            drag = brennen_winet(rng.uniform(0.1, 5.0), lam, d)
            assert 0.0 < drag.gamma < 0.5


class TestCompositeCoeffs:
    def test_no_hinges_reduces_to_membrane(self):
        spec = flag(n=0.0)
        drag = composite_coeffs(spec, GLYCERINE)
        membrane = brennen_winet(GLYCERINE.mu, spec.lam, spec.d_membrane)
        assert drag.K_N == pytest.approx(spec.w * membrane.K_N, rel=1e-15)
        assert drag.K_L == pytest.approx(spec.w * membrane.K_L, rel=1e-15)

    def test_hinge_factor(self):
        spec = flag(n=200.0, h=0.016)
        assert spec.n * spec.h == pytest.approx(3.2, rel=1e-15)

    def test_reference_values(self):
        drag = composite_coeffs(flag(), GLYCERINE)
        assert drag.K_N == pytest.approx(0.581794551092, rel=1e-12)
        assert drag.K_L == pytest.approx(0.970815364924, rel=1e-12)
        assert drag.K_N == pytest.approx(0.5817, rel=1e-3)
        assert drag.K_L == pytest.approx(0.9707, rel=1e-3)

    def test_hinges_can_push_gamma_above_one(self):
        assert composite_coeffs(flag(), GLYCERINE).gamma > 1.0

    def test_linear_in_width(self):
        base = composite_coeffs(flag(), GLYCERINE)
        scaled = composite_coeffs(flag(w=0.035 * 2.5), GLYCERINE)
        assert scaled.K_N == pytest.approx(2.5 * base.K_N, rel=1e-12)
        assert scaled.K_L == pytest.approx(2.5 * base.K_L, rel=1e-12)
        assert scaled.gamma == pytest.approx(base.gamma, rel=1e-12)

    def test_zero_width_rejected(self):
        with pytest.raises(ParameterError):
            composite_coeffs(flag(w=0.0), GLYCERINE)

    def test_singularity_propagates(self):
        with pytest.raises(SlenderBodyError):
            composite_coeffs(flag(d_membrane=0.03), GLYCERINE)
        with pytest.raises(SlenderBodyError):
            composite_coeffs(flag(d_hinge=0.03), GLYCERINE)
        # unused hinge diameter is not evaluated
        composite_coeffs(flag(d_hinge=0.03, n=0.0), GLYCERINE)


def drag_inputs(spec, fluid):
    return (fluid.mu, spec.lam, spec.d_membrane, spec.d_hinge, spec.w,
            spec.h, spec.n)


def drag_bits(drag):
    return [(type(v), float.hex(v)) for v in (drag.K_N, drag.K_L, drag.gamma)]


@st.composite
def drag_cases(draw):
    """A flagellum of random_config and its fluid, with integer-valued
    lambda, w or n, and n or h = -0.0, each drawn at random."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    changes = {}
    if draw(st.booleans()):
        changes["lam"] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        changes["w"] = draw(st.integers(1, 2))
    changes["n"] = draw(st.sampled_from(
        (cfg.anterior.n, -0.0, draw(st.integers(0, 400)))))
    if draw(st.booleans()):
        changes["h"] = -0.0
    return replace(cfg.anterior, **changes), cfg.fluid


def float_twin(spec):
    """``spec`` with every drag input a float and -0.0 made 0.0."""
    return replace(spec, **{name: float(getattr(spec, name)) + 0.0
                            for name in ("lam", "d_membrane", "d_hinge",
                                         "w", "h", "n")})


class TestCompositeCoeffsMemo:
    """composite_coeffs is memoised; each result must be the uncached one."""

    @given(case=drag_cases())
    def test_cold_and_warm_match_uncached(self, case):
        spec, fluid = case
        uncached = core._composite_coeffs.__wrapped__(*drag_inputs(spec, fluid))
        core._composite_coeffs.cache_clear()
        cold = composite_coeffs(spec, fluid)
        # an equal key of other types and zero signs may be memoised first
        core._composite_coeffs.cache_clear()
        composite_coeffs(float_twin(spec), fluid)
        after_twin = composite_coeffs(spec, fluid)
        hits = core._composite_coeffs.cache_info().hits
        warm = composite_coeffs(spec, fluid)
        assert core._composite_coeffs.cache_info().hits == hits + 1
        assert (drag_bits(cold) == drag_bits(after_twin) == drag_bits(warm)
                == drag_bits(uncached))

    @given(seed=st.integers(0, 2 ** 32 - 1),
           ratio=st.floats(0.23, 50.0))
    def test_errors_are_not_memoised(self, seed, ratio):
        # d >= 4*lambda/e^2.90 = 0.2201*lambda is past the slender-body pole
        cfg = random_config(random.Random(seed))
        spec = replace(cfg.anterior, d_membrane=ratio * cfg.anterior.lam)
        messages = []
        for _ in range(2):
            with pytest.raises(SlenderBodyError) as info:
                composite_coeffs(spec, cfg.fluid)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_memo_is_bounded(self):
        memo = core._composite_coeffs
        memo.cache_clear()
        assert memo.cache_info().maxsize is not None
        for i in range(10_000):
            composite_coeffs(flag(lam=0.1 + i * 1e-6), GLYCERINE)
        info = memo.cache_info()
        assert info.misses == 10_000
        assert info.currsize <= info.maxsize


def reynolds_number(U):
    """Re on the 0.07 m body diameter of the default swimmer in glycerine."""
    return assemble_result(default_config(), U, 0.0, 0.0, 1.0, 1.0).Re


class TestReynolds:
    def test_zero_speed(self):
        assert reynolds_number(0.0) == 0.0

    def test_reference_value(self):
        assert reynolds_number(0.0332) == pytest.approx(
            1.559731543624, rel=1e-12)

    def test_linearity_and_sign(self):
        re1 = reynolds_number(0.01)
        assert reynolds_number(0.02) == pytest.approx(2 * re1)
        assert reynolds_number(-0.01) == re1
