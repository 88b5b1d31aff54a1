import math
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from biflag import core
from biflag.closed_form import SolveResult, _body, _fields, full_solve
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
from biflag.calibrate import builtin_dataset, fit_thrust_scale, point_config
from biflag.oracle import OracleSettings, oracle_full_solve
from biflag.presets import (
    amplitude_for_length,
    default_config,
    smooth_config,
    with_params,
)
from biflag.sweep import AXIS_COLUMNS, BACKENDS, SweepSpec, heatmap, sweep

from conftest import random_config
from quadrature import waveform_eval


def flag(role=ANTERIOR, L=0.12, A=0.0075, lam=0.10, f=4.41, **kw):
    return FlagellumSpec(role=role, L=L, A=A, lam=lam, f=f, **kw)


GLYCERINE = FluidMedium(mu=1.49, rho=1000.0)

#: (name, build) of every argument that a bound check guards: build(v)
#: makes its owner with that argument v and every other one valid
BOUNDED = [
    ("mu", lambda v: FluidMedium(mu=v)),
    ("rho", lambda v: FluidMedium(rho=v)),
    ("a", lambda v: BodyGeometry(a=v)),
    ("mass", lambda v: BodyGeometry(mass=v)),
    *((name, lambda v, field=field: flag(**{field: v})) for name, field in (
        ("L", "L"), ("lambda", "lam"), ("f", "f"), ("A", "A"),
        ("d_membrane", "d_membrane"), ("d_hinge", "d_hinge"), ("w", "w"),
        ("h", "h"), ("n", "n"))),
    ("K_N", lambda v: CompositeDrag(v, 1.0)),
    ("K_L", lambda v: CompositeDrag(1.0, v)),
    ("factor", lambda v: CompositeDrag(1.0, 1.0).scaled(v)),
    ("mu", lambda v: brennen_winet(v, 0.1, 0.002)),
    ("lambda", lambda v: brennen_winet(1.49, v, 0.002)),
    ("d", lambda v: brennen_winet(1.49, 0.1, v)),
    ("thrust_scale", lambda v: replace(default_config(), thrust_scale=v)),
    ("tol_force", lambda v: OracleSettings(tol_force=v)),
    ("tol_u", lambda v: OracleSettings(tol_u=v)),
]

#: values that order against no number
NOT_NUMBERS = st.one_of(st.text(), st.none(), st.binary(),
                        st.tuples(st.integers()), st.lists(st.integers()),
                        st.dictionaries(st.text(), st.integers()),
                        st.complex_numbers())


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

    @pytest.mark.parametrize("A, lam, error", [
        (0.0075, 10**400, NumericalError),  # ints beyond double range
        (3, 7, None),                       # ints compare as their floats
        (1, 2, ParameterError),
        (10**400, 10**400, NumericalError),
        (1.797e308, math.inf, None),        # lambda/2 is infinite
        (math.inf, math.inf, ParameterError),
        (0.0, 5e-324, ParameterError),      # lambda/2 rounds to 0
    ], ids=["int-lambda-beyond-doubles", "small-ints", "int-A-at-half",
            "ints-beyond-doubles", "largest-float-A", "infinite-A",
            "subnormal-lambda"])
    def test_amplitude_below_half_the_wavelength(self, A, lam, error):
        if error is None:
            spec = flag(A=A, lam=lam)
            assert (type(spec.A), type(spec.lam)) == (float, float)
        elif error is NumericalError:
            with pytest.raises(NumericalError, match=(
                    "^floating-point overflow: the inputs lie beyond"
                    " double-precision range$")):
                flag(A=A, lam=lam)
        else:
            with pytest.raises(ParameterError, match=(
                    r"^A: must satisfy 0 <= A < lambda/2$")):
                flag(A=A, lam=lam)

    @pytest.mark.parametrize("build, message", [
        (lambda: FluidMedium(mu="x"), "mu: must be a number, got 'x'"),
        (lambda: FluidMedium(rho=None), "rho: must be a number, got None"),
        (lambda: BodyGeometry(a="x"), "a: must be a number, got 'x'"),
        (lambda: BodyGeometry(mass=[1]), "mass: must be a number, got [1]"),
        (lambda: flag(L="x"), "L: must be a number, got 'x'"),
        (lambda: flag(lam="x"), "lambda: must be a number, got 'x'"),
        (lambda: flag(f="x"), "f: must be a number, got 'x'"),
        (lambda: flag(A="x"), "A: must be a number, got 'x'"),
        (lambda: flag(d_membrane="x"),
         "d_membrane: must be a number, got 'x'"),
        (lambda: flag(n=1j), "n: must be a number, got 1j"),
        (lambda: replace(default_config(), thrust_scale="x"),
         "thrust_scale: must be a number, got 'x'"),
        (lambda: CompositeDrag("x", 1.0), "K_N: must be a number, got 'x'"),
        (lambda: CompositeDrag(1.0, None), "K_L: must be a number, got None"),
        (lambda: with_params(default_config(), {"L": "x"}),
         "L: must be a number, got 'x'"),
        # the first failing check in check order names its field
        (lambda: FluidMedium(mu="x", rho="y"),
         "mu: must be a number, got 'x'"),
        (lambda: flag(L="x", lam="y"), "L: must be a number, got 'x'"),
        (lambda: flag(A="x", f="y"), "f: must be a number, got 'y'"),
        (lambda: flag(L=-1.0, lam="x"), "L: must be >= 0"),
        (lambda: flag(A=0.05, w="x"), "A: must satisfy 0 <= A < lambda/2"),
        (lambda: CompositeDrag(-1.0, "x"), "K_N: must be > 0"),
        (lambda: CompositeDrag(1.0, 1.0).scaled("x"),
         "factor: must be a number, got 'x'"),
        (lambda: brennen_winet("x", 0.1, 0.002),
         "mu: must be a number, got 'x'"),
        (lambda: brennen_winet(1.0, None, 0.002),
         "lambda: must be a number, got None"),
        (lambda: brennen_winet(1.0, 0.1, "x"), "d: must be a number, got 'x'"),
        (lambda: brennen_winet(-1.0, "x", 0.002), "mu: must be > 0"),
        (lambda: amplitude_for_length("x"), "L: must be a number, got 'x'"),
        (lambda: amplitude_for_length((1, 2)),
         "L: must be a number, got (1, 2)"),
        # a name that is no string, hashable or not, is an unknown name
        (lambda: heatmap(default_config(), (0, 1), (0, 1), (2, 2),
                         output=[]), "output: unknown output []"),
        (lambda: heatmap(default_config(), (0, 1), (0, 1), (2, 2),
                         backend={}), f"backend: must be one of {BACKENDS}"),
        (lambda: SweepSpec([], 0, 1, 3),
         f"axis: must be one of {sorted(AXIS_COLUMNS)}"),
        (lambda: SweepSpec("f1", 0, 1, 3, backend=[]),
         f"backend: must be one of {BACKENDS}"),
        (lambda: SweepSpec("L", 0, 1, 3, coupling=5),
         "coupling: must be a mapping, got 5"),
        (lambda: SweepSpec("L", 0, 1, 3, coupling=[(0.1, 0.004)]),
         "coupling: must be a mapping, got [(0.1, 0.004)]"),
        (lambda: with_params(default_config(), 5),
         "values: must be a mapping, got 5"),
        (lambda: with_params(default_config(), [("L", 0.1)]),
         "values: must be a mapping, got [('L', 0.1)]"),
        (lambda: fit_thrust_scale(builtin_dataset(), smooth_config(),
                                  coupling=5),
         "coupling: must be a mapping, got 5"),
        (lambda: point_config(smooth_config(), builtin_dataset()[0],
                              coupling=[(0.1, 0.004)]),
         "coupling: must be a mapping, got [(0.1, 0.004)]"),
        # a knot that is no number, a length or an amplitude
        (lambda: amplitude_for_length(0.08, {"a": 0.004}),
         "amplitude table: must be a number, got 'a'"),
        (lambda: amplitude_for_length(0.08, {0.065: None}),
         "amplitude table: must be a number, got None"),
        (lambda: fit_thrust_scale(builtin_dataset(), smooth_config(),
                                  coupling={0.065: 0.004, 0.1: "x"}),
         "amplitude table: must be a number, got 'x'"),
        (lambda: sweep(smooth_config(),
                       SweepSpec("L", 0.05, 0.1, 3, coupling={"a": 0.004})),
         "sweep point L_m=0.05: amplitude table: must be a number, got 'a'"),
    ])
    def test_field_not_a_number(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()

    @given(st.sampled_from(BOUNDED), NOT_NUMBERS)
    def test_every_bounded_argument_names_a_non_number(self, bounded, value):
        name, build = bounded
        with pytest.raises(ParameterError) as raised:
            build(value)
        assert str(raised.value) == f"{name}: must be a number, got {value!r}"

    @pytest.mark.parametrize("build", [
        lambda: CompositeDrag(10**400, 1.0),
        lambda: CompositeDrag(1.0, 10**400),
        lambda: CompositeDrag(10**400, 1),
        lambda: CompositeDrag(1, 10**400),
        lambda: CompositeDrag(10**400, 10**400),
        lambda: CompositeDrag(1.0, 1.0).scaled(10**400),
        lambda: brennen_winet(10**400, 0.1, 0.002),
    ], ids=["coefficient", "tangential", "normal-with-int",
            "tangential-with-int", "two-ints", "factor", "viscosity"])
    def test_integer_beyond_double_range_is_a_numerical_error(self, build):
        with pytest.raises(NumericalError, match=(
                "^floating-point overflow: the inputs lie beyond"
                " double-precision range$")):
            build()

    @pytest.mark.parametrize("build, error, message", [
        (lambda: CompositeDrag(1e-320, 1e300), NumericalError,
         "floating-point overflow"),
        (lambda: CompositeDrag(1e-300, 10**308), NumericalError,
         "floating-point overflow"),
        # a Fraction converts to the float 0.0, which fails as 0.0 does
        (lambda: CompositeDrag(Fraction(1, 10**400), 1.0), ParameterError,
         "K_N: must be > 0"),
        (lambda: CompositeDrag(Fraction(1, 10**400), Fraction(1)),
         ParameterError, "K_N: must be > 0"),
        (lambda: CompositeDrag(Fraction(1, 10**200), Fraction(10**200)),
         NumericalError, "floating-point overflow"),
        (lambda: CompositeDrag(Decimal("1e-200"), Decimal("1e200")),
         ParameterError, "K_N: must be a number that mixes with floats, got"
                         " Decimal('1E-200')"),
    ], ids=["two-floats", "float-and-int", "fraction-below-doubles",
            "two-fractions-below-doubles", "exact-fraction-ratio",
            "exact-decimal-ratio"])
    def test_coefficients_at_the_edge_of_double_range(self, build, error,
                                                      message):
        if error is NumericalError:
            message += ": the inputs lie beyond double-precision range"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("K_N, K_L", [(Decimal(1), 1.0),
                                          (1.0, Decimal(2))],
                             ids=["decimal-normal", "decimal-tangential"])
    def test_decimal_coefficient_rejected(self, K_N, K_L):
        name, value = ("K_N", K_N) if isinstance(K_N, Decimal) else ("K_L",
                                                                       K_L)
        with pytest.raises(ParameterError, match=re.escape(
                f"{name}: must be a number that mixes with floats, got"
                f" {value!r}")):
            CompositeDrag(K_N, K_L)

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


#: (name in the message, how to set it, the Decimal) of each drag input,
#: then of a length, a frequency and an amplitude
DRAG_INPUTS = [("mu", "fluid", Decimal("1.49")),
               ("lambda", "lam", Decimal("0.1")),
               ("d_membrane", "d_membrane", Decimal("0.002")),
               ("d_hinge", "d_hinge", Decimal("0.002")),
               ("w", "w", Decimal("0.035")), ("h", "h", Decimal("0.016")),
               ("n", "n", Decimal("200.0")), ("L", "L", Decimal("NaN")),
               ("f", "f", Decimal("4.41")), ("A", "A", Decimal("0.0075"))]


class TestDecimalDragInputs:
    """A config input that is a Decimal, which float arithmetic rejects,
    raises one ParameterError naming it where the config is built, not a
    raw TypeError or decimal.InvalidOperation."""

    @pytest.mark.parametrize("name, field, value", DRAG_INPUTS,
                             ids=[name for name, _, _ in DRAG_INPUTS])
    def test_each_solve(self, name, field, value):
        def build():
            if field == "fluid":
                return replace(default_config(), fluid=FluidMedium(mu=value))
            return default_config(**{field: value})
        message = (f"^{name}: must be a number that mixes with floats,"
                   f" got {re.escape(repr(value))}$")
        for call in (lambda cfg: composite_coeffs(cfg.anterior, cfg.fluid),
                     full_solve, oracle_full_solve):
            with pytest.raises(ParameterError, match=message):
                call(build())

    @pytest.mark.parametrize("k, name", enumerate(["mu", "lambda", "d"]))
    def test_brennen_winet(self, k, name):
        args = [1.49, 0.1, 0.002]
        args[k] = Decimal(repr(args[k]))
        with pytest.raises(ParameterError, match=(
                f"^{name}: must be a number that mixes with floats, got"
                f" {re.escape(repr(args[k]))}$")):
            brennen_winet(*args)


def drag_inputs(spec, fluid):
    return (fluid.mu, spec.lam, spec.d_membrane, spec.d_hinge, spec.w,
            spec.h, spec.n, 1.0)


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


def reference_coeffs(mu, lam, d_membrane, d_hinge, w, h, n, scale):
    """_composite_coeffs as CompositeDrags form it, one per step: the
    membrane and hinge drags of brennen_winet, their sum times w, then
    that drag scaled."""
    membrane = brennen_winet(mu, lam, d_membrane)
    K_N, K_L = membrane.K_N, membrane.K_L
    if n * h > 0:
        hinge = brennen_winet(mu, lam, d_hinge)
        K_N, K_L = K_N + n * h * hinge.K_L, K_L + n * h * hinge.K_N
    return CompositeDrag(K_N=w * K_N, K_L=w * K_L).scaled(scale)


def drag_outcome(fn, *args):
    """The bits of K_N, K_L and gamma that ``fn(*args)`` returns, or the
    type and message of what it raises."""
    try:
        return drag_bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def ulps_from(value, k):
    """The float ``k`` steps above ``value`` (below it for k < 0)."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.inf if k > 0 else 0.0)
    return value


@st.composite
def extreme_drag_inputs(draw):
    """(mu, lambda, d_membrane, d_hinge, w, h, n, scale), each valid for
    its object: mu random or at 5e-324, 1e300 or 1e308; diameters at which
    4*lambda/d lies at the slender-body pole e^2.90, a few ulps from it,
    anywhere up to past it, or overflows (d = 5e-324, or lambda near the
    largest float); n*h 0, random, 1e300 or overflowing; the hinge's
    diameter the membrane's or drawn alike; w random or 5e-324; the scale
    log-uniform from 1e-300 to 1e300."""
    def rare(usual, *extremes):
        """``usual`` in about 3 draws of 4, else one of ``extremes``."""
        return st.integers(0, 3).flatmap(
            lambda k: usual if k else st.sampled_from(extremes))

    mu = draw(rare(st.floats(0.01, 10.0), 5e-324, 1e300, 1e308))
    lam = draw(rare(st.floats(1e-3, 1.0), 1.7e308))
    # the d at which ln(4*lambda/d) = 2.90, finite at the largest lambda
    pole = 4.0 * (lam / math.exp(core.SLENDER_LOG_LIMIT))
    diameters = st.integers(0, 7).flatmap(lambda k: (
        st.floats(1e-9, 0.99).map(lambda r: r * pole) if k > 2
        else st.integers(-3, 3).map(lambda j: ulps_from(pole, j)) if k
        else st.sampled_from((1.5 * pole, 5e-324))))
    d_membrane = draw(diameters)
    d_hinge = draw(st.one_of(st.just(d_membrane), diameters))
    n, h = draw(rare(st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 0.05)),
                     (0.0, 0.016), (200.0, 0.0), (1e300, 1.0),
                     (1e300, 1e300)))
    w = draw(rare(st.floats(1e-3, 0.1), 5e-324))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    return mu, lam, d_membrane, d_hinge, w, h, n, scale


#: the diameter at which ln(4*lambda/d) = 2.90 at lambda = 0.1
POLE = 4.0 * (0.1 / math.exp(core.SLENDER_LOG_LIMIT))


class TestCompositeCoeffsInFloats:
    """_composite_coeffs forms its drag in floats and builds one
    CompositeDrag; every drag or error is the one that building a
    CompositeDrag at each step gives."""

    # each fails at one step's check alone, where a later check would
    # raise another error: at w = 5e-324 K_L underflows where K_N does
    # only once scaled by 0.1; K_L of a thin membrane at mu = 5e-324
    # underflows; K_N of a hinge at the pole overflows; and K_L of a thin
    # hinge at mu = 5e-324 underflows
    @example((0.5, 0.1, 7.4e-6, 7.4e-6, 5e-324, 0.016, 0.0, 0.1))
    @example((5e-324, 0.1, 1e-9, 0.9 * POLE, 0.035, 0.016, 200.0, 1.0))
    @example((1e300, 0.1, 0.05 * 0.1, ulps_from(POLE, -1), 0.035, 0.016,
              200.0, 1.0))
    @example((5e-324, 0.1, 0.9 * POLE, 1e-9, 0.035, 0.016, 200.0, 1.0))
    @given(extreme_drag_inputs())
    def test_equals_a_drag_built_at_each_step(self, inputs):
        assert drag_outcome(core._composite_coeffs.__wrapped__,
                            *inputs) == drag_outcome(reference_coeffs,
                                                     *inputs)

    def test_one_drag_built(self, monkeypatch):
        built = []
        original = CompositeDrag.__post_init__

        def counted(drag):
            built.append(drag)
            original(drag)

        monkeypatch.setattr(CompositeDrag, "__post_init__", counted)
        for d_hinge in (0.002, 0.003):
            drag = core._composite_coeffs.__wrapped__(
                1.49, 0.1, 0.002, d_hinge, 0.035, 0.016, 200.0, 2.0)
            assert built == [drag]
            built.clear()


def reynolds_number(U):
    """Re on the 0.07 m body diameter of the default swimmer in glycerine."""
    return SolveResult._make(_fields(_body(default_config()), U, 0.0, 0.0,
                                     1.0, 1.0)).Re


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
