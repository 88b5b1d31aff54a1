"""Single-fault boundary property: every input that passes validation
solves to finite fields or fails with one typed BiflagError.

Each case changes one validated field of a valid config to an extreme
value. The config either fails to build, or each backend (and the
closed form's speed alone, solve_velocity) returns a result
whose fields are all finite (CoT excepted: it is documented to be
infinite when the flagella dissipate power at zero speed), or raises a
BiflagError. A raw Python exception or a silent inf/nan fails the case.
The same holds for both beat frequencies drawn up to 1e300 Hz.
"""

import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from biflag.calibrate import (
    DesignBounds,
    builtin_dataset,
    fit_thrust_scale,
    model_speed,
    optimize_design,
    point_config,
)
from biflag.cli import run
from biflag.closed_form import full_solve, solve_velocity
from biflag.config_io import DEFAULTS, config_to_dict
from biflag.errors import (
    BiflagError,
    NumericalError,
    ParameterError,
    SlenderBodyError,
)
from biflag.oracle import flagellum_averages, oracle_full_solve
from biflag.presets import default_config, smooth_config, with_params
from biflag.sweep import BACKENDS, SweepSpec, heatmap, sweep

from conftest import random_config, reference_configs

#: (owner, field): owner "flagella" sets the field on both flagella
FIELDS = (
    [("fluid", "mu"), ("fluid", "rho"), ("body", "a"), ("body", "mass"),
     ("config", "thrust_scale")]
    + [("flagella", name) for name in
       ("L", "A", "lam", "f", "d_membrane", "d_hinge", "w", "h", "n")])

#: 10**400 is an int beyond double range, which a config rejects where
#: it converts the int to a float
EXTREMES = (0.0, 5e-324, 1e-300, 1e300, 1.797e308, 10**400)


def with_field(cfg, owner, name, value):
    if owner == "config":
        return replace(cfg, **{name: value})
    if owner == "flagella":
        return replace(cfg,
                       anterior=replace(cfg.anterior, **{name: value}),
                       posterior=replace(cfg.posterior, **{name: value}))
    return replace(cfg, **{owner: replace(getattr(cfg, owner),
                                          **{name: value})})


def values_for(cfg, field):
    if field == ("flagella", "A"):
        # the largest amplitude that validation admits
        return EXTREMES + (math.nextafter(cfg.anterior.lam / 2, 0.0),)
    return EXTREMES


def check_solves(cfg, *context):
    """Each backend's result is finite but for CoT, or a BiflagError."""
    for solve in (full_solve, oracle_full_solve, solve_velocity):
        try:
            result = solve(cfg)
        except BiflagError:
            continue
        if solve is solve_velocity:
            fields = {"U_X": result}
        else:
            fields = {key: v for key, v in result._asdict().items()
                      if key != "CoT"}
        assert all(map(math.isfinite, fields.values())), (
            solve.__name__, *context, fields)


def check_single_fault(base, owner, name, value):
    try:
        cfg = with_field(base, owner, name, value)
    except BiflagError:
        return  # rejected where the config is built
    check_solves(cfg, name, value)


@pytest.mark.parametrize("solve", [full_solve, oracle_full_solve,
                                   solve_velocity])
def test_underflowed_slender_ratio(solve):
    # 4*lambda/d underflows to 0: past the slender-body pole, not a
    # math domain error
    cfg = default_config(lam=1e-320, A=0.0, d_membrane=1e300)
    with pytest.raises(SlenderBodyError, match="slender-body validity"):
        solve(cfg)


@pytest.mark.parametrize("solve", [full_solve, oracle_full_solve,
                                   solve_velocity])
def test_overflowed_slender_ratio(solve):
    # 4*lambda/d overflows to inf: a numerical failure, not K_N = 0
    cfg = default_config(lam=1.797e308, d_membrane=5e-324, n=0.0)
    with pytest.raises(NumericalError,
                       match=r"non-finite ln\(4\*lambda/d\) \(inf\): the inputs"
                             " lie beyond double-precision range"):
        solve(cfg)


@pytest.mark.parametrize("solve", [full_solve, oracle_full_solve,
                                   solve_velocity])
@pytest.mark.parametrize("key", ["L", "lambda", "f_sym"])
def test_integer_beyond_double_range(solve, key):
    # the spec rejects it where it converts it to a float, so no backend
    # sees it
    with pytest.raises(NumericalError, match="^floating-point overflow: the"
                                             " inputs lie beyond"):
        solve(with_params(smooth_config(), {key: 10**400}))


@pytest.mark.parametrize("key", ["f2", "lambda"])
def test_integer_beyond_double_range_on_a_frequency_grid(key):
    # rejected where the config is built, before any grid
    with pytest.raises(NumericalError, match="floating-point overflow"):
        sweep(with_params(smooth_config(), {key: 10**400}),
              SweepSpec("f1", 0.0, 1.0, 3))
    if key == "lambda":
        with pytest.raises(NumericalError, match="floating-point overflow"):
            heatmap(with_params(smooth_config(), {key: 10**400}),
                    (0.0, 1.0), (1.0, 2.0), (3, 3))


@pytest.mark.parametrize("preset", [default_config, smooth_config],
                         ids=["default", "smooth"])
@pytest.mark.parametrize("field", FIELDS, ids=[f"{o}.{n}" for o, n in FIELDS])
def test_presets(preset, field):
    base = preset()
    for value in values_for(base, field):
        check_single_fault(base, *field, value)


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), field=st.sampled_from(FIELDS))
def test_random_configs(seed, field):
    base = random_config(random.Random(seed))
    for value in values_for(base, field):
        check_single_fault(base, *field, value)


#: log10 of a beat frequency in Hz: from 1e-3 up to 1e300
LOG_FREQUENCY = st.floats(-3.0, 300.0)


@settings(max_examples=200)
@given(cfg=reference_configs(), log_f1=LOG_FREQUENCY, log_f2=LOG_FREQUENCY)
def test_frequencies_up_to_double_range(cfg, log_f1, log_f2):
    cfg = with_params(cfg, {"f1": 10.0 ** log_f1, "f2": 10.0 ** log_f2})
    check_solves(cfg, cfg.anterior.f, cfg.posterior.f)
    # not range-checked, so an infinite Q near the overflow edge is
    # allowed, but no raw float error
    for k in (1, 2):
        try:
            flagellum_averages(cfg, k)
        except BiflagError:
            pass


#: ints from 2**64 up: np.linspace once made object arrays of such grid
#: ends, and raised a raw UFuncTypeError
BEYOND_INT64 = (2 ** 64, 10 ** 30, 10 ** 300, 10 ** 400)


@pytest.mark.parametrize("value", BEYOND_INT64)
@pytest.mark.parametrize("field", ["a", "L at a = 0"])
def test_static_flagellum_with_an_int_beyond_int64(field, value):
    cfg = with_params(smooth_config(), {"f1": 0.0})
    if field == "L at a = 0":
        cfg = with_field(cfg, "body", "a", 0)
    owner, name = ("body", "a") if field == "a" else ("flagella", "L")
    if value >= 2 ** 1024:  # beyond double range: rejected where built
        with pytest.raises(NumericalError, match="floating-point overflow"):
            with_field(cfg, owner, name, value)
        return
    cfg = with_field(cfg, owner, name, value)
    assert type(getattr(cfg.body if owner == "body" else cfg.anterior,
                        name)) is float
    check_solves(cfg, field, value)
    for k in (1, 2):
        try:
            averages = flagellum_averages(cfg, k)
        except BiflagError:
            continue
        assert all(map(math.isfinite, averages)), (k, averages)
    try:
        table = sweep(cfg, SweepSpec("f2", 0.0, 2.0, 3, "oracle"))
    except BiflagError:
        return
    for row in table.rows:
        assert all(map(math.isfinite, row[:6] + row[7:])), row  # not CoT


def test_static_flagellum_with_fraction_geometry():
    # a Fraction a and lambda are stored as floats, as an int is; numpy
    # once made object arrays of them and raised a TypeError
    cfg = with_params(smooth_config(), {"f1": 0.0, "lambda": Fraction(1, 10)})
    cfg = with_field(cfg, "body", "a", Fraction(7, 200))
    check_solves(cfg)
    assert math.isfinite(flagellum_averages(cfg, 1).D)


def field_of(cfg, owner, name):
    """The value of a field that with_field sets, the anterior's for a
    flagellum field."""
    if owner == "config":
        return getattr(cfg, name)
    return getattr(cfg.anterior if owner == "flagella" else
                   getattr(cfg, owner), name)


def outcome(build, solve=None):
    """The bits of what ``solve(build())`` returns, or the class and
    message of what it raises; with no ``solve``, of build() alone."""
    try:
        cfg = build()
        if solve is None:
            return "built"
        return [float.hex(value) for value in solve(cfg)]
    except BiflagError as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), field=st.sampled_from(FIELDS),
       kind=st.sampled_from(["rounded int", "int", "Fraction"]),
       big=st.integers(0, 2 ** 53 - 1))
def test_equal_numbers_give_equal_results(seed, field, kind, big):
    # every field is stored as a float, so a number equal to a float
    # (an int below 2**53, or any Fraction of one) gives its bits
    base = random_config(random.Random(seed))
    value = field_of(base, *field)
    if kind == "Fraction":
        number = Fraction(value)
    else:
        number = round(value) if kind == "rounded int" else big
        value = float(number)
    assert value == number

    def exact():
        return with_field(base, *field, number)

    def floats():
        return with_field(base, *field, value)

    assert outcome(exact) == outcome(floats)
    if outcome(floats) != "built":
        return
    assert type(field_of(exact(), *field)) is float
    assert exact() == floats()
    for solve in (full_solve, oracle_full_solve):
        assert outcome(exact, solve) == outcome(floats, solve), solve


#: each entry point that takes a config, called with ``cfg``
CONFIG_CALLS = {
    "full_solve": full_solve,
    "solve_velocity": solve_velocity,
    "oracle_full_solve": oracle_full_solve,
    "flagellum_averages": lambda cfg: flagellum_averages(cfg, 1),
    "sweep": lambda cfg: sweep(cfg, SweepSpec("f1", 0.0, 1.0, 3)),
    "heatmap": lambda cfg: heatmap(cfg, (0.0, 1.0), (0.0, 1.0), (2, 2)),
    "with_params": lambda cfg: with_params(cfg, {"f1": 1.0}),
    "point_config": lambda cfg: point_config(cfg, builtin_dataset()[0]),
    "model_speed": lambda cfg: model_speed(cfg, builtin_dataset()[0]),
    "fit_thrust_scale": lambda cfg: fit_thrust_scale(builtin_dataset(), cfg),
    "optimize_design": lambda cfg: optimize_design(
        cfg, DesignBounds({"f1": (1.0, 2.0)}), "speed"),
    "config_to_dict": config_to_dict,
}


@pytest.mark.parametrize("value", [None, 3, "default",
                                   default_config().anterior])
@pytest.mark.parametrize("call", CONFIG_CALLS.values(), ids=CONFIG_CALLS)
def test_config_that_is_not_a_robot_config(call, value):
    with pytest.raises(ParameterError, match=(
            f"^cfg: must be a RobotConfig, got {re.escape(repr(value))}$")):
        call(value)


#: a call with an argument of the wrong kind, by id, and the error's message
WRONG_KINDS = {
    "DesignBounds array": (
        lambda: DesignBounds(np.array([1.0, 2.0])),
        "intervals: must be a mapping, got array([1., 2.])"),
    "optimize_design None": (
        lambda: optimize_design(smooth_config(), None, "speed"),
        "bounds: must be a DesignBounds, got None"),
    "optimize_design dict": (
        lambda: optimize_design(smooth_config(), {"f1": (1.0, 2.0)}, "speed"),
        "bounds: must be a DesignBounds, got {'f1': (1.0, 2.0)}"),
    "sweep None": (lambda: sweep(smooth_config(), None),
                   "spec: must be a SweepSpec, got None"),
    "sweep dict": (lambda: sweep(smooth_config(), {"axis": "f1"}),
                   "spec: must be a SweepSpec, got {'axis': 'f1'}"),
}


@pytest.mark.parametrize("call, message", WRONG_KINDS.values(),
                         ids=WRONG_KINDS)
def test_argument_of_the_wrong_kind(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


#: (section, key) of every config-file key; a top-level key is its own
#: section
CONFIG_KEYS = [(section, key) for section, value in DEFAULTS.items()
               for key in (value if isinstance(value, dict) else [section])]


@pytest.mark.parametrize("section, key", CONFIG_KEYS,
                         ids=[f"{s}.{k}" if s != k else k
                              for s, k in CONFIG_KEYS])
def test_cli_single_fault(section, key, tmp_path, capsys):
    """Each config key set to each extreme, with a static anterior
    flagellum so the oracle's trapezoid runs: solve prints JSON, or one
    error line and exits 1 or 2, on both backends."""
    path = tmp_path / "cfg.yaml"
    for value in EXTREMES:
        doc = {"anterior": {"f": 0}}
        if section == key:
            doc[key] = value
        else:
            doc.setdefault(section, {})[key] = value
        path.write_text(yaml.safe_dump(doc))
        for backend in BACKENDS:
            code = run(["solve", "--backend", backend, "--config", str(path)])
            out, err = capsys.readouterr()
            context = (section, key, value, backend, code, err)
            if code == 0:
                assert json.loads(out) and not err, context
            else:
                assert code in (1, 2) and not out, context
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (
                    context)
                assert "Traceback" not in err, context
