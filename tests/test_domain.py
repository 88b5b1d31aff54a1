"""Single-fault boundary property: every input that passes validation
solves to finite fields or fails with one typed BiflagError.

Each case changes one validated field of a valid config to an extreme
value. The config either fails to build, or each backend (and the
closed form's speed alone, solve_velocity) returns a result
whose fields are all finite (CoT excepted: it is documented to be
infinite when the flagella dissipate power at zero speed), or raises a
BiflagError. A raw Python exception or a silent inf/nan fails the case.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from biflag.closed_form import full_solve, solve_velocity
from biflag.errors import BiflagError, SlenderBodyError
from biflag.oracle import oracle_full_solve
from biflag.presets import default_config, smooth_config

from conftest import random_config

#: (owner, field): owner "flagella" sets the field on both flagella
FIELDS = (
    [("fluid", "mu"), ("fluid", "rho"), ("body", "a"), ("body", "mass"),
     ("config", "thrust_scale")]
    + [("flagella", name) for name in
       ("L", "A", "lam", "f", "d_membrane", "d_hinge", "w", "h", "n")])

EXTREMES = (0.0, 5e-324, 1e-300, 1e300, 1.797e308)


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


def check_single_fault(base, owner, name, value):
    try:
        cfg = with_field(base, owner, name, value)
    except BiflagError:
        return  # rejected where the config is built
    for solve in (full_solve, oracle_full_solve, solve_velocity):
        try:
            result = solve(cfg)
        except BiflagError:
            continue
        if solve is solve_velocity:
            fields = {"U_X": result}
        else:
            fields = {key: v for key, v in vars(result).items() if key != "CoT"}
        assert all(map(math.isfinite, fields.values())), (
            solve.__name__, name, value, fields)


@pytest.mark.parametrize("solve", [full_solve, oracle_full_solve,
                                   solve_velocity])
def test_underflowed_slender_ratio(solve):
    # 4*lambda/d underflows to 0: past the slender-body pole, not a
    # math domain error
    cfg = default_config(lam=1e-320, A=0.0, d_membrane=1e300)
    with pytest.raises(SlenderBodyError, match="slender-body validity"):
        solve(cfg)


@pytest.mark.parametrize("preset", [default_config, smooth_config],
                         ids=["default", "smooth"])
@pytest.mark.parametrize("field", FIELDS, ids=[f"{o}.{n}" for o, n in FIELDS])
def test_presets(preset, field):
    base = preset()
    for value in values_for(base, field):
        check_single_fault(base, *field, value)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), field=st.sampled_from(FIELDS))
def test_random_configs(seed, field):
    base = random_config(random.Random(seed))
    for value in values_for(base, field):
        check_single_fault(base, *field, value)
