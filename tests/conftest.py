import random
from dataclasses import replace

import pytest
from hypothesis import strategies as st

from biflag.closed_form import RobotConfig
from biflag.core import ANTERIOR, POSTERIOR, BodyGeometry, FlagellumSpec, FluidMedium
from biflag.presets import with_params


def random_config(rng: random.Random, scale_range=(0.1, 10.0),
                  allow_zero_body=True) -> RobotConfig:
    """Valid random configuration with identical flagella.

    Covers both drag regimes: hinge-free (gamma < 1) and composite
    (gamma can exceed 1). Diameters stay at most 5% of the wavelength so
    the slender-body log stays comfortably positive.
    """
    lam = rng.uniform(0.03, 0.25)
    beta = rng.uniform(0.001, 0.14)
    if allow_zero_body and rng.random() < 0.15:
        a = 0.0
    else:
        a = rng.uniform(0.005, 0.08)
    if rng.random() < 0.5:
        n, h = 0.0, rng.uniform(0.005, 0.03)
    else:
        n, h = rng.uniform(20.0, 400.0), rng.uniform(0.005, 0.03)
    geometry = dict(
        L=rng.uniform(0.02, 0.3),
        A=beta * lam,
        lam=lam,
        d_membrane=rng.uniform(0.0005, 0.05 * lam),
        d_hinge=rng.uniform(0.0005, 0.05 * lam),
        w=rng.uniform(0.005, 0.08),
        h=h,
        n=n,
    )
    return RobotConfig(
        fluid=FluidMedium(mu=rng.uniform(0.3, 3.0), rho=rng.uniform(500.0, 1500.0)),
        body=BodyGeometry(a=a, mass=rng.uniform(0.05, 1.0)),
        anterior=FlagellumSpec(role=ANTERIOR, f=rng.uniform(0.0, 8.0), **geometry),
        posterior=FlagellumSpec(role=POSTERIOR, f=rng.uniform(0.0, 8.0), **geometry),
        thrust_scale=rng.uniform(*scale_range),
    )


def zero_corner(cfg: RobotConfig) -> RobotConfig:
    """``cfg`` with both flagella of length 0 on a body of radius 0.

    Validation allows this corner; the force balance there is 0 = 0.
    """
    return replace(with_params(cfg, {"L": 0.0}), body=replace(cfg.body, a=0.0))


@st.composite
def reference_configs(draw):
    """random_config, with f = 0 on either flagellum, a = 0, or beta up
    to 0.49 on both, each drawn at random."""
    cfg = random_config(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    values = {}
    if draw(st.booleans()):
        beta = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.49)))
        values["A"] = beta * cfg.anterior.lam
    for key in ("f1", "f2"):
        if draw(st.integers(0, 3)) == 0:
            values[key] = 0.0
    cfg = with_params(cfg, values)
    if draw(st.integers(0, 3)) == 0:
        cfg = replace(cfg, body=replace(cfg.body, a=0.0))
    return cfg


@pytest.fixture
def rng():
    return random.Random(20260810)
