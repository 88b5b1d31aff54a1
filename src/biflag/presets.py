"""Canonical configurations and measured-robot presets.

Two baseline configurations are shipped:

* :func:`default_config` -- the full robot model with composite
  membrane-plus-hinge drag coefficients. Its drag ratio gamma exceeds 1,
  so the signed swimming speed is negative (the hinge lattice dominates
  and reverses the effective anisotropy).
* :func:`smooth_config` -- the same robot with plain slender-filament
  drag (hinge density 0, gamma < 1). This is the baseline used for
  calibration against measured speeds and for design studies, where a
  positive, frequency-increasing speed is the physically observed
  behaviour.
"""

from __future__ import annotations

from typing import Mapping

from .closed_form import RobotConfig, _check_config
from .core import (
    ANTERIOR,
    POSTERIOR,
    BodyGeometry,
    FlagellumSpec,
    FluidMedium,
    _check_finite,
    _check_real,
)
from .errors import ParameterError

#: measured wave amplitude [m] reached by each flagellum length [m];
#: short flagella cannot articulate the full amplitude
AMPLITUDE_BY_LENGTH = {0.065: 0.004, 0.10: 0.006, 0.12: 0.0075}


def amplitude_for_length(L: float, table: dict[float, float] | None = None) -> float:
    """Piecewise-linear amplitude lookup, clamped outside the table range.

    Each knot's own amplitude is returned exactly at its length.
    """
    return _amplitude(_knots(AMPLITUDE_BY_LENGTH if table is None else table,
                             "table"), L)


def _knots(table: Mapping[float, float],
           name: str) -> list[tuple[float, float]]:
    """The (length, amplitude) knots of ``table`` in length order, each
    checked to be a finite number and taken as a float; a grid or a fit
    checks and sorts its table once. A table that is no mapping is named
    as ``name``."""
    if not isinstance(table, Mapping):
        raise ParameterError(f"{name}: must be a mapping, got {table!r}")
    if not table:
        raise ParameterError("amplitude table: must not be empty")
    lengths = [_check_finite("amplitude table", x) for x in table]
    amplitudes = [_check_finite("amplitude table", y) for y in table.values()]
    return sorted(zip(lengths, amplitudes))


def _amplitude(knots: list[tuple[float, float]], L: float) -> float:
    """amplitude_for_length at ``L``, taken as a float (core._real), from
    the _knots of its table."""
    L = _check_real("L", L)
    if L <= knots[0][0]:
        return knots[0][1]
    if L >= knots[-1][0]:
        return knots[-1][1]
    (x0, y0), (x1, y1) = next(segment for segment in zip(knots, knots[1:])
                              if L <= segment[1][0])
    return y0 + (y1 - y0) * (L - x0) / (x1 - x0)


def default_config(**flagellum_overrides) -> RobotConfig:
    """Robot with documented defaults: glycerine, 256 g body, composite drag.

    Keyword overrides are applied to both flagella.
    """
    return RobotConfig(
        fluid=FluidMedium(),
        body=BodyGeometry(),
        anterior=FlagellumSpec(role=ANTERIOR, **flagellum_overrides),
        posterior=FlagellumSpec(role=POSTERIOR, **flagellum_overrides),
    )


def smooth_config(**flagellum_overrides) -> RobotConfig:
    """Default robot with smooth (hinge-free) flagellar drag; gamma < 1.

    The calibration baseline: thrust_scale fitted on this configuration
    absorbs the membrane-width prefactor of the composite coefficients.
    """
    overrides = dict(flagellum_overrides)
    overrides.setdefault("n", 0.0)
    return default_config(**overrides)


#: with_params keys: frequencies, and geometry shared by both flagella
_PARAM_KEYS = frozenset(("f_sym", "f1", "f2", "L", "A", "lambda"))
_GEOMETRY_FIELDS = {"L": "L", "A": "A", "lambda": "lam"}


def with_params(cfg: RobotConfig, values: Mapping[str, float]) -> RobotConfig:
    """``cfg`` with design values applied to its two flagella.

    ``f_sym`` sets both beat frequencies, ``f1`` and ``f2`` the anterior
    and the posterior one (after ``f_sym``), and ``L``, ``A`` and
    ``lambda`` the geometry of both flagella. Each flagellum is rebuilt,
    and so validated, once with all of its new values, so no check sees
    a half-applied design such as a new A against the old lambda. A
    flagellum none of whose values change is kept as it is.
    """
    _check_config(cfg)
    if not isinstance(values, Mapping):
        raise ParameterError(f"values: must be a mapping, got {values!r}")
    if not values.keys() <= _PARAM_KEYS:
        unknown = sorted(set(values) - _PARAM_KEYS)[0]
        raise ParameterError(f"values: unknown parameter {unknown!r}")
    anterior = {_GEOMETRY_FIELDS[key]: value for key, value in values.items()
                if key in _GEOMETRY_FIELDS}
    posterior = dict(anterior)
    if "f_sym" in values:
        anterior["f"] = posterior["f"] = values["f_sym"]
    if "f1" in values:
        anterior["f"] = values["f1"]
    if "f2" in values:
        posterior["f"] = values["f2"]
    # measured: vars() rebuilds faster than dataclasses.replace or fields()
    return RobotConfig(
        cfg.fluid, cfg.body,
        FlagellumSpec(**{**vars(cfg.anterior), **anterior}) if anterior
        else cfg.anterior,
        FlagellumSpec(**{**vars(cfg.posterior), **posterior}) if posterior
        else cfg.posterior,
        cfg.thrust_scale)
