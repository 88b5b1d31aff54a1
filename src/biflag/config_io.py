"""Configuration documents: YAML loading, validation, serialization.

The config file is a YAML mapping with sections ``fluid``, ``body``,
``anterior``, ``posterior``, ``oracle`` and the top-level scalar
``thrust_scale``. Every key is optional (documented defaults apply),
unknown keys are rejected, and every validation error names the
offending key. An empty document yields the all-defaults configuration.
"""

from __future__ import annotations

import csv
import re
from dataclasses import fields
from typing import Any

import yaml

from .closed_form import RobotConfig, _check_config
from .core import (
    ANTERIOR,
    POSTERIOR,
    SLENDER_LOG_LIMIT,
    BodyGeometry,
    FlagellumSpec,
    FluidMedium,
    _check_finite,
    slender_log,
)
from .errors import ConfigError, NumericalError, ParameterError
from .oracle import _DEFAULT_SETTINGS, OracleSettings
from .presets import default_config


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads the YAML 1.2 floats which YAML 1.1 reads
    as strings: an exponent without a sign, or a mantissa without a dot
    (1.0e3, 1e-1). Plain integers stay integers."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _as_number(key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    try:
        return _check_finite(key, value, ConfigError)
    except NumericalError:
        raise ConfigError(f"{key}: must be finite, got an integer beyond"
                          " double-precision range") from None


def _section(name: str, data: dict) -> dict:
    """Defaults of section ``name`` overlaid with the document's values:
    numbers coerced to float, integers left for their dataclass to check."""
    section = data.get(name, {})
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a mapping")
    unknown = set(section) - set(DEFAULTS[name])
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    merged = dict(DEFAULTS[name])
    merged.update(section)
    return {key: value if isinstance(DEFAULTS[name][key], int)
            else _as_number(f"{name}.{key}", value)
            for key, value in merged.items()}


def _build(name: str, cls, **kwargs):
    """``cls(**kwargs)``, its ParameterError re-raised naming the section."""
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{name}.{exc}" if name else str(exc)) from exc


def _flagellum(name: str, data: dict) -> FlagellumSpec:
    """One flagellum section. A diameter at which the slender-body drag
    law's log term reaches its pole is rejected here, naming its key."""
    values = _section(name, data)
    spec = _build(name, FlagellumSpec, role=name, lam=values.pop("lambda"),
                  **values)
    used = [("d_membrane", spec.d_membrane)]
    if spec.n * spec.h > 0:
        used.append(("d_hinge", spec.d_hinge))
    for key, diameter in used:
        if slender_log(spec.lam, diameter) <= SLENDER_LOG_LIMIT:
            raise ConfigError(
                f"slender-body validity violated for key {name}.{key}")
    return spec


def config_from_dict(data: dict | None) -> tuple[RobotConfig, OracleSettings]:
    """Build validated model objects from a parsed config mapping.

    Value constraints are the model dataclasses' own checks; this adds
    only what belongs to the file format.
    """
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError("top level: must be a mapping")
    unknown = set(data) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")

    fluid = _build("fluid", FluidMedium, **_section("fluid", data))
    body = _build("body", BodyGeometry, **_section("body", data))
    thrust_scale = _as_number("thrust_scale", data.get(
        "thrust_scale", DEFAULTS["thrust_scale"]))
    cfg = _build("", RobotConfig, fluid=fluid, body=body,
                 anterior=_flagellum(ANTERIOR, data),
                 posterior=_flagellum(POSTERIOR, data),
                 thrust_scale=thrust_scale)

    oracle = _section("oracle", data)
    u_bracket = (oracle.pop("u_min"), oracle.pop("u_max"))
    if not u_bracket[0] < u_bracket[1]:
        raise ConfigError("oracle.u_min: must be < oracle.u_max")
    return cfg, _build("oracle", OracleSettings, u_bracket=u_bracket, **oracle)


def _read_text(path, kind: str, error: type) -> str:
    """The UTF-8 text of file ``path``, line ends as written, or ``error``
    naming the ``kind`` of file and its path where it cannot be read."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {kind} {path!r}: {exc}") from exc


def _write_csv(path, header, rows) -> None:
    """``header`` and ``rows`` as UTF-8 CSV with LF line ends, each float
    as its repr. The csv module quotes only for LF here, so a row with a
    CR in a field has every field quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in [header, *rows]:
            row = [repr(v) if isinstance(v, float) else v for v in row]
            cr = any(type(v) is str and "\r" in v for v in row)
            (quoted if cr else plain).writerow(row)


def load_config(path) -> tuple[RobotConfig, OracleSettings]:
    """Load and validate a YAML config file. A file that cannot be read or
    is not UTF-8 raises ConfigError, as does one that fails to parse or
    validate."""
    text = _read_text(path, "config file", ConfigError)
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"parse error in {path!r}: {exc}") from exc
    return config_from_dict(data)


def _file_section(obj) -> dict:
    """The fields of a model dataclass under their config-file keys."""
    return {("lambda" if f.name == "lam" else f.name): getattr(obj, f.name)
            for f in fields(obj) if f.name != "role"}


def config_to_dict(cfg: RobotConfig,
                   settings: OracleSettings | None = None) -> dict:
    _check_config(cfg)
    oracle = _file_section(settings or _DEFAULT_SETTINGS)
    oracle["u_min"], oracle["u_max"] = oracle.pop("u_bracket")
    return {
        "fluid": _file_section(cfg.fluid),
        "body": _file_section(cfg.body),
        "anterior": _file_section(cfg.anterior),
        "posterior": _file_section(cfg.posterior),
        "thrust_scale": cfg.thrust_scale,
        "oracle": oracle,
    }


#: the all-defaults document: its keys are the only ones a file may use,
#: and the type of each default is the type its values must have
DEFAULTS: dict[str, Any] = config_to_dict(default_config())


def config_to_yaml(cfg: RobotConfig,
                   settings: OracleSettings | None = None) -> str:
    return yaml.safe_dump(config_to_dict(cfg, settings),
                          sort_keys=True, default_flow_style=False)
