import math

import pytest

from biflag.config_io import (
    config_from_dict,
    config_to_dict,
    config_to_yaml,
    load_config,
)
from biflag.errors import ConfigError
from biflag.oracle import OracleSettings
from biflag.presets import default_config


class TestDefaults:
    def test_empty_document_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg, settings = load_config(path)
        assert cfg == default_config()
        assert settings == OracleSettings()

    def test_empty_dict(self):
        cfg, settings = config_from_dict({})
        assert cfg == default_config()
        assert settings == OracleSettings()

    def test_partial_override(self):
        cfg, _ = config_from_dict({"anterior": {"f": 2.0}})
        assert cfg.anterior.f == 2.0
        assert cfg.posterior.f == 4.41
        assert cfg.fluid.mu == 1.49


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="gravity"):
            config_from_dict({"gravity": 9.81})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="anterior.stiffness"):
            config_from_dict({"anterior": {"stiffness": 2.0}})

    def test_negative_frequency_names_key(self):
        with pytest.raises(ConfigError, match="anterior.f"):
            config_from_dict({"anterior": {"f": -1.0}})

    def test_amplitude_bound_names_key(self):
        with pytest.raises(ConfigError, match="posterior.A"):
            config_from_dict({"posterior": {"A": 0.06}})

    def test_slender_body_violation_message(self):
        with pytest.raises(
                ConfigError,
                match="slender-body validity violated for key anterior.d_membrane"):
            config_from_dict({"anterior": {"d_membrane": 0.03}})

    def test_hinge_diameter_checked_only_when_used(self):
        with pytest.raises(
                ConfigError,
                match="slender-body validity violated for key anterior.d_hinge"):
            config_from_dict({"anterior": {"d_hinge": 0.03}})
        cfg, _ = config_from_dict({"anterior": {"d_hinge": 0.03, "n": 0},
                                   "posterior": {"d_hinge": 0.03, "n": 0}})
        assert cfg.anterior.n == 0.0

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="fluid.mu"):
            config_from_dict({"fluid": {"mu": "thick"}})
        with pytest.raises(ConfigError, match="fluid.mu"):
            config_from_dict({"fluid": {"mu": True}})

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="body.a"):
            config_from_dict({"body": {"a": float("inf")}})

    def test_oracle_settings_validated(self):
        with pytest.raises(ConfigError, match="oracle.n_segments"):
            config_from_dict({"oracle": {"n_segments": 4}})
        with pytest.raises(ConfigError, match="oracle.u_min"):
            config_from_dict({"oracle": {"u_min": 2.0, "u_max": -2.0}})

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("fluid: [mu: {")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")


class TestRoundTrip:
    def test_load_serialize_load_identical(self, tmp_path):
        document = """
fluid: {mu: 2.0}
body: {a: 0.02, mass: 0.3}
anterior: {f: 3.5, L: 0.1}
posterior: {f: 1.25, n: 0}
thrust_scale: 12.5
oracle: {n_segments: 64, n_time: 16}
"""
        path = tmp_path / "config.yaml"
        path.write_text(document)
        cfg1, settings1 = load_config(path)
        path2 = tmp_path / "config2.yaml"
        path2.write_text(config_to_yaml(cfg1, settings1))
        cfg2, settings2 = load_config(path2)
        assert cfg1 == cfg2
        assert settings1 == settings2

    def test_dict_round_trip_of_defaults(self):
        cfg, settings = config_from_dict({})
        again, settings2 = config_from_dict(config_to_dict(cfg, settings))
        assert again == cfg
        assert settings2 == settings


#: one single-fault document per key and failure kind, with the exact
#: message it must raise
CONFIG_MESSAGES = [
    ({'fluid': {'mu': 'x'}},
     "fluid.mu: must be a number, got 'x'"),
    ({'fluid': {'mu': math.inf}},
     'fluid.mu: must be finite, got inf'),
    ({'fluid': {'mu': 0}},
     'fluid.mu: must be > 0'),
    ({'fluid': {'rho': 'x'}},
     "fluid.rho: must be a number, got 'x'"),
    ({'fluid': {'rho': math.inf}},
     'fluid.rho: must be finite, got inf'),
    ({'fluid': {'rho': -1.0}},
     'fluid.rho: must be > 0'),
    ({'fluid': {'bogus': 1}},
     'fluid.bogus: unknown key'),
    ({'fluid': [1]},
     'fluid: must be a mapping'),
    ({'body': {'a': 'x'}},
     "body.a: must be a number, got 'x'"),
    ({'body': {'a': math.inf}},
     'body.a: must be finite, got inf'),
    ({'body': {'a': -1.0}},
     'body.a: must be >= 0'),
    ({'body': {'mass': 'x'}},
     "body.mass: must be a number, got 'x'"),
    ({'body': {'mass': math.inf}},
     'body.mass: must be finite, got inf'),
    ({'body': {'mass': 0}},
     'body.mass: must be > 0'),
    ({'body': {'bogus': 1}},
     'body.bogus: unknown key'),
    ({'body': [1]},
     'body: must be a mapping'),
    ({'anterior': {'L': 'x'}},
     "anterior.L: must be a number, got 'x'"),
    ({'anterior': {'L': math.inf}},
     'anterior.L: must be finite, got inf'),
    ({'anterior': {'L': -1.0}},
     'anterior.L: must be >= 0'),
    ({'anterior': {'A': 'x'}},
     "anterior.A: must be a number, got 'x'"),
    ({'anterior': {'A': math.inf}},
     'anterior.A: must be finite, got inf'),
    ({'anterior': {'A': 0.06}},
     'anterior.A: must satisfy 0 <= A < lambda/2'),
    ({'anterior': {'lambda': 'x'}},
     "anterior.lambda: must be a number, got 'x'"),
    ({'anterior': {'lambda': math.inf}},
     'anterior.lambda: must be finite, got inf'),
    ({'anterior': {'lambda': 0}},
     'anterior.lambda: must be > 0'),
    ({'anterior': {'f': 'x'}},
     "anterior.f: must be a number, got 'x'"),
    ({'anterior': {'f': math.inf}},
     'anterior.f: must be finite, got inf'),
    ({'anterior': {'f': -1.0}},
     'anterior.f: must be >= 0'),
    ({'anterior': {'d_membrane': 'x'}},
     "anterior.d_membrane: must be a number, got 'x'"),
    ({'anterior': {'d_membrane': math.inf}},
     'anterior.d_membrane: must be finite, got inf'),
    ({'anterior': {'d_membrane': 0}},
     'anterior.d_membrane: must be > 0'),
    ({'anterior': {'d_hinge': 'x'}},
     "anterior.d_hinge: must be a number, got 'x'"),
    ({'anterior': {'d_hinge': math.inf}},
     'anterior.d_hinge: must be finite, got inf'),
    ({'anterior': {'d_hinge': 0}},
     'anterior.d_hinge: must be > 0'),
    ({'anterior': {'w': 'x'}},
     "anterior.w: must be a number, got 'x'"),
    ({'anterior': {'w': math.inf}},
     'anterior.w: must be finite, got inf'),
    ({'anterior': {'w': -1.0}},
     'anterior.w: must be > 0'),
    ({'anterior': {'h': 'x'}},
     "anterior.h: must be a number, got 'x'"),
    ({'anterior': {'h': math.inf}},
     'anterior.h: must be finite, got inf'),
    ({'anterior': {'h': -1.0}},
     'anterior.h: must be >= 0'),
    ({'anterior': {'n': 'x'}},
     "anterior.n: must be a number, got 'x'"),
    ({'anterior': {'n': math.inf}},
     'anterior.n: must be finite, got inf'),
    ({'anterior': {'n': -1.0}},
     'anterior.n: must be >= 0'),
    ({'anterior': {'bogus': 1}},
     'anterior.bogus: unknown key'),
    ({'anterior': [1]},
     'anterior: must be a mapping'),
    ({'posterior': {'L': 'x'}},
     "posterior.L: must be a number, got 'x'"),
    ({'posterior': {'L': math.inf}},
     'posterior.L: must be finite, got inf'),
    ({'posterior': {'L': -1.0}},
     'posterior.L: must be >= 0'),
    ({'posterior': {'A': 'x'}},
     "posterior.A: must be a number, got 'x'"),
    ({'posterior': {'A': math.inf}},
     'posterior.A: must be finite, got inf'),
    ({'posterior': {'A': 0.06}},
     'posterior.A: must satisfy 0 <= A < lambda/2'),
    ({'posterior': {'lambda': 'x'}},
     "posterior.lambda: must be a number, got 'x'"),
    ({'posterior': {'lambda': math.inf}},
     'posterior.lambda: must be finite, got inf'),
    ({'posterior': {'lambda': 0}},
     'posterior.lambda: must be > 0'),
    ({'posterior': {'f': 'x'}},
     "posterior.f: must be a number, got 'x'"),
    ({'posterior': {'f': math.inf}},
     'posterior.f: must be finite, got inf'),
    ({'posterior': {'f': -1.0}},
     'posterior.f: must be >= 0'),
    ({'posterior': {'d_membrane': 'x'}},
     "posterior.d_membrane: must be a number, got 'x'"),
    ({'posterior': {'d_membrane': math.inf}},
     'posterior.d_membrane: must be finite, got inf'),
    ({'posterior': {'d_membrane': 0}},
     'posterior.d_membrane: must be > 0'),
    ({'posterior': {'d_hinge': 'x'}},
     "posterior.d_hinge: must be a number, got 'x'"),
    ({'posterior': {'d_hinge': math.inf}},
     'posterior.d_hinge: must be finite, got inf'),
    ({'posterior': {'d_hinge': 0}},
     'posterior.d_hinge: must be > 0'),
    ({'posterior': {'w': 'x'}},
     "posterior.w: must be a number, got 'x'"),
    ({'posterior': {'w': math.inf}},
     'posterior.w: must be finite, got inf'),
    ({'posterior': {'w': -1.0}},
     'posterior.w: must be > 0'),
    ({'posterior': {'h': 'x'}},
     "posterior.h: must be a number, got 'x'"),
    ({'posterior': {'h': math.inf}},
     'posterior.h: must be finite, got inf'),
    ({'posterior': {'h': -1.0}},
     'posterior.h: must be >= 0'),
    ({'posterior': {'n': 'x'}},
     "posterior.n: must be a number, got 'x'"),
    ({'posterior': {'n': math.inf}},
     'posterior.n: must be finite, got inf'),
    ({'posterior': {'n': -1.0}},
     'posterior.n: must be >= 0'),
    ({'posterior': {'bogus': 1}},
     'posterior.bogus: unknown key'),
    ({'posterior': [1]},
     'posterior: must be a mapping'),
    ({'oracle': {'n_segments': 'x'}},
     "oracle.n_segments: must be an integer, got 'x'"),
    ({'oracle': {'n_segments': 0.06}},
     'oracle.n_segments: must be an integer, got 0.06'),
    ({'oracle': {'n_segments': 15}},
     'oracle.n_segments: must be >= 16'),
    ({'oracle': {'n_time': 'x'}},
     "oracle.n_time: must be an integer, got 'x'"),
    ({'oracle': {'n_time': 0.06}},
     'oracle.n_time: must be an integer, got 0.06'),
    ({'oracle': {'n_time': 7}},
     'oracle.n_time: must be >= 8'),
    ({'oracle': {'u_min': 'x'}},
     "oracle.u_min: must be a number, got 'x'"),
    ({'oracle': {'u_min': math.inf}},
     'oracle.u_min: must be finite, got inf'),
    ({'oracle': {'u_min': 1.0}},
     'oracle.u_min: must be < oracle.u_max'),
    ({'oracle': {'u_max': 'x'}},
     "oracle.u_max: must be a number, got 'x'"),
    ({'oracle': {'u_max': math.inf}},
     'oracle.u_max: must be finite, got inf'),
    ({'oracle': {'u_max': -2.0}},
     'oracle.u_min: must be < oracle.u_max'),
    ({'oracle': {'tol_force': 'x'}},
     "oracle.tol_force: must be a number, got 'x'"),
    ({'oracle': {'tol_force': math.inf}},
     'oracle.tol_force: must be finite, got inf'),
    ({'oracle': {'tol_force': 0}},
     'oracle.tol_force: must be > 0'),
    ({'oracle': {'tol_u': 'x'}},
     "oracle.tol_u: must be a number, got 'x'"),
    ({'oracle': {'tol_u': math.inf}},
     'oracle.tol_u: must be finite, got inf'),
    ({'oracle': {'tol_u': 0}},
     'oracle.tol_u: must be > 0'),
    ({'oracle': {'bogus': 1}},
     'oracle.bogus: unknown key'),
    ({'oracle': [1]},
     'oracle: must be a mapping'),
    ({'thrust_scale': 'x'},
     "thrust_scale: must be a number, got 'x'"),
    ({'thrust_scale': math.inf},
     'thrust_scale: must be finite, got inf'),
    ({'thrust_scale': 0},
     'thrust_scale: must be > 0'),
    ({'fluid': {'mu': True}},
     'fluid.mu: must be a number, got True'),
    ({'body': {'a': None}},
     'body.a: must be a number, got None'),
    ({'fluid': {'rho': math.nan}},
     'fluid.rho: must be finite, got nan'),
    ({'anterior': {'d_membrane': 0.03}},
     'slender-body validity violated for key anterior.d_membrane'),
    ({'anterior': {'d_hinge': 0.03}},
     'slender-body validity violated for key anterior.d_hinge'),
    ({'posterior': {'d_membrane': 0.03}},
     'slender-body validity violated for key posterior.d_membrane'),
    ({'posterior': {'d_hinge': 0.03}},
     'slender-body validity violated for key posterior.d_hinge'),
    ({'anterior': {'lambda': 1e-320, 'A': 0.0, 'd_membrane': 1e300}},
     'slender-body validity violated for key anterior.d_membrane'),
    ({'anterior': {'lambda': 0.01}},
     'anterior.A: must satisfy 0 <= A < lambda/2'),
    ({'gravity': 9.81},
     'gravity: unknown key'),
    ([1],
     'top level: must be a mapping'),
    ({'anterior': {'w': 0}},
     'anterior.w: must be > 0'),
    ({'posterior': {'w': 0}},
     'posterior.w: must be > 0'),
]


@pytest.mark.parametrize("document, message", CONFIG_MESSAGES)
def test_config_error_message_is_exact(document, message):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(document)
    assert str(excinfo.value) == message


#: YAML 1.2 number forms that a config file may use, and the value each
#: loads as: an exponent needs no sign and a mantissa no dot, while a
#: plain integer stays an integer
YAML_NUMBERS = [
    ("anterior: {lambda: 1.0e3}", "anterior", "lam", 1000.0),
    ("anterior: {lambda: 1e-1}", "anterior", "lam", 0.1),
    ("posterior: {lambda: 1.0e+3}", "posterior", "lam", 1000.0),
    ("fluid: {mu: 1E0}", "fluid", "mu", 1.0),
    ("fluid: {rho: +1.5e3}", "fluid", "rho", 1500.0),
    ("body: {a: .5e-1}", "body", "a", 0.05),
    ("body: {mass: 3.e-1}", "body", "mass", 0.3),
    ("thrust_scale: 2e1", None, "thrust_scale", 20.0),
    ("oracle: {n_segments: 512}", "oracle", "n_segments", 512),
    ("oracle: {u_max: 1e0}", "oracle", "u_bracket", (-1.0, 1.0)),
]


@pytest.mark.parametrize("document, section, key, value", YAML_NUMBERS)
def test_yaml_number_forms(tmp_path, document, section, key, value):
    path = tmp_path / "numbers.yaml"
    path.write_text(document + "\n")
    cfg, settings = load_config(path)
    owner = (cfg if section is None else settings if section == "oracle"
             else getattr(cfg, section))
    loaded = getattr(owner, key)
    assert loaded == value
    assert type(loaded) is type(value)


def test_integer_key_rejects_exponent_form(tmp_path):
    # 5e2 is a float in YAML 1.2, and a quoted number stays a string
    path = tmp_path / "numbers.yaml"
    path.write_text("oracle: {n_segments: 5e2}\n")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == ("oracle.n_segments: must be an integer,"
                                 " got 500.0")
    path.write_text("fluid: {mu: '1e0'}\n")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == "fluid.mu: must be a number, got '1e0'"
