import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmimo.config import (
    ExperimentConfig,
    PrecoderConfig,
    RunConfig,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from sdmimo.errors import ConfigError


def _minimal():
    return {
        "system": {"n": 8, "k": 2, "m": 64, "m_s": 40},
        "pa": {"kind": "modified_rapp"},
        "precoder": {"name": "zf-tsd"},
        "noise": {"sigma_v2": [1e-3]},
        "run": {"trials": 2, "blocks_per_trial": 1, "seed": 1},
    }


def test_defaults_applied():
    cfg = config_from_dict(_minimal())
    assert cfg.system.osf == 7
    assert cfg.system.m_cp == 40
    assert cfg.pa.gain == 16.0
    assert cfg.chi is None and cfg.chi_value == cfg.pa.r_max
    assert cfg.scheme == "auto"
    assert cfg.precoder.rho is None


def test_noise_in_db():
    doc = _minimal()
    doc["noise"] = {"inv_sigma_v2_db": [10.0, 20.0]}
    cfg = config_from_dict(doc)
    assert cfg.sigma_v2 == pytest.approx((0.1, 0.01))


def test_noise_both_keys_rejected():
    doc = _minimal()
    doc["noise"] = {"sigma_v2": [0.1], "inv_sigma_v2_db": [10]}
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_unknown_keys_rejected():
    doc = _minimal()
    doc["system"]["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(doc)
    doc = _minimal()
    doc["extra_section"] = {}
    with pytest.raises(ConfigError, match="extra_section"):
        config_from_dict(doc)


def test_k_greater_than_n_rejected():
    doc = _minimal()
    doc["system"]["k"] = 10
    with pytest.raises(ConfigError, match="k <= n"):
        config_from_dict(doc)


def test_cp_must_cover_delays():
    doc = _minimal()
    doc["system"]["m_cp"] = 10
    with pytest.raises(ConfigError, match="m_cp"):
        config_from_dict(doc)


def test_bad_precoder_and_scheme_names():
    doc = _minimal()
    doc["precoder"]["name"] = "mrt"
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = _minimal()
    doc["scheme"] = "sd9"
    with pytest.raises(ConfigError):
        config_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("admm_max_iter", 0), ("apg_max_iter", 0), ("apg_max_iter", -3),
    ("ftol", 0.0), ("xtol", -1e-3), ("apg_tol", 0.0), ("ftol", float("nan")),
    ("rho", 0.0), ("rho", -5.0),
])
def test_bad_solver_settings_rejected(key, value):
    doc = _minimal()
    doc["precoder"][key] = value
    with pytest.raises(ConfigError, match=key):
        config_from_dict(doc)


def test_solver_settings_at_their_limits_accepted():
    doc = _minimal()
    doc["precoder"].update({"admm_max_iter": 1, "apg_max_iter": 1, "ftol": 1e-12,
                            "xtol": 1e-12, "apg_tol": 1e-12, "rho": 1e-9})
    assert config_from_dict(doc).precoder.apg_max_iter == 1
    doc["precoder"]["rho"] = None
    assert config_from_dict(doc).precoder.rho is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_config(p)


def test_round_trip_through_dict(tmp_path):
    doc = _minimal()
    cfg = config_from_dict(doc)
    snapshot = config_to_dict(cfg)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(snapshot))
    cfg2 = load_config(p)
    assert cfg2 == cfg


def test_default_config_is_valid():
    assert isinstance(config_from_dict({}), ExperimentConfig)


_RAPP_DEFAULTS = {"A": 16.0, "r_max": 0.1187, "phi": 1.1, "zeta": 4.0,
                  "B": -345.0, "C": 0.17}


@pytest.mark.parametrize("block,expected", [
    ({"kind": "ideal", "A": 10.0}, {"kind": "ideal", **_RAPP_DEFAULTS, "A": 10.0}),
    ({"kind": "twta", "r_max": 0.2}, {"kind": "twta", **_RAPP_DEFAULTS, "r_max": 0.2}),
    ({"phi": 2.0, "C": 0.3}, {"kind": "modified_rapp", **_RAPP_DEFAULTS,
                              "phi": 2.0, "C": 0.3}),
])
def test_pa_section_round_trip_per_kind(block, expected):
    # keys left out take the default Rapp parameters, and the snapshot
    # written to manifest.json lists every key in this order
    doc = {**_minimal(), "pa": block}
    snapshot = config_to_dict(config_from_dict(doc))["pa"]
    assert snapshot == expected
    assert list(snapshot) == ["kind", "A", "r_max", "phi", "zeta", "B", "C"]
    assert config_from_dict({**doc, "pa": snapshot}) == config_from_dict(doc)


@pytest.mark.parametrize("section,value", [
    ("noise", {"sigma_v2": [float("nan")]}),
    ("noise", {"sigma_v2": [1e-3, float("inf")]}),
    ("noise", {"inv_sigma_v2_db": [-float("inf")]}),   # JSON -1e400: sigma_v2 = inf
    ("noise", {"inv_sigma_v2_db": [-4000.0]}),          # 10^400 overflows
    ("noise", {"inv_sigma_v2_db": [float("nan")]}),
    ("noise", {"sigma_v2": []}),
    ("noise", {"inv_sigma_v2_db": []}),
    ("chi", float("nan")),
    ("chi", float("inf")),
    ("run", {**_minimal()["run"], "seed": -1}),
    ("system", {**_minimal()["system"], "l_taps": 0}),
    ("system", {**_minimal()["system"], "j_paths": 0}),
    ("system", {**_minimal()["system"], "qam_d": 3}),
    ("system", {**_minimal()["system"], "qam_d": 5}),
    ("system", {**_minimal()["system"], "qam_d": 6}),
    ("system", {**_minimal()["system"], "rrc_rolloff": 3.0}),
    ("system", {**_minimal()["system"], "rrc_rolloff": -0.1}),
    ("system", {**_minimal()["system"], "rrc_span_ts": 0.0}),
    ("system", {**_minimal()["system"], "rrc_span_ts": -1.0}),
    ("system", {**_minimal()["system"], "rrc_span_ts": 0.05}),   # 0.35 steps of 1/osf
    ("system", {**_minimal()["system"], "angle_spread_deg": -5.0}),
    ("system", {**_minimal()["system"], "angle_spread_deg": 90.5}),
    ("run", {**_minimal()["run"], "spectrum_frames": 0}),
    ("run", {**_minimal()["run"], "spectrum_samples": 0}),
], ids=["sigma_v2-nan", "sigma_v2-inf", "db-minus-inf", "db-overflow", "db-nan",
        "sigma_v2-empty", "db-empty", "chi-nan", "chi-inf", "seed-negative",
        "l_taps-0", "j_paths-0", "qam_d-3", "qam_d-5", "qam_d-6", "rolloff-3",
        "rolloff-negative", "span-0", "span-negative", "span-under-one-step",
        "angle_spread-negative", "angle_spread-over-90", "spectrum_frames-0",
        "spectrum_samples-0"])
def test_invalid_values_rejected(section, value):
    with pytest.raises(ConfigError):
        config_from_dict({**_minimal(), section: value})


def test_noise_free_point_in_db_accepted():
    doc = _minimal()
    doc["noise"] = {"inv_sigma_v2_db": [float("inf"), 20.0]}
    assert config_from_dict(doc).sigma_v2 == pytest.approx((0.0, 0.01))


@pytest.mark.parametrize("section,key,value", [
    ("run", "trials", 2.5), ("run", "seed", 1.5), ("run", "trials", True),
    ("run", "self_check", "no"), ("run", "self_check", 1),
    ("run", "spectrum_angles_deg", "ab"), ("run", "spectrum_angles_deg", [0.0, True]),
    ("run", "spectrum_angles_deg", [0.0, "5"]),
    ("system", "n", True), ("system", "n", "16"), ("system", "n", 16.0),
    ("system", "d_over_lambda", True), ("system", "d_over_lambda", "0.1"),
    pytest.param("system", "angle_spread_deg", 10**400, id="system-angle_spread_deg-1e400-int"),
    ("precoder", "rho", "x"), ("precoder", "rho", False), ("precoder", "name", 3),
    ("pa", "A", "16"), ("pa", "C", True), ("noise", "sigma_v2", "12"),
    ("noise", "sigma_v2", [True]), ("noise", "inv_sigma_v2_db", 20.0),
])
def test_values_of_the_wrong_type_rejected(section, key, value):
    # each value has the JSON type of its field's default or is a ConfigError
    doc = _minimal()
    doc[section] = {key: value} if section == "noise" else {**doc[section], key: value}
    with pytest.raises(ConfigError, match=key):
        config_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("chi", "abc"), ("chi", True), ("chi", [0.1]), ("system", [8]), ("pa", "rapp"),
    ("noise", 3), ("run", None), ("precoder", "zf-tsd"),
])
def test_top_level_values_of_the_wrong_type_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({**_minimal(), key: value})


def test_numbers_of_either_kind_accepted_for_float_fields():
    doc = _minimal()
    doc["system"]["angle_spread_deg"] = 30
    doc["precoder"]["rho"] = 200
    doc["run"]["spectrum_angles_deg"] = [0, 12.5]
    doc["chi"] = 0.1
    cfg = config_from_dict(doc)
    assert (cfg.system.angle_spread_deg, cfg.precoder.rho) == (30, 200)
    assert cfg.run.spectrum_angles_deg == (0, 12.5)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_KEY_NAMES = sorted({*SystemConfig.__dataclass_fields__, *PrecoderConfig.__dataclass_fields__,
                     *RunConfig.__dataclass_fields__, "kind", "A", "r_max", "phi", "zeta", "B",
                     "C", "sigma_v2", "inv_sigma_v2_db"})
# (top-level key, key inside it or None for the whole value, new value)
_EDITS = st.lists(st.tuples(
    st.sampled_from(["system", "pa", "chi", "scheme", "precoder", "noise", "run"]),
    st.none() | st.sampled_from(_KEY_NAMES),
    _JSON_VALUES | st.sampled_from(["zf-tsd", "slp-bo", "sd2", "none", "twta", 0.1, 1, 64])),
    max_size=5)


@settings(max_examples=400, deadline=None)
@given(edits=_EDITS)
def test_any_document_gives_a_config_or_a_config_error(edits):
    # JSON values of any type at any key: the result is a configuration or
    # a ConfigError, never another exception
    doc = _minimal()
    for top, key, value in edits:
        if key is None or not isinstance(doc.get(top), dict):
            doc[top] = value
        else:
            doc[top] = {**doc[top], key: value}
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
