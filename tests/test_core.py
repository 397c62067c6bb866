"""Parameter derivation, validation, and config parsing."""

import math

import pytest
from hypothesis import given, strategies as st

from gaugepair.core import (
    SystemParams,
    ValidationError,
    derive_dipole,
    load_config,
    params_from_mapping,
    parse_config_text,
    validate,
)


def test_default_point_is_self_consistent():
    p = SystemParams()
    assert p.dipole_d == pytest.approx(0.02, rel=1e-15)
    assert p.delta_e == pytest.approx(0.01, rel=1e-15)
    assert p.omega_l == pytest.approx(0.5)
    assert validate(p) == []


@pytest.mark.parametrize("unit", ["hbar", "c", "eps0"])
def test_natural_units_are_not_parameters(unit):
    assert getattr(SystemParams(), unit) == 1.0
    with pytest.raises(TypeError):
        SystemParams(**{unit: 2.0})


def test_derived_dipole_matches_formula():
    assert derive_dipole(1250.0, 1.0) == pytest.approx(0.02, rel=1e-15)
    assert derive_dipole(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_direct_dipole_overrides_mass():
    p = SystemParams(dipole_d=0.005, mass_m=1.0)
    assert p.dipole_d == 0.005
    # implied_mass inverts the derivation at any frequency
    assert derive_dipole(p.implied_mass(p.omega_a), p.omega_a) == pytest.approx(0.005)


@given(
    m=st.floats(min_value=1e-3, max_value=1e6),
    w=st.floats(min_value=1e-3, max_value=1e3),
)
def test_dipole_positive_and_decreasing(m, w):
    d = derive_dipole(m, w)
    assert d > 0
    assert derive_dipole(2 * m, w) < d
    assert derive_dipole(m, 2 * w) < d


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega_b=1.0),          # zero splitting
        dict(omega_b=0.99),         # negative splitting
        dict(separation_l=0.0),
        dict(separation_l=-2.0),
        dict(charge_q=float("nan")),
        dict(omega_a=float("inf"), omega_b=float("inf")),
    ],
)
def test_validation_rejects_meaningless_inputs(kwargs):
    with pytest.raises(ValidationError):
        validate(SystemParams(**kwargs))


def test_validation_warns_outside_regime():
    sev, msg = validate(SystemParams(dipole_d=0.5))[0]
    assert sev == "warning" and "d/L" in msg
    sev, msg = validate(SystemParams(omega_b=1.5))[0]
    assert sev == "warning" and "splitting" in msg


def test_derive_dipole_rejects_nonpositive():
    with pytest.raises(ValidationError):
        derive_dipole(0.0, 1.0)
    with pytest.raises(ValidationError):
        derive_dipole(1.0, -1.0)


# -- config files -------------------------------------------------------------

GOOD = """
# comment line
omega_a = 1.0
omega_b = 1.02   # trailing comment
dipole_d = 0.01
radial_nodes = 32
"""


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    mapping = load_config(str(path))
    assert mapping == {
        "omega_a": 1.0,
        "omega_b": 1.02,
        "dipole_d": 0.01,
        "radial_nodes": 32,
    }
    p = params_from_mapping(mapping)
    assert p.omega_b == 1.02 and p.dipole_d == 0.01
    assert p.separation_l == 2.0  # untouched defaults survive


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("banana = 3", "unknown key"),
        ("omega_a 1.0", "expected key = value"),
        ("omega_a = fast", "bad value"),
        ("radial_nodes = 2.5", "bad value"),
    ],
)
def test_config_rejects_malformed_lines(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_config_text(text)


def test_config_integer_keys_stay_integers():
    mapping = parse_config_text("radial_nodes = 128")
    assert mapping["radial_nodes"] == 128
    assert isinstance(mapping["radial_nodes"], int)
