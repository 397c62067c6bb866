"""The gauge map: per-mode bracket identity, operator route, and subsidiary
physicality of the mapped states."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugepair.core import SystemParams, ValidationError
from gaugepair.fock import make_registry
from gaugepair.gauge import (
    PerKReport,
    operator_route_brackets,
    per_k_equivalence,
    residual_first_order_state,
    residual_term_physicality,
    transform_brackets,
    transformed_epsilon,
)
from gaugepair.perturbation import PoleError, lorentz_bracket
from gaugepair.quadrature import QuadratureConfig, epsilon_lorentz

PARAMS = SystemParams()

off_pole_omega = st.floats(min_value=0.05, max_value=30.0).filter(
    lambda w: abs(w - PARAMS.omega_a) > 1e-4
)


# -- closed-form route -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    omega=off_pole_omega,
    omega_a=st.floats(min_value=0.2, max_value=3.0),
    detuning=st.floats(min_value=1e-6, max_value=0.2),
)
def test_mapped_terms_sum_to_covariant_bracket(omega, omega_a, detuning):
    p = SystemParams(omega_a=omega_a, omega_b=omega_a + detuning)
    if abs(omega - omega_a) < 1e-6 * max(1.0, omega_a):
        return  # regenerated pole; the filter above only guards the default
    ident, lin, quad = transform_brackets(p, omega)
    covariant = lorentz_bracket(p, omega)
    assert ident == 1.0
    scale = max(abs(covariant), 1e-3)
    assert abs(covariant - (ident + lin + quad)) <= 1e-12 * scale


def test_transform_brackets_vectorize():
    w = np.array([0.4, 2.2, 8.0])
    ident, lin, quad = transform_brackets(PARAMS, w)
    for i, omega in enumerate(w):
        i_s, l_s, q_s = transform_brackets(PARAMS, float(omega))
        assert (ident[i], lin[i], quad[i]) == (i_s, l_s, q_s)


def test_transform_brackets_guard_rails():
    with pytest.raises(PoleError):
        transform_brackets(PARAMS, PARAMS.omega_a)
    with pytest.raises(ValidationError):
        transform_brackets(PARAMS, 0.0)


def test_per_k_report_fields():
    report = per_k_equivalence(PARAMS, 2.0)
    assert isinstance(report, PerKReport)
    assert report.omega_gamma == 2.0
    assert report.bracket_identity == 1.0
    assert abs(report.residual) <= 1e-14
    assert report.bracket_lorentz == pytest.approx(
        report.bracket_identity + report.bracket_linear + report.bracket_quadratic
    )


# -- operator route -----------------------------------------------------------------

@pytest.mark.parametrize("k_mag", [0.7, 1.9, 3.3])
def test_operator_route_matches_closed_forms(k_mag):
    lin_op, quad_op = operator_route_brackets(PARAMS, (k_mag, 0.0, 0.0))
    _, lin, quad = transform_brackets(PARAMS, PARAMS.c * k_mag)
    assert lin_op == pytest.approx(lin, rel=1e-10)
    assert quad_op == pytest.approx(quad, rel=1e-10)


def test_operator_route_weight_independent():
    k = (1.3, 0.0, 0.0)
    a = operator_route_brackets(PARAMS, k, weight=1.0)
    b = operator_route_brackets(PARAMS, k, weight=0.037)
    assert a == pytest.approx(b, rel=1e-12)


def test_first_order_state_is_nonempty_and_finite():
    reg = make_registry(((0.9, 0.0, 0.0), (-0.9, 0.0, 0.0)), n_max=2, p_max=2)
    state = residual_first_order_state(PARAMS, reg)
    amps = [a for _, a in state.terms()]
    assert amps and all(np.isfinite(a) for a in amps)


# -- physicality of the mapped states -------------------------------------------------

@pytest.mark.parametrize("quanta", [0, 1])
def test_residual_coupling_preserves_subsidiary_condition(quanta):
    residual = residual_term_physicality(PARAMS, (0.9, 0.0, 0.0), photon_quanta=quanta)
    assert residual <= 1e-12


def test_pair_sign_corruption_breaks_subsidiary_condition():
    good = residual_term_physicality(PARAMS, (0.9, 0.0, 0.0))
    bad = residual_term_physicality(PARAMS, (0.9, 0.0, 0.0), corrupt=True)
    assert good <= 1e-12
    assert bad > 1e-4


# -- integrated equivalence ------------------------------------------------------------

def test_transformed_amplitude_matches_covariant_integral():
    cfg = QuadratureConfig(radial_nodes=32, angular_nodes=32)
    lorentz = epsilon_lorentz(PARAMS, cfg)
    mapped = transformed_epsilon(PARAMS, cfg)
    gap = abs(mapped.value - lorentz.value)
    assert gap <= 1e-10 * abs(lorentz.value)
