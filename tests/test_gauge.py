"""The gauge map: per-mode bracket identity, operator route, and subsidiary
physicality of the mapped states."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugepair import gauge
from gaugepair.core import SystemParams, ValidationError
from gaugepair.fock import (
    PolarizationKind,
    StateVector,
    TruncationError,
    apply_vertices,
    make_registry,
    physical_pair_raise,
)
from gaugepair.gauge import (
    PerKReport,
    _residual_coupling,
    inverse_transform_vertices,
    operator_route_brackets,
    per_k_equivalence,
    residual_first_order_state,
    residual_term_physicality,
    transform_brackets,
    transformed_epsilon,
)
from gaugepair.matelem import (
    TWO_PI_CUBED,
    OscillatorId,
    longitudinal_absorption,
    longitudinal_emission,
    mode_scale,
    rho_fourier_element,
)
from gaugepair.perturbation import PoleError, ResonanceError, lorentz_bracket
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


def test_per_k_report_on_an_array_equals_its_scalar_reports():
    # check's per-mode suite evaluates all its frequencies in one call
    w = np.array([0.4, 0.999, 2.2, 8.0])
    report = per_k_equivalence(PARAMS, w)
    for i, omega in enumerate(w.tolist()):
        single = per_k_equivalence(PARAMS, omega)
        assert [field[i] for field in vars(report).values()] == list(vars(single).values())


# -- operator route -----------------------------------------------------------------

@pytest.mark.parametrize("k_mag", [0.7, 1.9, 3.3])
def test_operator_route_matches_closed_forms(k_mag):
    lin_op, quad_op = operator_route_brackets(PARAMS, (k_mag, 0.0, 0.0))
    _, lin, quad = transform_brackets(PARAMS, PARAMS.c * k_mag)
    assert lin_op == pytest.approx(lin, rel=1e-10)
    assert quad_op == pytest.approx(quad, rel=1e-10)


def test_operator_route_refuses_a_wavevector_with_no_static_integrand():
    # k_x = 0: (k.d)^2 = 0, so the brackets' normalization vanishes
    with pytest.raises(ValidationError, match="static-route integrand vanishes"):
        operator_route_brackets(PARAMS, (0.0, 1.3, 0.0))


def test_operator_route_builds_the_map_once(monkeypatch):
    # the mapping's vertex list is built once and applied three times: one
    # charge-density element per scalar mode (+-k), oscillator and sign
    elements, element = [], gauge.rho_fourier_element
    monkeypatch.setattr(gauge, "rho_fourier_element",
                        lambda *args: elements.append(args) or element(*args))
    operator_route_brackets(PARAMS, (0.9, 0.0, 0.0))
    assert len(elements) == 2 * 2 * 2


def test_first_order_state_is_nonempty_and_finite():
    reg = make_registry(((0.9, 0.0, 0.0), (-0.9, 0.0, 0.0)), n_max=2, p_max=2)
    state = residual_first_order_state(PARAMS, reg)
    amps = [a for _, a in state.terms()]
    assert amps and all(np.isfinite(a) for a in amps)


def _hand_built_first_order_state(params, registry):
    """The residual first-order state with its kets, element signs and
    energies written out: oscillator A drops to |0_A 0_B> at energy hbar omega,
    oscillator B climbs to |1_A 1_B> at hbar (omega_a + omega_b + omega)."""
    start_energy = params.hbar * params.omega_a
    total = StateVector(registry, {})
    for idx, mode in enumerate(registry.modes):
        if mode.kind is not PolarizationKind.LONGITUDINAL:
            continue
        sw = math.sqrt(registry.weights[idx])
        for osc in (OscillatorId.A, OscillatorId.B):
            emission = longitudinal_emission(params, osc, mode.k_vector)
            if osc is OscillatorId.A:
                ket = StateVector.basis(registry, level_a=0, level_b=0)
                element = sw * emission
                energy = params.hbar * mode.omega
            else:
                ket = StateVector.basis(registry, level_a=1, level_b=1)
                element = -sw * emission
                energy = params.hbar * (params.omega_a + params.omega_b + mode.omega)
            pair = physical_pair_raise(ket, mode.k_vector)
            total = total + (element / (start_energy - energy)) * pair
    return total


@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.6, 0.48, 0.64)])
@pytest.mark.parametrize("weight", [1.0, 0.037])
@pytest.mark.parametrize("k_mag", [0.3, 0.9, 1.9, 3.3])
def test_first_order_state_equals_hand_built_sum(k_mag, weight, direction):
    k = tuple(k_mag * c for c in direction)
    reg = make_registry((k, tuple(-c for c in k)), weights=(weight, weight), n_max=2, p_max=2)
    state = residual_first_order_state(PARAMS, reg)
    reference = _hand_built_first_order_state(PARAMS, reg)
    # label by label, bit for bit, signed zeros included
    assert len(state) == 8
    assert ({occ: repr(a) for occ, a in state.terms()}
            == {occ: repr(a) for occ, a in reference.terms()})


def test_first_order_state_rejects_a_mode_on_resonance():
    k = (PARAMS.omega_a / PARAMS.c, 0.0, 0.0)
    reg = make_registry((k, (-k[0], 0.0, 0.0)), n_max=2, p_max=2)
    with pytest.raises(ResonanceError, match="degenerate with the start state"):
        residual_first_order_state(PARAMS, reg)


def _two_level(size, up, down):
    matrix = np.zeros((size, size), dtype=complex)
    matrix[1, 0], matrix[0, 1] = up, down
    return matrix


def _hand_built_stacks(params, registry, corrupt):
    """The map's and the residual coupling's vertex stacks, mode by mode: a
    scalar mode's residual matrices are read off its longitudinal partner."""
    size = registry.n_max + 1
    zero = np.zeros((size, size), dtype=complex)
    mapping = {(osc, raising): [] for osc in "AB" for raising in (True, False)}
    residual = {(osc, raising): [] for osc in "AB" for raising in (True, False)}
    for j, mode in enumerate(registry.modes):
        scalar = mode.kind is PolarizationKind.SCALAR
        partner, _ = registry.pair_at(mode.k_vector)
        sw = math.sqrt(registry.weights[partner])
        pair = (1.0 if corrupt else -1.0) * registry.raising_sign(j)
        coeff = (params.c * math.sqrt(registry.weights[j])
                 * (mode_scale(params, mode.omega) * TWO_PI_CUBED**0.5)
                 / (params.hbar * mode.omega))
        for osc in OscillatorId:
            rho_minus = rho_fourier_element(params, osc, mode.k_vector, -1)
            rho_plus = rho_fourier_element(params, osc, mode.k_vector, +1)
            raised = (-registry.raising_sign(j) * coeff) * rho_plus
            mapping[osc.value, False].append(
                _two_level(size, coeff * rho_minus, coeff * rho_minus) if scalar else zero)
            mapping[osc.value, True].append(_two_level(size, raised, raised) if scalar else zero)
            emission = longitudinal_emission(params, osc, mode.k_vector)
            absorption = longitudinal_absorption(params, osc, mode.k_vector)
            up, down = -sw * emission, sw * emission
            residual[osc.value, True].append(
                _two_level(size, pair * up, pair * down) if scalar else _two_level(size, up, down))
            residual[osc.value, False].append(
                _two_level(size, -(sw * absorption), -(-sw * absorption)) if scalar
                else _two_level(size, sw * absorption, -sw * absorption))
    return ({key: np.array(stack) for key, stack in mapping.items()},
            {key: np.array(stack) for key, stack in residual.items()})


def _stack_bytes(stacks):
    return {key: (stack.shape, stack.tobytes()) for key, stack in stacks.items()}


def test_gauge_couplings_equal_a_per_mode_hand_build(monkeypatch):
    # weights other than 1 keep both couplings' sqrt(w) factors covered
    k = (0.54, 0.432, 0.576)
    weighted = make_registry((k, tuple(-c for c in k)), weights=(0.037, 0.037))
    applied = []
    monkeypatch.setattr(gauge, "apply_vertices",
                        lambda reg, stacks, state: applied.append(stacks)
                        or apply_vertices(reg, stacks, state))
    for registry in (weighted, weighted.corrupted()):
        for corrupt in (False, True):
            mapping, residual = _hand_built_stacks(PARAMS, registry, corrupt)
            _residual_coupling(PARAMS, registry, StateVector.basis(registry, 1, 0), corrupt)
            # bit for bit, signed zeros included
            assert _stack_bytes(applied.pop()) == _stack_bytes(residual)
            assert (_stack_bytes(inverse_transform_vertices(PARAMS, registry))
                    == _stack_bytes(mapping))


@pytest.mark.parametrize("kind", [PolarizationKind.LONGITUDINAL, PolarizationKind.SCALAR])
def test_gauge_operators_refuse_a_state_at_the_photon_wall(kind):
    # the map raises scalar modes and the residual coupling raises both modes
    # of a pair: neither may drop a term that would pass p_max
    k = (0.9, 0.0, 0.0)
    reg = make_registry((k,), n_max=2, p_max=1)
    (mode,) = [j for j, m in enumerate(reg.modes) if m.kind is kind]
    at_wall = StateVector.basis(reg, level_a=1, level_b=0, photons={mode: 1})
    with pytest.raises(TruncationError, match="would exceed p_max = 1"):
        _residual_coupling(PARAMS, reg, at_wall)
    if kind is PolarizationKind.SCALAR:
        with pytest.raises(TruncationError, match="would exceed p_max = 1"):
            apply_vertices(reg, inverse_transform_vertices(PARAMS, reg), at_wall)
    else:  # the map has no longitudinal vertex
        assert len(apply_vertices(reg, inverse_transform_vertices(PARAMS, reg), at_wall)) > 0


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
