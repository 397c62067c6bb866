"""Diagram integrands, bracket closed forms, and the two discrete oracles."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaugepair.core import SystemParams
from gaugepair.fock import PRUNE_TOL, OccupationState, PolarizationKind, StateVector, make_registry
from gaugepair.perturbation import (
    ALL_DIAGRAMS,
    DiagramSpec,
    ExchangeOrder,
    InteractionOperator,
    OracleError,
    PoleError,
    ResonanceError,
    combined_bracket_form,
    common_prefactor,
    coulomb_integrand,
    diagram_integrand,
    discrete_second_order,
    exact_diagonalization_oracle,
    expansion_terms,
    lorentz_bracket,
    oracle_scaling_exponent,
    symmetric_diagram_sum,
    uncoupled_energy,
)

PARAMS = SystemParams()
EPS = np.finfo(float).eps

off_pole_k = st.tuples(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
).filter(
    lambda k: abs(math.sqrt(sum(c * c for c in k)) - PARAMS.omega_a) > 1e-3
    and sum(c * c for c in k) > 1e-6
)


# -- the four diagrams ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(k=off_pole_k)
@example(k=(0.99999, 0.099609375, 0.0))  # closed form near its root: gap 1.5e-12 relative
def test_four_diagrams_reconstruct_closed_form(k):
    total = symmetric_diagram_sum(PARAMS, k)
    closed = combined_bracket_form(PARAMS, k)
    # the closed form vanishes at |k| = sqrt(omega_a omega_b)/c, where the
    # eight halved integrands cancel; their rounding sets the floor there
    minus_k = tuple(-c for c in k)
    terms = sum(abs(diagram_integrand(PARAMS, spec, kv))
                for spec in ALL_DIAGRAMS for kv in (k, minus_k))
    tol = 1e-12 * max(1e-300, abs(closed)) + 8.0 * EPS * 0.5 * terms
    assert abs(total.imag) <= tol
    assert abs(total.real - closed) <= tol


@settings(max_examples=100, deadline=None)
@given(k=off_pole_k)
@example(k=(0.5802261518485716,) * 3)  # s + l cancels near the root: 0.21 eps |s| over
def test_scalar_longitudinal_cancellation_bound(k):
    # the longitudinal diagram is exactly -(omega_a omega_b / omega^2) times
    # the scalar one at the same exchange order
    omega = PARAMS.c * math.sqrt(sum(c * c for c in k))
    factor = 1.0 - PARAMS.omega_a * PARAMS.omega_b / omega**2
    for order in ExchangeOrder:
        s = diagram_integrand(PARAMS, DiagramSpec(order, PolarizationKind.SCALAR), k)
        l = diagram_integrand(PARAMS, DiagramSpec(order, PolarizationKind.LONGITUDINAL), k)
        floor = 8.0 * EPS * (abs(s) + abs(l))  # rounding of the cancelling pair
        assert abs(s + l) <= abs(factor) * abs(s) * (1.0 + 1e-12) + floor + 1e-300


def test_cancellation_exact_at_geometric_mean():
    k_res = math.sqrt(PARAMS.omega_a * PARAMS.omega_b) / PARAMS.c
    k = (k_res * 0.6, k_res * 0.8, 0.0)
    for order in ExchangeOrder:
        s = diagram_integrand(PARAMS, DiagramSpec(order, PolarizationKind.SCALAR), k)
        l = diagram_integrand(PARAMS, DiagramSpec(order, PolarizationKind.LONGITUDINAL), k)
        assert abs(s + l) <= 1e-15 * abs(s)


def test_resonant_diagram_pole_errors_without_regulator():
    with pytest.raises(PoleError):
        diagram_integrand(
            PARAMS,
            DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.SCALAR),
            (PARAMS.omega_a / PARAMS.c, 0.0, 0.0),
        )


def test_diagram_spec_rejects_transverse():
    with pytest.raises(ValueError):
        DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.TRANSVERSE1)


# -- bracket and series ----------------------------------------------------------

def test_bracket_is_one_at_zero_splitting():
    degenerate = replace(PARAMS, omega_b=PARAMS.omega_a)
    for omega in (0.3, 0.999, 1.001, 7.0, 300.0):
        assert lorentz_bracket(degenerate, omega) == pytest.approx(1.0, rel=1e-14)


def test_bracket_tends_to_one_at_high_frequency():
    assert lorentz_bracket(PARAMS, 1e6) == pytest.approx(1.0, abs=1e-5)


def test_bracket_pole_and_domain_errors():
    with pytest.raises(PoleError):
        lorentz_bracket(PARAMS, PARAMS.omega_a)
    with pytest.raises(ValueError):
        lorentz_bracket(PARAMS, -1.0)


def test_bracket_vectorizes():
    w = np.array([0.4, 2.0, 9.0])
    vec = lorentz_bracket(PARAMS, w)
    assert vec.shape == (3,)
    for i, omega in enumerate(w):
        assert vec[i] == lorentz_bracket(PARAMS, float(omega))


def test_expansion_remainder_is_third_order():
    omega = 2.0

    def remainder(delta):
        p = replace(PARAMS, omega_b=PARAMS.omega_a + delta)
        total = sum(expansion_terms(p, omega, order) for order in (0, 1, 2))
        return abs(lorentz_bracket(p, omega) - total) / delta**3

    # the delta^3-normalized remainder stays bounded as delta -> 0
    r1, r2, r3 = remainder(1e-2), remainder(5e-3), remainder(2.5e-3)
    assert r2 <= 2.0 * r1 and r3 <= 2.0 * r1


def test_expansion_rejects_unknown_order():
    with pytest.raises(ValueError):
        expansion_terms(PARAMS, 2.0, 3)


# -- Coulomb-side integrand -------------------------------------------------------

def test_coulomb_integrand_is_bracketless_lorentz_form():
    for k in [(0.45, 0.0, 0.0), (1.7, 0.2, -0.1), (-3.0, 1.0, 0.3)]:
        omega = PARAMS.c * math.sqrt(sum(c * c for c in k))
        expected = (
            common_prefactor(PARAMS)
            * combined_bracket_form(PARAMS, k)
            / lorentz_bracket(PARAMS, omega)
        )
        assert coulomb_integrand(PARAMS, k) == pytest.approx(expected, rel=1e-13)


def test_coulomb_integrand_sign_and_zeroes():
    assert coulomb_integrand(PARAMS, (0.05, 0.0, 0.0)) < 0  # cos ~ 1, leading minus
    assert coulomb_integrand(PARAMS, (0.0, 1.1, 0.0)) == 0.0
    with pytest.raises(ValueError):
        coulomb_integrand(PARAMS, (0.0, 0.0, 0.0))


# -- operator route vs Riemann sums -----------------------------------------------

KS = [(0.6, 0.0, 0.0), (-0.6, 0.0, 0.0), (1.9, 0.3, -0.4), (-1.9, -0.3, 0.4)]
WS = [0.11, 0.11, 0.07, 0.07]


def test_empty_registry_gives_zero():
    assert discrete_second_order(PARAMS, make_registry(())) == 0.0


def test_scalar_only_registry_reproduces_scalar_diagrams():
    reg = make_registry(KS, kinds=(PolarizationKind.SCALAR,), weights=WS)
    amp = discrete_second_order(PARAMS, reg)
    riemann = sum(
        w
        * common_prefactor(PARAMS)
        * sum(
            diagram_integrand(PARAMS, DiagramSpec(order, PolarizationKind.SCALAR), k)
            for order in ExchangeOrder
        )
        for k, w in zip(KS, WS)
    )
    assert abs(amp - riemann) <= 1e-12 * abs(riemann)


def test_full_registry_reproduces_all_diagrams():
    reg = make_registry(KS, weights=WS)
    amp = discrete_second_order(PARAMS, reg)
    riemann = sum(
        w * common_prefactor(PARAMS) * sum(diagram_integrand(PARAMS, s, k) for s in ALL_DIAGRAMS)
        for k, w in zip(KS, WS)
    )
    assert abs(amp - riemann) <= 1e-12 * abs(riemann)


def test_doubling_charge_quadruples_amplitude():
    reg = make_registry(KS, weights=WS)
    amp = discrete_second_order(PARAMS, reg)
    amp_2q = discrete_second_order(replace(PARAMS, charge_q=2.0), reg)
    assert amp_2q == pytest.approx(4.0 * amp, rel=1e-13)


def test_registry_mode_on_resonance_errors():
    reg = make_registry([(PARAMS.omega_a / PARAMS.c, 0.0, 0.0)])
    with pytest.raises(ResonanceError):
        discrete_second_order(PARAMS, reg)


def _two_apply_second_order(params, registry):
    """The second-order sum with both vertices applied as whole states."""
    op = InteractionOperator(params, registry)
    start = StateVector.basis(registry, level_a=1, level_b=0)
    (start_occ,) = [occ for occ, _ in start.terms()]
    target = OccupationState(0, 1)
    e_n = uncoupled_energy(params, registry, start_occ)
    e_m = uncoupled_energy(params, registry, target)
    psi1 = StateVector(registry, {occ: amp / (e_n - uncoupled_energy(params, registry, occ))
                                  for occ, amp in op.apply(start).terms() if occ != start_occ})
    return op.apply(psi1).amplitude(target) / (e_n - e_m)


def test_second_order_at_benchmark_size():
    # 48 k-vectors in a box of side 5, off k = 0 and off the shell |k| = 1,
    # each carrying its d^3k cell
    rng = random.Random(48)
    ks = []
    while len(ks) < 48:
        k = tuple(rng.uniform(-2.5, 2.5) for _ in range(3))
        norm = math.sqrt(sum(c * c for c in k))
        if norm >= 0.05 and abs(norm - 1.0) >= 0.05:
            ks.append(k)
    weight = 5.0**3 / len(ks)
    reg = make_registry(ks, weights=[weight] * len(ks))
    amp = discrete_second_order(PARAMS, reg)
    assert repr(amp) == repr(_two_apply_second_order(PARAMS, reg))
    riemann = sum(
        weight * common_prefactor(PARAMS)
        * sum(diagram_integrand(PARAMS, s, k) for s in ALL_DIAGRAMS)
        for k in ks
    )
    assert abs(amp - riemann) <= 1e-12 * abs(riemann)


def test_second_order_at_continuum_scale():
    # 1,024 k-vectors: each term of the sum costs O(photons), not O(modes)
    rng = random.Random(1024)
    ks = []
    while len(ks) < 1024:
        k = tuple(rng.uniform(-2.5, 2.5) for _ in range(3))
        norm = math.sqrt(sum(c * c for c in k))
        if norm >= 0.05 and abs(norm - 1.0) >= 0.05:
            ks.append(k)
    weight = 5.0**3 / len(ks)
    amp = discrete_second_order(PARAMS, make_registry(ks, weights=[weight] * len(ks)))
    riemann = sum(
        weight * common_prefactor(PARAMS)
        * sum(diagram_integrand(PARAMS, s, k) for s in ALL_DIAGRAMS)
        for k in ks
    )
    assert abs(amp - riemann) <= 1e-12 * abs(riemann)


# -- InteractionOperator.coefficient against the whole state -----------------------

def _mixed_state(reg):
    """Several terms inside the registry's bounds, multi-photon ones included."""
    last, top = len(reg) - 1, min(reg.p_max, 2)
    labels = [
        (1, 0, {}),
        (0, 1, {0: 1}),
        (reg.n_max, 0, {last: top}),
        (1, 1, {0: 1, last: 1}),
        (0, reg.n_max, {0: top, last: 1}),
    ]
    state = StateVector(reg, {})
    for i, (la, lb, photons) in enumerate(labels):
        amp = complex(0.3 + 0.1 * i, 0.2 - 0.15 * i)
        state = state + amp * StateVector.basis(reg, la, lb, photons)
    return state


@pytest.mark.parametrize("cap", [None, 1, 2])
@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("p_max", [1, 2])
def test_coefficient_equals_applied_amplitude(p_max, n_max, cap):
    ks = ((0.6, 0.0, 0.0), (-1.9, 0.3, 0.4))
    full = (PolarizationKind.LONGITUDINAL, PolarizationKind.SCALAR)
    for kinds in ((PolarizationKind.SCALAR,), full):
        clean = make_registry(ks, kinds=kinds, weights=(0.11, 0.07), n_max=n_max, p_max=p_max)
        for reg in (clean, clean.corrupted()):
            op = InteractionOperator(PARAMS, reg, total_photon_cap=cap)
            state = _mixed_state(reg)
            whole = op.apply(state)
            assert len(whole) > 0
            for target, _ in (*whole.terms(), *state.terms()):
                # bit for bit, signed zeros included
                assert repr(op.coefficient(target, state)) == repr(whole.amplitude(target))
            # a faint start: its weakest images fall below PRUNE_TOL and are dropped
            start = StateVector.basis(reg, 1, 0)
            images = op.apply(start)
            sizes = [abs(a) for _, a in images.terms()]
            faint = (PRUNE_TOL / math.sqrt(min(sizes) * max(sizes))) * start
            faint_whole = op.apply(faint)
            assert len(faint_whole) < len(images)
            for target, _ in images.terms():
                assert repr(op.coefficient(target, faint)) == repr(faint_whole.amplitude(target))
            # every vertex moves exactly one photon: nothing reaches the start's
            # own photon counts, a two-photon change, or a level past n_max
            for target in (OccupationState(0, 1),
                           OccupationState(0, 1, {0: 1, len(reg) - 1: 1}),
                           OccupationState(n_max + 1, 0, {0: 1})):
                assert images.amplitude(target) == 0.0
                assert op.coefficient(target, start) == 0.0


# -- exact diagonalization ---------------------------------------------------------

ORACLE_REG = make_registry(((1.7, 0.0, 0.0), (-1.7, 0.0, 0.0)), n_max=2, p_max=2)


def test_oracle_zero_charge_gives_zero_exactly():
    res = exact_diagonalization_oracle(replace(PARAMS, charge_q=0.0), ORACLE_REG)
    assert res.epsilon_exact == 0.0
    assert res.tracking_overlap == 1.0


def test_oracle_weighted_spectrum_is_real():
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG)
    assert res.max_imag_eigenvalue < 1e-12
    assert res.tracking_overlap > 0.999
    assert res.dimension == 135


def test_oracle_agrees_with_perturbation_theory():
    # the two differ by the genuine higher-order (q^4) remainder, ~3e-6
    # relative at q = 1; the scaling test below pins its charge dependence
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG)
    amp = discrete_second_order(PARAMS, ORACLE_REG)
    assert abs(res.epsilon_exact - amp) <= 1e-4 * abs(amp)


def test_oracle_residual_scales_as_fourth_power():
    slope, samples = oracle_scaling_exponent(PARAMS, ORACLE_REG)
    assert 3.8 <= slope <= 4.2
    assert all(r > 0 for _, r in samples)


def test_oracle_rejects_large_registries():
    big = make_registry([(0.5 + 0.1 * i, 0.0, 0.0) for i in range(3)])  # 6 modes
    with pytest.raises(ValueError):
        exact_diagonalization_oracle(PARAMS, big)
