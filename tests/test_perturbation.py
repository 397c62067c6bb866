"""Diagram integrands, bracket closed forms, and the two discrete oracles."""

import itertools
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from gaugepair import perturbation
from gaugepair.core import SystemParams, ValidationError
from gaugepair.fock import (
    ModeRegistry,
    OccupationState,
    PolarizationKind,
    StateVector,
    make_registry,
)
from gaugepair.matelem import OscillatorId, exponential_matrix, mode_scale
from gaugepair.perturbation import (
    ALL_DIAGRAMS,
    DiagramSpec,
    ExchangeOrder,
    InteractionOperator,
    OracleError,
    PoleError,
    ResonanceError,
    _photon_sectors,
    _sector_blocks,
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


def test_closed_forms_on_an_array_equal_their_single_calls():
    # check's diagram suite evaluates all its k-vectors in one call
    rng = random.Random(5)
    ks = np.array([[rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
                   for _ in range(64)])
    forms = [lambda p, k, spec=spec: diagram_integrand(p, spec, k) for spec in ALL_DIAGRAMS]
    for form in (*forms, symmetric_diagram_sum, combined_bracket_form, coulomb_integrand):
        on_array = form(PARAMS, ks)
        assert on_array.shape == (len(ks),)
        singles = [form(PARAMS, tuple(k)) for k in ks.tolist()]
        assert {type(value) for value in singles} <= {float, complex}
        assert on_array.tobytes() == np.array(singles, dtype=on_array.dtype).tobytes()


def test_resonant_diagram_pole_errors_without_regulator():
    with pytest.raises(PoleError):
        diagram_integrand(
            PARAMS,
            DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.SCALAR),
            (PARAMS.omega_a / PARAMS.c, 0.0, 0.0),
        )


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


def _box_kvectors(n):
    """n k-vectors in a box of side 5, off k = 0 and off the shell |k| = 1,
    drawn from seed n; each carries the d^3k cell 5^3 / n."""
    rng = random.Random(n)
    ks = []
    while len(ks) < n:
        k = tuple(rng.uniform(-2.5, 2.5) for _ in range(3))
        norm = math.sqrt(sum(c * c for c in k))
        if norm >= 0.05 and abs(norm - 1.0) >= 0.05:
            ks.append(k)
    return ks


def test_second_order_at_benchmark_size():
    ks = _box_kvectors(48)
    weight = 5.0**3 / len(ks)
    reg = make_registry(ks, weights=[weight] * len(ks))
    amp = discrete_second_order(PARAMS, reg)
    assert repr(amp) == repr(_two_apply_second_order(PARAMS, reg))
    # faint charges: <m|H|psi_1> falls below PRUNE_TOL between 1e-5 and 1e-6
    # and is dropped alike on both sides, signed zeros included
    for charge in (1e-5, 1e-6, 1e-7):
        faint = replace(PARAMS, charge_q=charge)
        faint_amp = discrete_second_order(faint, reg)
        assert repr(faint_amp) == repr(_two_apply_second_order(faint, reg))
        assert (faint_amp != 0.0) == (charge == 1e-5)
    riemann = sum(
        weight * common_prefactor(PARAMS)
        * sum(diagram_integrand(PARAMS, s, k) for s in ALL_DIAGRAMS)
        for k in ks
    )
    assert abs(amp - riemann) <= 1e-12 * abs(riemann)


def test_second_order_at_continuum_scale():
    # 1,024 k-vectors: each term of the sum costs O(photons), not O(modes)
    ks = _box_kvectors(1024)
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


def _small_registries(p_max, n_max):
    """Scalar-only and longitudinal + scalar registries on two k-vectors, each
    clean and with the scalar metric sign flipped."""
    ks = ((0.6, 0.0, 0.0), (-1.9, 0.3, 0.4))
    full = (PolarizationKind.LONGITUDINAL, PolarizationKind.SCALAR)
    for kinds in ((PolarizationKind.SCALAR,), full):
        clean = make_registry(ks, kinds=kinds, weights=(0.11, 0.07), n_max=n_max, p_max=p_max)
        yield clean
        yield clean.corrupted()


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("p_max", [1, 2])
def test_every_image_moves_exactly_one_photon(p_max, n_max):
    # discrete_second_order reads its second vertex on this: each term of
    # psi_1 holds one photon, and only that mode's lowering reaches the vacuum
    for reg in _small_registries(p_max, n_max):
        op = InteractionOperator(PARAMS, reg)
        for source, _ in _mixed_state(reg).terms():
            images = op.apply(StateVector(reg, {source: 1.0 + 0.0j}))
            assert len(images) > 0
            before = dict(source.photons)
            for image, _ in images.terms():
                after = dict(image.photons)
                steps = [after.get(j, 0) - before.get(j, 0) for j in before.keys() | after.keys()]
                assert sorted(abs(step) for step in steps if step) == [1]
                assert image.level_a <= n_max and image.level_b <= n_max


# -- the one-pass vertex build against a per-mode build ---------------------------

def _momentum_matrix(dipole_d, hbar, size):
    """p_hat on the lowest `size` levels: (i hbar / 2d)(raise - lower)."""
    out = np.zeros((size, size), dtype=complex)
    for n in range(size - 1):
        out[n + 1, n] = 1j * hbar / (2.0 * dipole_d) * math.sqrt(n + 1)
        out[n, n + 1] = -1j * hbar / (2.0 * dipole_d) * math.sqrt(n + 1)
    return out


def _per_mode_stacks(p, reg):
    """The vertex stacks built one mode at a time, each kind by its own
    branch, with one exponential_matrix call per mode, oscillator and sign."""
    size = reg.n_max + 1
    pad = reg.n_max + 3  # room for exact operator products before slicing
    matrices = {(osc, raising): [] for osc in "AB" for raising in (True, False)}
    for j, mode in enumerate(reg.modes):
        kx = mode.k_x
        k_norm = mode.omega / p.c
        scale = math.sqrt(reg.weights[j]) * mode_scale(p, mode.omega)
        sign_raise = float(reg.raising_sign(j))
        for osc in (OscillatorId.A, OscillatorId.B):
            if mode.kind is PolarizationKind.SCALAR:
                coeff = p.charge_q * p.c * scale
                raise_mat = coeff * sign_raise * exponential_matrix(p, osc, kx, size)
                lower_mat = coeff * exponential_matrix(p, osc, -kx, size)
            else:
                # momentum coupling; k_hat . p_hat = (k_x/|k|) p_x
                mass = p.implied_mass(osc.frequency(p))
                coeff = -(p.charge_q / (2.0 * mass)) * (kx / k_norm) * scale
                mom = _momentum_matrix(p.dipole_d, p.hbar, pad)
                ident = np.eye(pad, dtype=complex)
                raise_full = exponential_matrix(p, osc, kx, pad) @ (
                    2.0 * mom - p.hbar * kx * ident
                )
                lower_full = exponential_matrix(p, osc, -kx, pad) @ (
                    2.0 * mom + p.hbar * kx * ident
                )
                raise_mat = coeff * sign_raise * raise_full[:size, :size]
                lower_mat = coeff * lower_full[:size, :size]
            matrices[osc.value, True].append(raise_mat)
            matrices[osc.value, False].append(lower_mat)
    return {key: np.array(stack) for key, stack in matrices.items()}


def _stack_bytes(matrices):
    return {key: (stack.shape, stack.tobytes()) for key, stack in matrices.items()}


def test_one_pass_vertices_equal_the_per_mode_build():
    registries = [reg for p_max in (1, 2) for n_max in (1, 2, 3)
                  for reg in _small_registries(p_max, n_max)]
    ks = _box_kvectors(48)
    registries.append(make_registry(ks, weights=[5.0**3 / len(ks)] * len(ks)))
    for reg in registries:
        built = InteractionOperator(PARAMS, reg).matrices
        # bit for bit, signed zeros included
        assert _stack_bytes(built) == _stack_bytes(_per_mode_stacks(PARAMS, reg))


# -- exact diagonalization ---------------------------------------------------------

ORACLE_REG = make_registry(((1.7, 0.0, 0.0), (-1.7, 0.0, 0.0)), n_max=2, p_max=2)


def _dense_hamiltonian(params, registry, total_photon_cap):
    """The oracle's H as one dense matrix, placed block by block from its
    photon sectors, and its basis (sector by sector, level A x level B x
    photons): the reference the sector-form tests read."""
    sectors, h0 = _photon_sectors(params, registry, total_photon_cap)
    up, down = _sector_blocks(registry, sectors, InteractionOperator(params, registry).matrices)
    levels = list(itertools.product(range(registry.n_max + 1), repeat=2))
    basis = [OccupationState(la, lb, photons)
             for states in sectors for la, lb in levels for photons in states]
    edges = np.cumsum([0] + [len(diagonal) for diagonal in h0])
    h = np.zeros((len(basis), len(basis)), dtype=complex)
    h[np.diag_indices_from(h)] = np.concatenate(h0)
    for lo, mid, hi, u, d in zip(edges, edges[1:], edges[2:], up, down):
        h[mid:hi, lo:mid], h[lo:mid, mid:hi] = u, d
    return h, basis


@pytest.mark.parametrize("cap", [1, 2, "all"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("p_max", [1, 2])
def test_assembled_hamiltonian_equals_applied_images(p_max, n_max, cap):
    # H is assembled from the vertex matrices in Kronecker form; apply reaches
    # the same couplings through the ladder steps of the state algebra
    for reg in _small_registries(p_max, n_max):
        op = InteractionOperator(PARAMS, reg)
        total_cap = p_max * len(reg) if cap == "all" else cap
        h, basis = _dense_hamiltonian(PARAMS, reg, total_cap)
        index = {occ: i for i, occ in enumerate(basis)}
        expected = np.zeros_like(h)
        outside = []
        for j, occ in enumerate(basis):
            expected[j, j] = uncoupled_energy(PARAMS, reg, occ)
            for image, amp in op.apply(StateVector(reg, {occ: 1.0 + 0.0j})).terms():
                if image in index:
                    expected[index[image], j] = amp
                else:
                    outside.append(image)
        # bit for bit, signed zeros included
        assert np.array_equal(h.view(np.int64), expected.view(np.int64))
        assert all(sum(n for _, n in image.photons) > total_cap for image in outside)
        assert (len(outside) > 0) == (total_cap < p_max * len(reg))


def test_oracle_zero_charge_gives_zero_exactly():
    res = exact_diagonalization_oracle(replace(PARAMS, charge_q=0.0), ORACLE_REG)
    assert res.epsilon_exact == 0.0


def test_oracle_weighted_spectrum_is_real():
    # the anti-Hermitian norm of eta H bounds |Im| of its every eigenvalue
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG)
    assert res.metric_asymmetry < 1e-12
    assert res.dimension == 135


def _edit_vertices(monkeypatch, edit):
    """Build each mode's matrix in each stack as edit(registry, mode, raising, matrix)."""
    build = InteractionOperator._build_vertices

    def edited(self):
        return {(osc, raising): np.array([edit(self.registry, j, raising, matrix)
                                          for j, matrix in enumerate(stack)])
                for (osc, raising), stack in build(self).items()}

    monkeypatch.setattr(InteractionOperator, "_build_vertices", edited)


def _longitudinal_lowering(registry, mode, raising):
    return not raising and registry.modes[mode].kind is PolarizationKind.LONGITUDINAL


# vertex slips that keep the weak-coupling spectrum of eta H real to 3e-15,
# so an eigenvalue test passes them; the first two double |eps|
VERTEX_SLIPS = {
    "raising-without-metric-sign":
        lambda mp: mp.setattr(ModeRegistry, "raising_sign", lambda self, index: 1),
    "longitudinal-lowering-negated":
        lambda mp: _edit_vertices(mp, lambda reg, j, raising, matrix: -matrix
                                  if _longitudinal_lowering(reg, j, raising) else matrix),
    "raising-too-strong-by-1e-3":
        lambda mp: _edit_vertices(mp, lambda reg, j, raising, matrix: 1.001 * matrix
                                  if raising else matrix),
}


@pytest.mark.parametrize("slip", VERTEX_SLIPS.values(), ids=VERTEX_SLIPS.keys())
def test_oracle_refuses_a_coupling_that_is_not_metric_self_adjoint(slip, monkeypatch):
    slip(monkeypatch)
    with pytest.raises(OracleError, match="not Hermitian"):
        exact_diagonalization_oracle(PARAMS, ORACLE_REG)


def _eigenvector_read(params, registry):
    # the reference: a dense eigensolve of the same truncated H, the branch
    # picked as the eigenvector with the largest share on the start state
    h, basis = _dense_hamiltonian(params, registry, total_photon_cap=2)
    start, target = basis.index(OccupationState(1, 0)), basis.index(OccupationState(0, 1))
    _, vecs = scipy.linalg.eig(h)
    best = np.argmax(np.abs(vecs[start]) / np.linalg.norm(vecs, axis=0))
    return vecs[target, best] / vecs[start, best]


@pytest.mark.parametrize("charge", [10.0, 30.0])
def test_oracle_partition_matches_a_dense_eigenvector_read(charge):
    # strong enough that eps is O(0.03-0.25), far above the eigenvector's
    # rounding, and weak enough that one branch clearly holds the start state
    params = replace(PARAMS, charge_q=charge)
    reference = _eigenvector_read(params, ORACLE_REG)
    eps = exact_diagonalization_oracle(params, ORACLE_REG).epsilon_exact
    assert abs(eps - reference) <= 1e-10 * abs(reference)


def _dense_partition(params, registry, total_photon_cap):
    """The partition with one dense solve over all of Q per sweep, the
    sector elimination's reference: eps, or None where E does not settle."""
    h, basis = _dense_hamiltonian(params, registry, total_photon_cap)
    scale = max(1.0, float(np.max(np.abs(h.diagonal()))))
    p = [basis.index(OccupationState(1, 0)), basis.index(OccupationState(0, 1))]
    q = [i for i in range(len(basis)) if i not in p]
    h_pp, h_pq = h[np.ix_(p, p)], h[np.ix_(p, q)]
    h_qp, h_qq = h[np.ix_(q, p)], h[np.ix_(q, q)]
    energy = h[p[0], p[0]]
    for _ in range(perturbation.PARTITION_SWEEPS):
        h_eff = h_pp + h_pq @ np.linalg.solve(energy * np.eye(len(q)) - h_qq, h_qp)
        epsilon = h_eff[1, 0] / (energy - h_eff[1, 1])
        energy, previous = h_eff[0, 0] + h_eff[0, 1] * epsilon, energy
        if abs(energy - previous) <= 4.0 * EPS * scale:
            return epsilon
    return None


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("p_max", [1, 2])
def test_sector_elimination_equals_the_dense_partition(p_max, n_max, cap):
    # both settle E at the rounding level, so eps may differ by the settle
    # tolerance 4 eps max|H_ii| carried through eps = H_eff[1,0] / (E - H_eff[1,1])
    for reg in _small_registries(p_max, n_max):
        for charge in (0.25, 1.0, 10.0, 30.0):
            params = replace(PARAMS, charge_q=charge)
            reference = _dense_partition(params, reg, cap)
            if reference is None:
                with pytest.raises(OracleError, match="did not settle"):
                    exact_diagonalization_oracle(params, reg, cap)
                continue
            eps = exact_diagonalization_oracle(params, reg, cap).epsilon_exact
            h, _ = _dense_hamiltonian(params, reg, cap)
            bound = 4.0 * EPS * np.max(np.abs(h.diagonal())) * (1.0 + abs(reference))
            assert abs(eps - reference) <= bound / params.delta_e


@pytest.mark.parametrize("k, cap", [(0.5, 2), (0.5, 3), (1.0, 1), (0.5 + 1e-14, 2)])
def test_oracle_refuses_a_kept_state_degenerate_with_the_start(k, cap):
    # two photons of omega_a / 2, or one of omega_a, cost what the start state
    # costs: the elimination would divide by zero, so it refuses first.  It
    # refuses 2e-14 relative off too, where it would divide by that
    # rounding-sized gap and still settle
    registry = make_registry(((k, 0.0, 0.0), (-k, 0.0, 0.0)), n_max=2, p_max=cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResonanceError, match="degenerate with the start state"):
            exact_diagonalization_oracle(PARAMS, registry, total_photon_cap=cap)


@pytest.mark.parametrize("cap", [2, 3])
def test_oracle_keeps_a_state_just_beyond_the_degeneracy_rule(cap):
    # two photons of omega_a / 2 + 1e-11 miss the start by 4e-11 relative,
    # beyond the 1e-12 rule: the elimination divides by that gap and gives the
    # eps of 1e-7 further off, to within its slope there (3e-7 relative)
    def eps(dk):
        registry = make_registry(((0.5 + dk, 0.0, 0.0), (-0.5 - dk, 0.0, 0.0)),
                                 n_max=2, p_max=cap)
        return exact_diagonalization_oracle(PARAMS, registry, total_photon_cap=cap).epsilon_exact

    near, far = eps(1e-11), eps(1e-7)
    assert abs(near - far) <= 1e-6 * abs(far)


def test_oracle_photon_cap_zero_gives_zero_and_a_negative_cap_is_refused():
    # no photon is kept, so nothing couples the start to the target
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG, total_photon_cap=0)
    assert res.epsilon_exact == 0.0 and res.dimension == 9
    with pytest.raises(ValueError, match="total_photon_cap = -1"):
        exact_diagonalization_oracle(PARAMS, ORACLE_REG, total_photon_cap=-1)


def test_oracle_refuses_a_coupling_with_no_perturbative_branch():
    # at q = 100 the start state holds only 0.62 of the nearest eigenvector;
    # the partition energy keeps moving and the oracle refuses
    with pytest.raises(OracleError, match="did not settle"):
        exact_diagonalization_oracle(replace(PARAMS, charge_q=100.0), ORACLE_REG)


def test_oracle_refuses_a_partition_energy_that_is_not_real(monkeypatch):
    # a loss of 1e-8 on every vacuum state, put into the elimination where the
    # metric check does not look: E settles off the real axis, and only the
    # reality check on E stands between it and a returned eps
    eliminate = perturbation._sector_self_energy
    monkeypatch.setattr(perturbation, "_sector_self_energy",
                        lambda *args: eliminate(*args) - 1e-8j * np.eye(9))
    with pytest.raises(OracleError, match="not real"):
        exact_diagonalization_oracle(PARAMS, ORACLE_REG)


def test_oracle_agrees_with_perturbation_theory():
    # the two differ by the genuine higher-order (q^4) remainder, ~3e-6
    # relative at q = 1; the scaling test below pins its charge dependence
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG)
    amp = discrete_second_order(PARAMS, ORACLE_REG)
    assert abs(res.epsilon_exact - amp) <= 1e-4 * abs(amp)


def test_a_ladder_slip_separates_perturbation_theory_from_the_oracle(monkeypatch):
    # every ladder factor of the state algebra 1% too strong: the oracle
    # builds its own ladders, so only the perturbative sum moves
    step = OccupationState.step

    def slipped(self, mode, raising, p_max):
        stepped = step(self, mode, raising, p_max)
        return None if stepped is None else (stepped[0], 1.01 * stepped[1])

    monkeypatch.setattr(OccupationState, "step", slipped)
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG)
    amp = discrete_second_order(PARAMS, ORACLE_REG)
    assert res.metric_asymmetry < 1e-12
    assert abs(res.epsilon_exact - amp) > 1e-4 * abs(amp)


def test_an_energy_slip_separates_perturbation_theory_from_the_oracle(monkeypatch):
    # omega_b 1% too large in uncoupled_energy: the oracle reads H_0 from its
    # own occupation numbers, so only the perturbative denominators move
    def slipped(params, registry, occ):
        return uncoupled_energy(replace(params, omega_b=1.01 * params.omega_b), registry, occ)

    monkeypatch.setattr(perturbation, "uncoupled_energy", slipped)
    res = exact_diagonalization_oracle(PARAMS, ORACLE_REG)
    amp = discrete_second_order(PARAMS, ORACLE_REG)
    assert abs(res.epsilon_exact - amp) > 1e-4 * abs(amp)


def test_oracle_residual_scales_as_fourth_power():
    slope, samples = oracle_scaling_exponent(PARAMS, ORACLE_REG)
    assert 3.8 <= slope <= 4.2
    assert all(r > 0 for _, r in samples)


def _recording(monkeypatch, owner, name, runs):
    """owner.name, appending (args, result) of each call to runs."""
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        runs.append((args, original(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(owner, name, recorded)


def test_second_order_steps_once_per_mode_direction_and_photon_label(monkeypatch):
    # the first vertex steps the start term once per mode and direction, A's
    # and B's vertices alike; the second reads one lowering factor per photon
    # label of psi_1, not one per term (8 + 4 steps here, 16 + 20 before)
    steps = []
    _recording(monkeypatch, OccupationState, "step", steps)
    discrete_second_order(PARAMS, ORACLE_REG)
    first, second = steps[:2 * len(ORACLE_REG)], steps[2 * len(ORACLE_REG):]
    assert [(occ, mode, raising) for (occ, mode, raising, _), _ in first] == [
        (OccupationState(1, 0), j, raising)
        for j in range(len(ORACLE_REG)) for raising in (True, False)]
    assert sorted((occ.photons, mode) for (occ, mode, raising, _), _ in second if not raising) == [
        (((j, 1),), j) for j in range(len(ORACLE_REG))]
    assert len(second) == len(ORACLE_REG)


@pytest.mark.parametrize("charge", [1e160, 1e200, 1e300])
def test_second_order_refuses_a_sum_beyond_floating_point_range(charge):
    # q^2 overflows in <m|H|psi_1>: its sum is not finite and is refused, not
    # dropped as zero, and no numpy warning (an error here) escapes first
    registry = make_registry([(1.3, 0.2, 0.0), (-0.7, 0.4, 0.1)])
    with pytest.raises(ValidationError, match="beyond floating-point range"):
        discrete_second_order(replace(PARAMS, charge_q=charge), registry)


def test_one_oracle_verdict_builds_the_coupling_and_the_sectors_once(monkeypatch):
    # q, q/2 and q/4 share them: one construction and one sector enumeration,
    # where each charge's perturbative sum and ED once built their own
    builds, enumerations = [], []
    _recording(monkeypatch, InteractionOperator, "__init__", builds)
    _recording(monkeypatch, perturbation, "_photon_sectors", enumerations)
    oracle_scaling_exponent(PARAMS, ORACLE_REG)
    assert (len(builds), len(enumerations)) == (1, 1)


def _hex(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("k_mag", [1.4, 1.7, 37.58])
def test_shared_build_verdict_equals_fresh_builds(k_mag, monkeypatch):
    # the stacks and the sector blocks are linear in q, and dividing them by 2
    # and 4 is exact: every number of the verdict equals the one a fresh build
    # at that charge gives, bit for bit
    registry = make_registry(((k_mag, 0.0, 0.0), (-k_mag, 0.0, 0.0)), n_max=2, p_max=2)
    pt_runs, ed_runs = [], []
    _recording(monkeypatch, perturbation, "_second_order", pt_runs)
    _recording(monkeypatch, perturbation, "_diagonalized", ed_runs)
    _, samples = oracle_scaling_exponent(PARAMS, registry)
    monkeypatch.undo()
    for ((op,), eps_pt), (_, ed), (q, residual) in zip(pt_runs, ed_runs, samples, strict=True):
        fresh = replace(PARAMS, charge_q=q)
        assert _stack_bytes(op.matrices) == _stack_bytes(InteractionOperator(fresh, registry).matrices)
        pt = discrete_second_order(fresh, registry)
        exact = exact_diagonalization_oracle(fresh, registry).epsilon_exact
        assert (_hex(eps_pt), _hex(ed.epsilon_exact)) == (_hex(pt), _hex(exact))
        assert residual.hex() == abs(pt - exact).hex()
    assert [q for q, _ in samples] == [1.0, 0.5, 0.25]


def test_oracle_refuses_where_halving_the_coupling_is_inexact():
    # at |k| = 1880 the vertex elements reach 3e-323, subnormal, where a
    # fresh build at q/2 no longer equals the build at q halved; every element
    # lies within PRUNE_TOL, so the verdict refuses before dividing anything
    registry = make_registry(((1880.0, 0.0, 0.0), (-1880.0, 0.0, 0.0)), n_max=2, p_max=2)
    stacks = InteractionOperator(PARAMS, registry).matrices
    halved = InteractionOperator(replace(PARAMS, charge_q=0.5), registry).matrices
    assert any(np.abs(stack)[stack != 0].min() < np.finfo(float).tiny for stack in stacks.values())
    assert not all(np.array_equal(halved[key], stacks[key] / 2.0) for key in stacks)
    with pytest.raises(ValidationError, match="coupling vanishes"):
        oracle_scaling_exponent(PARAMS, registry)


def test_oracle_refuses_blocks_over_the_budget_before_building_any(monkeypatch):
    # 4,000 modes at cap 2 keep about 8e6 two-photon states: the refusal is
    # counted from the sector sizes, before a state is enumerated or a vertex built
    def fail(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(itertools, "combinations_with_replacement", fail)
    monkeypatch.setattr(perturbation, "InteractionOperator", fail)
    big = make_registry([(0.5 + 1e-3 * i, 0.3, 0.0) for i in range(2000)], weights=[1e-3] * 2000)
    with pytest.raises(ValueError, match=f"budget of {perturbation._BLOCK_BUDGET}"):
        exact_diagonalization_oracle(PARAMS, big)
    # one photon on the same modes fits
    monkeypatch.undo()
    assert exact_diagonalization_oracle(PARAMS, big, total_photon_cap=1).dimension == 9 * 4001


def test_oracle_agrees_with_perturbation_theory_beyond_four_modes():
    # 8 k-vectors in +-k pairs, 16 modes: 1 + 16 + 136 photon states at cap 2.
    # They share ORACLE_REG's total weight, so the q^4 remainder is ~4e-6 relative
    ks = [(1.7, 0.0, 0.0), (1.3, 0.4, 0.0), (1.9, 0.5, 0.6), (2.2, -0.3, 0.8)]
    registry = make_registry(ks + [tuple(-c for c in k) for k in ks], weights=[0.25] * 8,
                             n_max=2, p_max=2)
    res = exact_diagonalization_oracle(PARAMS, registry)
    amp = discrete_second_order(PARAMS, registry)
    assert res.dimension == 9 * 153
    assert res.metric_asymmetry < 1e-12
    assert abs(res.epsilon_exact - amp) <= 1e-4 * abs(amp)
