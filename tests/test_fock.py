"""Ladder algebra, the indefinite metric, and the subsidiary condition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugepair.fock import (
    ModeRegistry,
    OccupationState,
    PhotonMode,
    PolarizationKind,
    RegistryMismatchError,
    StateVector,
    TruncationError,
    apply_scalar_sector_identity,
    apply_vertices,
    check_subsidiary,
    indefinite_inner,
    make_registry,
    physical_pair_raise,
)

K = (1.3, 0.0, 0.0)


@pytest.fixture
def registry():
    return make_registry((K,), n_max=2, p_max=3)


def test_make_registry_layout(registry):
    assert len(registry) == 2
    long_idx, scal_idx = registry.pair_at(K)
    assert registry.modes[long_idx].kind is PolarizationKind.LONGITUDINAL
    assert registry.modes[scal_idx].kind is PolarizationKind.SCALAR
    assert registry.modes[0].omega == pytest.approx(1.3)
    with pytest.raises(KeyError):
        registry.pair_at((9.9, 0.0, 0.0))


def test_pair_at_agrees_with_a_linear_scan():
    # repeated k vectors (also as -0.0 and ints), a lone kind, and a scalar
    # before its longitudinal partner: the last match of each kind wins
    ks = [(1.0, 0.0, 0.0), (0.5, -0.5, 0.2), (1.0, -0.0, 0.0), (1, 0, 0), (0.5, -0.5, 0.2)]
    modes = [PhotonMode(k, kind) for k in ks
             for kind in (PolarizationKind.SCALAR, PolarizationKind.LONGITUDINAL)]
    modes.append(PhotonMode((2.0, 0.0, 0.0), PolarizationKind.SCALAR))
    registry = ModeRegistry(tuple(modes))

    def scan(k_vector):
        found = {}
        for i, mode in enumerate(registry.modes):
            if mode.k_vector == tuple(k_vector):
                found[mode.kind] = i
        return found.get(PolarizationKind.LONGITUDINAL), found.get(PolarizationKind.SCALAR)

    for k_vector in (*ks, [0.5, -0.5, 0.2]):
        assert registry.pair_at(k_vector) == scan(k_vector)
    assert registry.pair_at((1.0, 0.0, 0.0)) == (7, 6)
    for missing in ((2.0, 0.0, 0.0), (3.0, 0.0, 0.0)):
        with pytest.raises(KeyError):
            registry.pair_at(missing)


def test_mode_frequency_is_the_wave_number():
    mode = PhotonMode((0.6, 0.0, -0.8), PolarizationKind.SCALAR)
    assert mode.omega == math.sqrt(0.6 * 0.6 + 0.8 * 0.8)
    # natural units fix omega = |k|, so it is no argument
    with pytest.raises(TypeError):
        PhotonMode((1.0, 0.0, 0.0), PolarizationKind.SCALAR, omega=1.0)
    with pytest.raises(ValueError):
        PhotonMode((0.0, 0.0, 0.0), PolarizationKind.SCALAR)


def test_ordinary_ladder_factors(registry):
    vac = StateVector.vacuum(registry)
    two = vac.create(0).create(0)
    occ = OccupationState(0, 0, {0: 2})
    assert two.amplitude(occ) == pytest.approx(math.sqrt(2.0))
    # number operator: a^+ a scales the sqrt(2)|2> term by its count
    assert two.annihilate(0).create(0).amplitude(occ) == pytest.approx(2.0 * math.sqrt(2.0))
    assert len(vac.annihilate(0)) == 0


def test_label_keeps_only_nonzero_counts_in_mode_order():
    from_mapping = OccupationState(0, 1, {3: 1, 0: 0})
    from_pairs = OccupationState(0, 1, ((3, 1),))
    assert from_mapping == from_pairs
    assert hash(from_mapping) == hash(from_pairs)
    assert from_mapping.photons == ((3, 1),)
    assert OccupationState(0, 0, {2: 1, 0: 3}).photons == ((0, 3), (2, 1))
    assert dict(from_mapping.photons).get(3, 0) == 1 and dict(from_mapping.photons).get(0, 0) == 0
    # a dense count tuple is not a list of (mode, count) pairs
    with pytest.raises(TypeError):
        OccupationState(0, 1, (0, 1))


def test_step_walls_and_factors():
    occ = OccupationState(1, 0, {0: 2})
    assert OccupationState(0, 0).step(0, False, p_max=3) is None  # empty mode
    assert occ.step(0, True, p_max=2) is None  # p_max
    assert occ.step(0, True, p_max=3) == (OccupationState(1, 0, {0: 3}), math.sqrt(3.0))
    assert occ.step(0, False, p_max=3) == (OccupationState(1, 0, {0: 1}), math.sqrt(2.0))
    # lowering never checks p_max, even from above it
    for p_max in (0, 1, 2):
        assert occ.step(0, False, p_max) == (OccupationState(1, 0, {0: 1}), math.sqrt(2.0))
    assert OccupationState(0, 0, {0: 1}).step(0, False, 0) == (OccupationState(0, 0), 1.0)


def test_truncation_walls_error_loudly(registry):
    vac = StateVector.vacuum(registry)
    with pytest.raises(TruncationError):
        vac.create(1).create(1).create(1).create(1)


def test_ladders_are_the_term_by_term_step():
    # create and annihilate run through apply_vertices with the identity on
    # the oscillators; on a state with both oscillators excited they must
    # equal OccupationState.step taken term by term and summed.  Mode 3's
    # first term sits at p_max: create raises there, and each mode's terms
    # that hold none of its photons drop out of annihilate
    reg = make_registry((K, (0.4, 0.3, 0.0)), n_max=2, p_max=2)
    terms = {
        OccupationState(1, 2, {0: 1, 3: 2}): 0.5 - 0.25j,
        OccupationState(2, 1, {1: 1, 2: 1}): -1.5 + 0.0j,
        OccupationState(2, 2, {0: 1, 2: 1}): 0.75j,
        OccupationState(1, 1): 2.0 + 1.0j,
    }
    state = StateVector(reg, terms)
    for j in range(len(reg)):
        for raising, ladder in ((True, state.create), (False, state.annihilate)):
            steps = [(occ.step(j, raising, reg.p_max), amp) for occ, amp in terms.items()]
            if raising and any(stepped is None for stepped, _ in steps):
                assert j == 3
                with pytest.raises(TruncationError, match="mode 3 .* p_max = 2"):
                    ladder(j)
                continue
            expected = {}
            for stepped, amp in steps:
                if stepped is not None:
                    expected[stepped[0]] = expected.get(stepped[0], 0.0) + amp * stepped[1]
            assert dict(ladder(j).terms()) == expected, (j, raising)


def test_label_is_the_tuple_of_its_normal_fields():
    # a mapping, unsorted pairs and zero counts all give the one label; it is
    # the plain tuple of its fields, and its repr (ED's "kept state ... is
    # degenerate" message prints it) reads as the fields
    label = OccupationState(1, 0, ((2, 1), (5, 0), (0, 3)))
    assert label == OccupationState(1, 0, {0: 3, 2: 1, 5: 0}) == (1, 0, ((0, 3), (2, 1)))
    assert hash(label) == hash(OccupationState(1, 0, {2: 1, 0: 3}))
    assert hash(label) == hash((1, 0, ((0, 3), (2, 1))))
    assert OccupationState._make((1, 0, ((0, 3), (2, 1)))) == label
    assert repr(label) == "OccupationState(level_a=1, level_b=0, photons=((0, 3), (2, 1)))"
    assert repr(OccupationState(0, 0)) == "OccupationState(level_a=0, level_b=0, photons=())"


def _counting_steps(monkeypatch):
    """Patch OccupationState.step to record each call's (label, mode, raising)."""
    calls, step = [], OccupationState.step

    def counted(self, mode, raising, p_max):
        calls.append((self, mode, raising))
        return step(self, mode, raising, p_max)

    monkeypatch.setattr(OccupationState, "step", counted)
    return calls


def _one_at_a_time(reg, stacks, state):
    """Each (mode, oscillator, direction) entry of stacks applied alone, summed
    label by label in the order apply_vertices documents: modes ascending, A
    before B, raising before lowering."""
    total = {}
    for j in range(len(reg)):
        for osc in "AB":
            for raising in (True, False):
                alone = np.zeros_like(stacks[osc, raising])
                alone[j] = stacks[osc, raising][j]
                for occ, amp in apply_vertices(reg, {(osc, raising): alone}, state,
                                               project=True).terms():
                    total[occ] = total.get(occ, 0.0) + amp
    return total


def test_a_term_takes_one_ladder_step_per_mode_and_direction(monkeypatch):
    # A's and B's matrix on one mode and direction share the term's step: on a
    # two-k registry, 3 terms x 4 modes x 2 directions steps for 16 matrices,
    # and the stacks applied at once equal each (mode, oscillator, direction)
    # entry applied alone; from one term, label for label in that order, bit
    # for bit.  A (mode, direction) whose matrices are all zero takes no step
    reg = make_registry((K, (0.4, 0.3, 0.0)), n_max=2, p_max=2)
    matrices = {"A": np.array([[0.5, 1.0, 0.0], [2.0, 0.0, -1.0], [0.0, 0.25, 1.5]]),
                "B": np.array([[0.0, -1.0, 0.5j], [1.0, 0.5, 0.0], [0.75, 0.0, 2.0]])}
    stacks = {(osc, raising): np.array([(1.0 + j) * matrices[osc] for j in range(len(reg))])
              for osc in "AB" for raising in (True, False)}
    state = StateVector(reg, {OccupationState(1, 2, {0: 1, 3: 2}): 0.5 - 0.25j,
                              OccupationState(2, 0, {1: 1}): -1.5,
                              OccupationState(0, 1): 2.0 + 1.0j})
    calls = _counting_steps(monkeypatch)
    applied = apply_vertices(reg, stacks, state, project=True)
    assert len(calls) == len(state) * len(reg) * 2
    assert len(set(calls)) == len(calls)
    monkeypatch.undo()
    one_by_one = _one_at_a_time(reg, stacks, state)
    assert dict(applied.terms()) == pytest.approx(one_by_one, rel=1e-15, abs=0.0)
    for occ, amp in state.terms():
        single = StateVector(reg, {occ: amp})
        assert (list(apply_vertices(reg, stacks, single, project=True).terms())
                == list(_one_at_a_time(reg, stacks, single).items()))

    for osc in "AB":
        stacks[osc, True][3] = 0.0
    calls = _counting_steps(monkeypatch)
    apply_vertices(reg, stacks, state, project=True)
    assert len(calls) == len(state) * (len(reg) * 2 - 1)
    assert (3, True) not in {(mode, raising) for _, mode, raising in calls}


def test_registry_mismatch_rejected(registry):
    other = make_registry(((0.7, 0.0, 0.0),))
    with pytest.raises(RegistryMismatchError):
        StateVector.vacuum(registry) + StateVector.vacuum(other)


# -- the metric ---------------------------------------------------------------

def test_scalar_norms_alternate_exactly(registry):
    _, scal_idx = registry.pair_at(K)
    state = StateVector.vacuum(registry)
    for n in range(registry.p_max + 1):
        norm = indefinite_inner(state, state)
        expected = (-1.0) ** n  # scalar quanta flip the sign, nothing else does
        assert norm.real == expected and norm.imag == 0.0
        if n < registry.p_max:
            new = state.create(scal_idx)
            state = new * (1.0 / new.ordinary_norm())


def test_longitudinal_norms_stay_positive(registry):
    long_idx, _ = registry.pair_at(K)
    one = StateVector.vacuum(registry).create(long_idx)
    assert indefinite_inner(one, one) == 1.0 + 0.0j


def test_scalar_sector_identity(registry):
    long_idx, scal_idx = registry.pair_at(K)
    vac = StateVector.vacuum(registry)
    vac_occ = OccupationState(0, 0)
    assert apply_scalar_sector_identity(vac, scal_idx).amplitude(vac_occ) == -1.0
    assert apply_scalar_sector_identity(vac, long_idx).amplitude(vac_occ) == +1.0
    # the corrupted registry flips the scalar sector back to +1
    bad = registry.corrupted()
    assert apply_scalar_sector_identity(
        StateVector.vacuum(bad), scal_idx
    ).amplitude(vac_occ) == +1.0


def test_subsidiary_condition(registry):
    vac = StateVector.vacuum(registry)
    raised = physical_pair_raise(vac, K)
    # ordinary amplitudes: |1_l> + |1_s>
    long_idx, scal_idx = registry.pair_at(K)
    assert raised.amplitude(OccupationState(0, 0, {long_idx: 1})) == 1.0
    assert raised.amplitude(OccupationState(0, 0, {scal_idx: 1})) == 1.0
    assert check_subsidiary(raised, K) == 0.0
    assert check_subsidiary(physical_pair_raise(raised, K), K) == 0.0


def test_subsidiary_violated_by_corruption(registry):
    bad = registry.corrupted()
    raised = physical_pair_raise(StateVector.vacuum(bad), K)
    assert check_subsidiary(raised, K) == pytest.approx(2.0)


# -- metric adjointness as a property ------------------------------------------

_REG = make_registry((K,), n_max=2, p_max=3)

occupations = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
amplitudes = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def _state(draw_terms):
    return StateVector(
        _REG,
        {OccupationState(la, lb, {0: nl, 1: ns}): a for (la, lb, nl, ns), a in draw_terms.items()},
    )


@settings(max_examples=200, deadline=None)
@given(
    x=st.dictionaries(occupations, amplitudes, min_size=1, max_size=4),
    y=st.dictionaries(occupations, amplitudes, min_size=1, max_size=4),
    index=st.integers(0, 1),
)
def test_physical_raising_is_metric_adjoint_of_lowering(x, y, index):
    """<x, P y> = <a x, y> under the indefinite inner product, P = create_physical."""
    sx, sy = _state(x), _state(y)
    lhs = indefinite_inner(sx, sy.create_physical(index))
    rhs = indefinite_inner(sx.annihilate(index), sy)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(
    x=st.dictionaries(occupations, amplitudes, min_size=1, max_size=4),
    y=st.dictionaries(occupations, amplitudes, min_size=1, max_size=4),
)
def test_indefinite_inner_conjugate_symmetry(x, y):
    sx, sy = _state(x), _state(y)
    lhs = indefinite_inner(sx, sy)
    rhs = indefinite_inner(sy, sx).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
