"""Ladder algebra, the indefinite metric, and the subsidiary condition."""

import math

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


def test_mode_rejects_inconsistent_frequency():
    with pytest.raises(ValueError):
        PhotonMode((1.0, 0.0, 0.0), PolarizationKind.SCALAR, omega=2.0)
    with pytest.raises(ValueError):
        PhotonMode((0.0, 0.0, 0.0), PolarizationKind.SCALAR)


def test_ordinary_ladder_factors(registry):
    vac = StateVector.vacuum(registry)
    two = vac.create(0).create(0)
    occ = OccupationState(0, 0, {0: 2})
    assert two.amplitude(occ) == pytest.approx(math.sqrt(2.0))
    # number operator: a^+ a scales the sqrt(2)|2> term by its count
    assert two.annihilate(0).create(0).amplitude(occ) == pytest.approx(2.0 * math.sqrt(2.0))
    assert vac.annihilate(0).is_zero()


def test_label_keeps_only_nonzero_counts_in_mode_order():
    from_mapping = OccupationState(0, 1, {3: 1, 0: 0})
    from_pairs = OccupationState(0, 1, ((3, 1),))
    assert from_mapping == from_pairs
    assert hash(from_mapping) == hash(from_pairs)
    assert from_mapping.photons == ((3, 1),)
    assert OccupationState(0, 0, {2: 1, 0: 3}).photons == ((0, 3), (2, 1))
    assert from_mapping.count(3) == 1 and from_mapping.count(0) == 0
    # a dense count tuple is not a list of (mode, count) pairs
    with pytest.raises(TypeError):
        OccupationState(0, 1, (0, 1))


def test_step_walls_and_factors():
    occ = OccupationState(1, 0, {0: 2})
    assert OccupationState(0, 0).step(0, False, p_max=3) is None  # empty mode
    assert occ.step(0, True, p_max=2) is None  # p_max
    assert occ.step(1, True, p_max=3, cap=2) is None  # total photon cap
    assert occ.step(1, True, p_max=3, cap=3) == (OccupationState(1, 0, {0: 2, 1: 1}), 1.0)
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
