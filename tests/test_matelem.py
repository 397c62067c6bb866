"""Closed-form transition elements against each other and against quadrature."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from gaugepair.core import SystemParams
from gaugepair.matelem import (
    OscillatorId,
    _genlaguerre,
    exponential_matrix,
    form_factor_oracle,
    gaussian_form_factor,
    longitudinal_absorption,
    longitudinal_emission,
    mode_scale,
    rho_fourier_element,
    scalar_absorption,
    scalar_emission,
)

PARAMS = SystemParams()

k_vectors = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
).filter(lambda k: sum(c * c for c in k) > 1e-6)

oscillators = st.sampled_from([OscillatorId.A, OscillatorId.B])


def test_form_factor_is_gaussian_in_kd():
    assert gaussian_form_factor(PARAMS, 0.0) == 1.0
    kd = 1.5
    k_x = kd / PARAMS.dipole_d
    assert gaussian_form_factor(PARAMS, k_x) == pytest.approx(math.exp(-0.5 * kd * kd))


@settings(max_examples=100, deadline=None)
@given(k=k_vectors, osc=oscillators)
def test_absorption_conjugation_carries_the_metric_sign(k, osc):
    # scalar absorption is the METRIC adjoint of emission (extra minus);
    # longitudinal modes have ordinary norm and plain Hermitian conjugation
    emit = scalar_emission(PARAMS, osc, k)
    absorb = scalar_absorption(PARAMS, osc, k)
    assert absorb == pytest.approx(-emit.conjugate(), abs=1e-15)
    emit_l = longitudinal_emission(PARAMS, osc, k)
    absorb_l = longitudinal_absorption(PARAMS, osc, k)
    assert absorb_l == pytest.approx(+emit_l.conjugate(), abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(k=k_vectors, osc=oscillators)
def test_longitudinal_is_frequency_weighted_scalar(k, osc):
    omega = math.sqrt(sum(c * c for c in k)) * PARAMS.c
    ratio = osc.frequency(PARAMS) / omega
    emit_s = scalar_emission(PARAMS, osc, k)
    emit_l = longitudinal_emission(PARAMS, osc, k)
    assert emit_l == pytest.approx(-ratio * emit_s, abs=1e-18)


def test_emission_pair_cancels_on_resonance():
    # at omega_gamma = omega_A the longitudinal element is exactly minus the
    # scalar one, which is what kills the subsidiary residual on shell
    k = (PARAMS.omega_a / PARAMS.c, 0.0, 0.0)
    s = scalar_emission(PARAMS, OscillatorId.A, k)
    l = longitudinal_emission(PARAMS, OscillatorId.A, k)
    assert l == pytest.approx(-s, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(k=k_vectors, osc=oscillators)
def test_rho_fourier_reflection_conjugates(k, osc):
    direct = rho_fourier_element(PARAMS, osc, k)
    reflected = rho_fourier_element(PARAMS, osc, k, sign=-1)
    assert reflected == pytest.approx(direct.conjugate(), abs=1e-18)


def test_mode_scale_frequency_dependence():
    assert mode_scale(PARAMS, 4.0) == pytest.approx(0.5 * mode_scale(PARAMS, 1.0))


# -- displacement elements -----------------------------------------------------

def _displacement(lam_d, size):
    """<m| exp(i lam x_rel) |n> with lam d = lam_d: oscillator A sits at the
    origin, so its exponential matrix carries no center phase."""
    return exponential_matrix(PARAMS, OscillatorId.A, -lam_d / PARAMS.dipole_d, size)


def _laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) from its explicit sum."""
    return sum((-1) ** i * math.comb(n + alpha, n - i) * x**i / math.factorial(i)
               for i in range(n + 1))


def _displacement_reference(m, n, lam_d):
    """One displacement element, each triangle from its own branch:
    alpha^(m-n) below the diagonal, (-conj alpha)^(n-m) above it."""
    alpha = 1j * lam_d
    lo, hi = min(m, n), max(m, n)
    power = alpha ** (m - n) if m >= n else (-alpha.conjugate()) ** (n - m)
    return (math.sqrt(math.factorial(lo) / math.factorial(hi)) * power
            * math.exp(-0.5 * lam_d * lam_d) * _laguerre(lo, hi - lo, lam_d * lam_d))


def test_laguerre_recurrence_matches_scipy_bit_for_bit():
    # the recurrence is scipy's own for integer order, so no bit may move;
    # scipy is the test-side reference only
    x = np.concatenate([[0.0, 1e-300, 1e-20, 1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0,
                         50.0, 200.0, 1400.0],
                        np.random.default_rng(13).uniform(0.0, 60.0, 2000)])
    n, alpha = np.indices((9, 9)).reshape(2, -1)
    factorial = np.array([math.factorial(i) for i in range(17)], dtype=float)
    ours = _genlaguerre(n, alpha, x, factorial)
    reference = eval_genlaguerre(n, alpha, x[:, None])
    assert ours.shape == reference.shape == (len(x), 81)
    assert ours.tobytes() == reference.tobytes()


def test_displacement_ground_elements():
    lam_d = 0.8
    mat = _displacement(lam_d, 2)
    gauss = math.exp(-0.5 * lam_d * lam_d)
    assert mat[0, 0] == pytest.approx(gauss)
    assert mat[0, 1] == pytest.approx(1j * lam_d * gauss)
    assert mat[1, 0] == pytest.approx(1j * lam_d * gauss)
    # diagonal picks up the Laguerre factor (1 - lam_d^2)
    assert mat[1, 1] == pytest.approx((1.0 - lam_d * lam_d) * gauss)


@settings(max_examples=80, deadline=None)
@given(lam_d=st.floats(min_value=-2.0, max_value=2.0), osc=oscillators)
def test_displacement_symmetric_and_bounded(lam_d, osc):
    mat = exponential_matrix(PARAMS, osc, -lam_d / PARAMS.dipole_d, 7)
    assert np.array_equal(mat, mat.T)  # one closed form for both triangles
    assert np.all(np.abs(mat) <= 1.0 + 1e-12)  # unitary operator elements


def test_displacement_column_is_near_unit_norm():
    # exp(i lam x) is unitary; the column norm approaches 1 as rows are added
    col = np.abs(_displacement(0.6, 12)[:, 0]) ** 2
    assert col.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(lam_d=st.floats(min_value=-6.0, max_value=6.0), osc=oscillators)
def test_exponential_matrix_matches_per_element_laguerre(lam_d, osc):
    k_x = -lam_d / PARAMS.dipole_d
    mat = exponential_matrix(PARAMS, osc, k_x, 8)
    phase = cmath.exp(-1j * k_x * osc.center(PARAMS))
    lam_d = -k_x * PARAMS.dipole_d
    for m in range(8):
        for n in range(8):
            assert abs(mat[m, n] - phase * _displacement_reference(m, n, lam_d)) <= 1e-12


def test_exponential_matrix_vanishes_where_the_gaussian_underflows():
    # alpha^g and L would overflow at k_x d = 2e98; exp(-|alpha|^2/2) is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for osc in OscillatorId:
            mat = exponential_matrix(PARAMS, osc, 2e98 / PARAMS.dipole_d, 5)
            assert mat.shape == (5, 5) and not mat.any()


def test_exponential_matrix_stack_equals_its_scalar_calls():
    # one call over an array of k_x: 0, both signs, and an underflowed Gaussian
    k_x = np.array([0.0, 1.1, -1.1, 37.5 / PARAMS.dipole_d, -0.3, 2e98 / PARAMS.dipole_d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for osc in OscillatorId:
            for size in (1, 5):
                stack = exponential_matrix(PARAMS, osc, k_x, size)
                scalar = np.stack([exponential_matrix(PARAMS, osc, k, size) for k in k_x])
                assert stack.shape == (len(k_x), size, size)
                assert stack.tobytes() == scalar.tobytes()  # signed zeros included


def test_exponential_matrix_carries_center_phase():
    k_x = 1.1
    size = 3
    mat_a = exponential_matrix(PARAMS, OscillatorId.A, k_x, size)
    mat_b = exponential_matrix(PARAMS, OscillatorId.B, k_x, size)
    phase = np.exp(-1j * k_x * PARAMS.separation_l)
    assert np.allclose(mat_b, phase * mat_a, atol=1e-14)
    kd = k_x * PARAMS.dipole_d
    assert mat_a[0, 1] == pytest.approx(-1j * kd * math.exp(-0.5 * kd * kd))


# -- the wavefunction oracle -----------------------------------------------------

@pytest.mark.parametrize("kd", [1e-3, 0.3, 1.0, 2.2, 3.0])
def test_oracle_matches_closed_element(kd):
    k_x = kd / PARAMS.dipole_d
    closed = -1j * kd * gaussian_form_factor(PARAMS, k_x)
    numeric = form_factor_oracle(PARAMS, OscillatorId.A, k_x)
    assert abs(numeric - closed) <= 1e-10 * abs(closed)


def test_oracle_and_closed_element_on_an_array_equal_their_single_calls():
    # check's form-factor suite evaluates all its k_x in one call
    k_x = np.array([1e-3, 0.3, 1.0, 2.2, 3.0]) / PARAMS.dipole_d
    numeric = form_factor_oracle(PARAMS, OscillatorId.A, k_x)
    gauss = gaussian_form_factor(PARAMS, k_x)
    singles = [(form_factor_oracle(PARAMS, OscillatorId.A, k), gaussian_form_factor(PARAMS, k))
               for k in k_x.tolist()]
    assert all(type(a) is complex and type(b) is float for a, b in singles)
    assert numeric.tobytes() == np.array([a for a, _ in singles]).tobytes()
    assert gauss.tobytes() == np.array([b for _, b in singles]).tobytes()


def test_oracle_rejects_nonfinite():
    with pytest.raises(ValueError):
        form_factor_oracle(PARAMS, OscillatorId.A, float("nan"))
    with pytest.raises(ValueError):
        form_factor_oracle(PARAMS, OscillatorId.A, np.array([1.0, float("inf")]))
