"""Closed-form emission/absorption matrix elements and their quadrature oracle.

Conventions that every sign in this module hangs on:

* geometry — dipoles and separation along x, so k.d = k_x d and the phase
  factors are exp(+-i k_x x0) with x0 the oscillator center;
* the Gaussian form factor exp(-(k.d)^2/2) is REAL (it is the 0->1 element of
  a displacement operator, not a phase);
* the scalar ABSORPTION element carries a leading minus sign relative to naive
  Hermitian conjugation.  That minus is the indefinite metric showing up in a
  matrix element: the raising half of the scalar coupling is the metric
  adjoint of the lowering half (see fock.create_physical), so conjugating the
  emission element flips sign.  The closed forms below keep that minus
  explicitly; operator-route code must reproduce it from the metric switch.

The scalar emission and absorption elements and the charge-density element
are one 0<->1 dipole element, scale (-i k_x d) exp(-i k_x x0) exp(-(k_x d)^2/2)
(_dipole_element), at a signed k_x: absorption is the element at -k_x with
scale -q c s.  The displacement matrices (exponential_matrix) and the
wavefunction quadrature (form_factor_oracle) are built apart from it, as its
checks.

Every function returns 0 when charge_q = 0.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .core import SystemParams

TWO_PI_CUBED = (2.0 * math.pi) ** 3
_hermgauss = functools.cache(np.polynomial.hermite.hermgauss)  # the oracle's two rules


class ConvergenceError(RuntimeError):
    """A quadrature failed to reach its requested tolerance."""


class OscillatorId(Enum):
    A = "A"
    B = "B"

    def frequency(self, params: SystemParams) -> float:
        return params.omega_a if self is OscillatorId.A else params.omega_b

    def center(self, params: SystemParams) -> float:
        """x coordinate of the oscillator center (A at origin, B at separation_l)."""
        return 0.0 if self is OscillatorId.A else params.separation_l


def _k_parts(k_vector):
    """(k_x, |k|) of a k-vector (floats) or (n, 3) array; rejects the zero vector."""
    k = np.asarray(k_vector, dtype=float)
    kx, k_norm = k[..., 0], np.sqrt((k * k).sum(axis=-1))
    if (k_norm == 0.0).any():
        raise ValueError("zero wave vector: mode frequency would vanish")
    return (float(kx), float(k_norm)) if k.ndim == 1 else (kx, k_norm)


def mode_scale(params: SystemParams, omega_gamma: float) -> float:
    """Per-mode field normalization sqrt(hbar / (2 eps0 omega (2pi)^3))."""
    return math.sqrt(params.hbar / (2.0 * params.eps0 * omega_gamma * TWO_PI_CUBED))


def gaussian_form_factor(params: SystemParams, k_x):
    """exp(-(k_x d)^2 / 2): the beyond-point-dipole factor that regulates all
    the k integrals.  Real by construction.  Accepts one k_x or an array."""
    kd = np.asarray(k_x, dtype=float) * params.dipole_d
    out = np.exp(-0.5 * kd * kd)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Covariant-gauge elements: scalar and longitudinal photons
# ---------------------------------------------------------------------------

def _dipole_element(params: SystemParams, osc: OscillatorId, kx: float, scale: float) -> complex:
    """scale (-i k_x d) exp(-i k_x x0) exp(-(k_x d)^2/2) at the signed k_x:
    the 0<->1 element of scale exp(-i k_x x_hat), multiplied left to right."""
    kd = kx * params.dipole_d
    x0 = osc.center(params)
    phase = complex(math.cos(kx * x0), -math.sin(kx * x0))
    return scale * complex(0.0, -kd) * phase * gaussian_form_factor(params, kx)


def scalar_emission(params: SystemParams, osc: OscillatorId, k_vector) -> complex:
    """Oscillator drops one level, emits one scalar photon at k."""
    kx, k_norm = _k_parts(k_vector)
    scale = params.charge_q * params.c * mode_scale(params, params.c * k_norm)
    return _dipole_element(params, osc, kx, scale)


def scalar_absorption(params: SystemParams, osc: OscillatorId, k_vector) -> complex:
    """Oscillator climbs one level, absorbs one scalar photon at k.

    Leading minus sign: metric adjoint, not ordinary Hermitian conjugate.
    Equals -conj(scalar_emission) at the same (osc, k): the element at -k_x.
    """
    kx, k_norm = _k_parts(k_vector)
    scale = -params.charge_q * params.c * mode_scale(params, params.c * k_norm)
    return _dipole_element(params, osc, -kx, scale)


def longitudinal_emission(params: SystemParams, osc: OscillatorId, k_vector) -> complex:
    """Longitudinal twin of scalar_emission: extra factor -(omega_osc/omega_gamma).

    At omega_gamma = omega_osc the two exactly cancel in the subsidiary
    combination — the ratio is -1 on resonance.
    """
    _, k_norm = _k_parts(k_vector)
    omega_gamma = params.c * k_norm
    return -(osc.frequency(params) / omega_gamma) * scalar_emission(params, osc, k_vector)


def longitudinal_absorption(params: SystemParams, osc: OscillatorId, k_vector) -> complex:
    """Longitudinal twin of scalar_absorption: extra factor +(omega_osc/omega_gamma)."""
    _, k_norm = _k_parts(k_vector)
    omega_gamma = params.c * k_norm
    return (osc.frequency(params) / omega_gamma) * scalar_absorption(params, osc, k_vector)


# ---------------------------------------------------------------------------
# Coulomb-gauge elements: Fourier components of the charge density
# ---------------------------------------------------------------------------

def rho_fourier_element(params: SystemParams, osc: OscillatorId, k_vector, sign: int = +1) -> complex:
    """0<->1 element of the charge-density Fourier component at sign*k.

    rho(k) = (2pi)^(-3/2) q exp(-i k . r); the 0->1 and 1->0 elements coincide,
    so only the wave vector (possibly negated via sign) matters.
    Normalized so the first-order Coulomb amplitude integrand comes out with
    prefactor -(q^2/(eps0 delta_e (2pi)^3)).
    """
    kx, _ = _k_parts(k_vector)
    return _dipole_element(params, osc, sign * kx, params.charge_q) / (2.0 * math.pi) ** 1.5


# ---------------------------------------------------------------------------
# Displacement-operator elements (exact on any truncated oscillator basis)
# ---------------------------------------------------------------------------

def _genlaguerre(n: np.ndarray, alpha: np.ndarray, x: np.ndarray,
                 factorial: np.ndarray) -> np.ndarray:
    """L_n^(alpha)(x), shaped (len(x), *n.shape), for a 1-D x and integer arrays
    n, alpha whose sum indexes the factorial table.  scipy's eval_genlaguerre
    recurrence for integer order, step for step, so equal to it bit for bit:
    orders 0 and 1 in closed form, then one pass up the orders per alpha."""
    a = np.arange(len(factorial))
    neg_x = -x[:, None]
    d = neg_x / (a + 1.0)
    p = d + 1.0
    by_order = [np.ones_like(p), neg_x + a + 1.0]
    for k in range(1, len(factorial) - 1):
        c = k + a + 1.0
        d = neg_x / c * p + (k / c) * d
        p = p + d
        by_order.append(p)  # order k + 1
    binom = np.where(n > 1, factorial[n + alpha] / (factorial[n] * factorial[alpha]), 1.0)
    return binom * np.stack(by_order, axis=1)[:, n, alpha]


def exponential_matrix(params: SystemParams, osc: OscillatorId, k_x, size: int) -> np.ndarray:
    """Matrix of exp(-i k_x x_hat) on the lowest `size` levels of oscillator osc;
    for a 1-D array of k_x, the stack of those matrices, one per entry.

    x_hat = center + relative coordinate; the center contributes the phase
    exp(-i k_x x0) and the relative part is the displacement exp(i lam x_rel)
    with lam = -k_x and alpha = i lam d.  Its closed Laguerre form (Cahill &
    Glauber 1969) is exact for every (m, n): with lo = min(m, n) and
    g = |m - n|, element (m, n) is
    sqrt(lo!/(lo+g)!) alpha^g exp(-|alpha|^2/2) L_lo^(g)(|alpha|^2).
    alpha is purely imaginary, so -conj(alpha) = alpha and the matrix is
    symmetric.  L comes from _genlaguerre, scipy's integer-order recurrence
    in numpy.  Where exp(-|alpha|^2/2) underflows the matrix is zero; alpha
    is zeroed there first, so alpha^g and L cannot overflow.  The Gaussian
    and the phase are taken with math's functions entry by entry, so every
    matrix of a stack equals its scalar call bit for bit.
    """
    k = np.atleast_1d(np.asarray(k_x, dtype=float))
    x0 = osc.center(params)
    lam_d = -k * params.dipole_d
    gauss = np.array([math.exp(-0.5 * (ld * ld)) for ld in lam_d.tolist()])
    lam_d[gauss == 0.0] = 0.0
    a2 = lam_d * lam_d  # |alpha|^2
    phase = np.array([complex(math.cos(kx * x0), -math.sin(kx * x0)) for kx in k.tolist()])
    m, n = np.indices((size, size))
    lo, g = np.minimum(m, n), np.abs(m - n)
    factorial = np.array([math.factorial(i) for i in range(size)], dtype=float)
    out = phase[:, None, None] * (
        np.sqrt(factorial[lo] / factorial[lo + g]) * (1j * lam_d[:, None, None]) ** g
        * gauss[:, None, None] * _genlaguerre(lo, g, a2, factorial))
    out[gauss == 0.0] = 0.0
    return out if np.ndim(k_x) else out[0]


# ---------------------------------------------------------------------------
# Independent oracle: direct wavefunction quadrature of the form factor
# ---------------------------------------------------------------------------

def _eigenfunction(n: int, x: np.ndarray, length: float) -> np.ndarray:
    """1-D harmonic-oscillator eigenfunction with transition length `length`.

    The natural width is sqrt(2)*length (since length^2 = hbar/(2 m omega)).
    """
    width = math.sqrt(2.0) * length
    u = x / width
    norm = (1.0 / (math.pi * width * width)) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    return norm * np.polynomial.hermite.hermval(u, [0] * n + [1]) * np.exp(-0.5 * u * u)


def form_factor_oracle(params: SystemParams, osc: OscillatorId, k_x):
    """Gauss-Hermite integral of phi_0(x) exp(-i k_x x) phi_1(x) dx at one k_x or an array.

    Independent check of the (-i k_x d) exp(-(k_x d)^2/2) closed form: builds
    the eigenfunctions explicitly and never touches the matrix-element code.
    Convergence is verified by doubling the node count from 64; disagreement
    beyond 1e-10 relative raises ConvergenceError with the first unsettled residual.
    """
    k = np.atleast_1d(np.asarray(k_x, dtype=float))
    if not np.isfinite(k).all():
        raise ValueError("k_x must be finite")
    d = params.dipole_d

    def quad(n: int) -> np.ndarray:
        # Gauss-Hermite for weight exp(-t^2); the product phi_0 phi_1 carries
        # exp(-x^2/(2 d^2)), so substitute x = sqrt(2) d t.  One row per k_x.
        t, w = _hermgauss(n)
        x = math.sqrt(2.0) * d * t
        # np.exp(t * t) strips the weight already in the eigenfunctions
        f = (_eigenfunction(0, x, d) * _eigenfunction(1, x, d) * np.exp(-1j * k[:, None] * x)
             * np.exp(t * t))
        return np.sum(w * f, axis=-1) * math.sqrt(2.0) * d

    coarse, fine = quad(64), quad(128)
    scale = np.maximum(np.abs(fine), np.abs(k) * d)  # -> 0 limit handled by absolute floor
    residual = np.abs(fine - coarse)
    unsettled = (scale > 0) & (residual > 1e-10 * scale + 1e-14)
    if unsettled.any():
        raise ConvergenceError(f"form-factor quadrature did not settle: residual"
                               f" {residual[unsettled][0]:.3e} at k_x = {k[unsettled][0]}")
    return fine if np.ndim(k_x) else complex(fine[0])
