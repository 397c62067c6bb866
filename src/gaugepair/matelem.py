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

Every function returns 0 when charge_q = 0.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import eval_genlaguerre, eval_hermite

from .core import SystemParams

TWO_PI_CUBED = (2.0 * math.pi) ** 3


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


def _k_parts(k_vector) -> tuple[float, float]:
    """(k_x, |k|); rejects the zero vector, whose mode frequency vanishes."""
    kx = float(k_vector[0])
    k_norm = math.sqrt(sum(float(c) ** 2 for c in k_vector))
    if k_norm == 0.0:
        raise ValueError("zero wave vector: mode frequency would vanish")
    return kx, k_norm


def mode_scale(params: SystemParams, omega_gamma: float) -> float:
    """Per-mode field normalization sqrt(hbar / (2 eps0 omega (2pi)^3))."""
    return math.sqrt(params.hbar / (2.0 * params.eps0 * omega_gamma * TWO_PI_CUBED))


def gaussian_form_factor(params: SystemParams, k_x: float) -> float:
    """exp(-(k_x d)^2 / 2): the beyond-point-dipole factor that regulates all
    the k integrals.  Real by construction."""
    kd = k_x * params.dipole_d
    return math.exp(-0.5 * kd * kd)


# ---------------------------------------------------------------------------
# Covariant-gauge elements: scalar and longitudinal photons
# ---------------------------------------------------------------------------

def scalar_emission(params: SystemParams, osc: OscillatorId, k_vector) -> complex:
    """Oscillator drops one level, emits one scalar photon at k."""
    kx, k_norm = _k_parts(k_vector)
    omega_gamma = params.c * k_norm
    kd = kx * params.dipole_d
    phase = complex(math.cos(kx * osc.center(params)), -math.sin(kx * osc.center(params)))
    return (
        params.charge_q
        * params.c
        * mode_scale(params, omega_gamma)
        * complex(0.0, -kd)
        * phase
        * gaussian_form_factor(params, kx)
    )


def scalar_absorption(params: SystemParams, osc: OscillatorId, k_vector) -> complex:
    """Oscillator climbs one level, absorbs one scalar photon at k.

    Leading minus sign: metric adjoint, not ordinary Hermitian conjugate.
    Equals -conj(scalar_emission) at the same (osc, k).
    """
    kx, k_norm = _k_parts(k_vector)
    omega_gamma = params.c * k_norm
    kd = kx * params.dipole_d
    phase = complex(math.cos(kx * osc.center(params)), math.sin(kx * osc.center(params)))
    return (
        -params.charge_q
        * params.c
        * mode_scale(params, omega_gamma)
        * complex(0.0, kd)
        * phase
        * gaussian_form_factor(params, kx)
    )


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
    kx *= sign
    kd = kx * params.dipole_d
    x0 = osc.center(params)
    phase = complex(math.cos(kx * x0), -math.sin(kx * x0))
    return (
        params.charge_q
        * complex(0.0, -kd)
        * phase
        * gaussian_form_factor(params, kx)
        / (2.0 * math.pi) ** 1.5
    )


# ---------------------------------------------------------------------------
# Displacement-operator elements (exact on any truncated oscillator basis)
# ---------------------------------------------------------------------------

def displacement_element(m: int, n: int, lam_d: float) -> complex:
    """<m| exp(i lam x_rel) |n> for an oscillator whose transition length is d,
    with lam_d = lam * d.

    Closed Laguerre form of the displacement operator with alpha = i lam d;
    exact for every (m, n), so no truncation error enters through here.
    """
    alpha = 1j * lam_d
    a2 = lam_d * lam_d  # |alpha|^2
    if m >= n:
        return (
            math.sqrt(math.factorial(n) / math.factorial(m))
            * alpha ** (m - n)
            * math.exp(-0.5 * a2)
            * eval_genlaguerre(n, m - n, a2)
        )
    # alpha is purely imaginary, so -conj(alpha) = alpha and the matrix is
    # symmetric; keep the general branch anyway for clarity.
    return (
        math.sqrt(math.factorial(m) / math.factorial(n))
        * (-alpha.conjugate()) ** (n - m)
        * math.exp(-0.5 * a2)
        * eval_genlaguerre(m, n - m, a2)
    )


def exponential_matrix(params: SystemParams, osc: OscillatorId, k_x: float, size: int) -> np.ndarray:
    """Matrix of exp(-i k_x x_hat) on the lowest `size` levels of oscillator osc.

    x_hat = center + relative coordinate; the center contributes the phase
    exp(-i k_x x0) and the relative part is a displacement with lam = -k_x.
    """
    lam_d = -k_x * params.dipole_d
    x0 = osc.center(params)
    phase = complex(math.cos(k_x * x0), -math.sin(k_x * x0))
    out = np.empty((size, size), dtype=complex)
    for m in range(size):
        for n in range(size):
            out[m, n] = displacement_element(m, n, lam_d)
    return phase * out


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
    return norm * eval_hermite(n, u) * np.exp(-0.5 * u * u)


def form_factor_oracle(params: SystemParams, osc: OscillatorId, k_x: float) -> complex:
    """integral of phi_0(x) exp(-i k_x x) phi_1(x) dx by Gauss-Hermite quadrature.

    Independent check of the (-i k_x d) exp(-(k_x d)^2/2) closed form: builds
    the eigenfunctions explicitly and never touches the matrix-element code.
    Convergence is verified by doubling the node count from 64; disagreement
    beyond 1e-10 relative raises ConvergenceError with the residual.
    """
    if not math.isfinite(k_x):
        raise ValueError("k_x must be finite")
    d = params.dipole_d

    def quad(n: int) -> complex:
        # Gauss-Hermite for weight exp(-t^2); the product phi_0 phi_1 carries
        # exp(-x^2/(2 d^2)), so substitute x = sqrt(2) d t.
        t, w = np.polynomial.hermite.hermgauss(n)
        x = math.sqrt(2.0) * d * t
        f = (
            _eigenfunction(0, x, d)
            * _eigenfunction(1, x, d)
            * np.exp(-1j * k_x * x)
            * np.exp(t * t)  # strip the weight already in the eigenfunctions
        )
        return complex(np.sum(w * f) * math.sqrt(2.0) * d)

    coarse = quad(64)
    fine = quad(128)
    scale = max(abs(fine), abs(k_x) * d)  # -> 0 limit handled by absolute floor
    residual = abs(fine - coarse)
    if scale > 0 and residual > 1e-10 * scale + 1e-14:
        raise ConvergenceError(
            f"form-factor quadrature did not settle: residual {residual:.3e} at k_x = {k_x}"
        )
    return fine
