"""Equivalence of the two gauge routes via the explicit mapping operator,
order by order in the coupling charge.

The static-route entangled state maps back to the covariant-route one through
the inverse of an operator built from the oscillator charge density and the
scalar-photon sector.  Expanding both the operator and the state to second
order in the charge splits the mapped amplitude into three pieces: the
identity part of the operator on the second-order state, the linear part on
the first-order state, and the quadratic part on the unperturbed state.
Their sum reproduces the covariant bracket exactly at every photon
wavevector -- before any radial integration -- which is the sharpest gauge
check this engine runs.

Two independent routes produce the same brackets:

* closed forms (transform_brackets), derived once by hand; and
* explicit state algebra on a small discrete mode registry
  (operator_route_brackets), which exercises the indefinite-metric ladder
  conventions end to end and catches any sign slip in them.

Both operators of that algebra -- the mapping operator's exponent
(inverse_transform_vertices) and the residual coupling -- are vertex
lists, as the covariant coupling is: a photon step on one mode times a
two-level oscillator matrix, applied by fock.apply_vertices.  Unlike
the coupling they project nothing: a raising step past p_max photons raises
TruncationError.  operator_route_brackets builds the map's list once and
applies it three times.

The coupling left over after the mapping ties the longitudinal current to
photon-pair combinations that are metric-null; residual_term_physicality
measures the subsidiary-condition violation it produces, which must vanish
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemParams, ValidationError
from .fock import (
    ModeRegistry,
    OccupationState,
    PolarizationKind,
    StateVector,
    Vertex,
    apply_vertices,
    check_subsidiary,
    make_registry,
    physical_pair_raise,
)
from .matelem import (
    TWO_PI_CUBED,
    OscillatorId,
    longitudinal_absorption,
    longitudinal_emission,
    mode_scale,
    rho_fourier_element,
)
from .perturbation import (
    PoleError,
    coulomb_integrand,
    lorentz_bracket,
    resolvent,
    uncoupled_energy,
)
from .quadrature import Fractions, IntegralResult, QuadratureConfig, epsilon_columns


@dataclass(frozen=True)
class PerKReport:
    """Per-wavevector comparison of the covariant bracket against the three
    mapped terms, at one frequency (floats) or at an array of them (arrays).
    residual must vanish to rounding for every valid frequency -- the
    equivalence holds mode by mode, not just integrated."""

    omega_gamma: float | np.ndarray
    bracket_lorentz: float | np.ndarray
    bracket_identity: float | np.ndarray
    bracket_linear: float | np.ndarray
    bracket_quadratic: float | np.ndarray
    residual: float | np.ndarray


def transform_brackets(params: SystemParams, omega_gamma):
    """Closed-form mapped brackets (identity, linear, quadratic), normalized
    so the identity term is exactly 1 (the static-route bracket).

    The sum reproduces lorentz_bracket's full detuning dependence exactly,
    not only through the expansion order.  Accepts scalars or arrays.
    """
    w = np.asarray(omega_gamma, dtype=float)
    if (w <= 0.0).any():
        raise ValidationError("photon frequency must be positive")
    if (w == params.omega_a).any():
        raise PoleError(f"bracket undefined on the resonance omega = {params.omega_a}")
    de = params.delta_e / params.hbar
    identity = np.ones_like(w)
    linear = (de / (2.0 * w)) * (
        params.omega_a / (params.omega_a - w) + params.omega_b / (params.omega_b + w)
    )
    quadratic = -de / (2.0 * w)
    if w.ndim == 0:
        return float(identity), float(linear), float(quadratic)
    return identity, linear, quadratic


def per_k_equivalence(params: SystemParams, omega_gamma) -> PerKReport:
    """Evaluate both routes at one frequency, or elementwise at an array of
    them, and report the residual."""
    ident, lin, quad = transform_brackets(params, omega_gamma)
    covariant = lorentz_bracket(params, omega_gamma)
    return PerKReport(
        omega_gamma=omega_gamma,
        bracket_lorentz=covariant,
        bracket_identity=ident,
        bracket_linear=lin,
        bracket_quadratic=quad,
        residual=covariant - (ident + lin + quad),
    )


def mapped_column(params: SystemParams) -> Fractions:
    """The summed mapped bracket as a report column: B(omega)/omega in
    partial fractions, with the covariant bracket's pole at omega_a.

    They are the sum of the three pieces' (transform_brackets), each divided
    by omega (de = delta_e/hbar):
      identity:  1/omega;
      linear:    (de/2) [2/omega^2 + (1/omega_a - 1/omega_b)/omega
                         + (1/omega_a)/(omega_a - omega) + (1/omega_b)/(omega_b + omega)],
                 from omega_a/(omega^2 (omega_a - omega)) and
                 omega_b/(omega^2 (omega_b + omega));
      quadratic: -(de/2)/omega^2.
    """
    wa, wb = params.omega_a, params.omega_b
    half = 0.5 * params.delta_e / params.hbar
    identity = (("inv", 0.0, 1.0),)
    linear = (
        ("inv2", 0.0, 2.0 * half),
        ("inv", 0.0, half * (1.0 / wa - 1.0 / wb)),
        ("pole", wa, half / wa),
        ("plus", wb, half / wb),
    )
    quadratic = (("inv2", 0.0, -half),)
    return identity + linear + quadratic


def transformed_epsilon(params: SystemParams, config: QuadratureConfig) -> IntegralResult:
    """Integrate the summed mapped bracket by the k_x route (principal value
    across the resonance).

    The per-mode identity makes this integrand pointwise equal to the
    covariant one, so the result must match epsilon_lorentz to quadrature
    error -- any disagreement is a bug, not physics.
    """
    return epsilon_columns(params, config, [mapped_column(params)])[0]


# ---------------------------------------------------------------------------
# Operator route: the same brackets from explicit state algebra
# ---------------------------------------------------------------------------

def _two_level(registry: ModeRegistry, up: complex, down: complex) -> np.ndarray:
    """Oscillator matrix of a two-level source: up on 0 -> 1, down on 1 -> 0.
    Levels above the qubit subspace are outside the charge/current model and
    drop out."""
    matrix = np.zeros((registry.n_max + 1, registry.n_max + 1), dtype=complex)
    matrix[1, 0], matrix[0, 1] = up, down
    return matrix


def inverse_transform_vertices(params: SystemParams, registry: ModeRegistry) -> list[Vertex]:
    """The mapping operator's exponent as a vertex list, one power of it per
    apply_vertices.

    Each scalar mode and oscillator lowers with the charge-density element at
    -k and raises with the one at +k; in ordinary-amplitude bookkeeping the
    metric adjoint of scalar raising carries the metric sign, so the raising
    vertex is weighted by minus the registry's raising_sign: corrupting that
    sign flips this operator and the closed forms in lockstep.  Applied to a
    term with no photon headroom in a scalar mode, it raises TruncationError.
    """
    vertices = []
    for idx, mode in enumerate(registry.modes):
        if mode.kind is not PolarizationKind.SCALAR:
            continue
        s_full = mode_scale(params, mode.omega) * TWO_PI_CUBED**0.5
        coeff = (
            params.c
            * math.sqrt(registry.weights[idx])
            * s_full
            / (params.hbar * mode.omega)
        )
        for osc in (OscillatorId.A, OscillatorId.B):
            # the two-level charge density carries the same element both ways
            rho_minus = rho_fourier_element(params, osc, mode.k_vector, -1)
            rho_plus = rho_fourier_element(params, osc, mode.k_vector, +1)
            vertices += [
                Vertex(idx, osc.value, False, coeff * _two_level(registry, rho_minus, rho_minus)),
                Vertex(idx, osc.value, True, (-registry.raising_sign(idx) * coeff)
                       * _two_level(registry, rho_plus, rho_plus)),
            ]
    return vertices


def _residual_coupling(params: SystemParams, registry: ModeRegistry, state: StateVector,
                       corrupt: bool = False) -> StateVector:
    """The residual longitudinal-scalar coupling applied to state.

    Each longitudinal mode couples through the metric-null pair at its wave
    vector: the creating half raises a_l^dag - a_s^dag (metric-adjoint
    daggers), the annihilating half lowers a_l - a_s.  corrupt=True flips the
    relative sign inside the created pair -- the negative control.  A term
    with no photon headroom in a mode of a pair raises TruncationError.
    """
    pair_sign = 1.0 if corrupt else -1.0
    vertices = []
    for idx, mode in enumerate(registry.modes):
        if mode.kind is not PolarizationKind.LONGITUDINAL:
            continue
        _, s_idx = registry.pair_at(mode.k_vector)
        sw = math.sqrt(registry.weights[idx])
        for osc in (OscillatorId.A, OscillatorId.B):
            emission = longitudinal_emission(params, osc, mode.k_vector)
            absorption = longitudinal_absorption(params, osc, mode.k_vector)
            created = _two_level(registry, -sw * emission, sw * emission)
            annihilated = _two_level(registry, sw * absorption, -sw * absorption)
            vertices += [
                Vertex(idx, osc.value, True, created),
                Vertex(s_idx, osc.value, True,
                       (pair_sign * registry.raising_sign(s_idx)) * created),
                Vertex(idx, osc.value, False, annihilated),
                Vertex(s_idx, osc.value, False, -annihilated),
            ]
    return apply_vertices(registry, vertices, state)


def residual_first_order_state(params: SystemParams, registry: ModeRegistry) -> StateVector:
    """First-order correction generated by the residual longitudinal-scalar
    coupling, starting from the tracked excitation (first oscillator excited,
    photon vacuum).

    Only the photon-creating half contributes -- the annihilation half kills
    the vacuum -- and every created quantum enters through the metric-null
    pair combination, so the result satisfies the subsidiary condition.
    """
    start = StateVector.basis(registry, level_a=1, level_b=0)
    energy = uncoupled_energy(params, registry, OccupationState(1, 0))
    return resolvent(params, registry, _residual_coupling(params, registry, start), energy)


def operator_route_brackets(params: SystemParams, k_vector: tuple[float, float, float],
                            weight: float = 1.0) -> tuple[float, float]:
    """(linear, quadratic) brackets via explicit state algebra on a +-k mode
    registry, normalized exactly like transform_brackets.

    Independent of the closed forms -- any sign slip in the ladder or metric
    conventions shows up here as a mismatch.  Virtual kets with two photons
    cannot reach the vacuum-sector target, so the final projection discards
    them, matching the single-photon truncation used throughout.
    """
    negated = tuple(-component for component in k_vector)
    registry = make_registry((k_vector, negated), weights=(weight, weight), n_max=2, p_max=2)
    norm = 2.0 * weight * coulomb_integrand(params, k_vector)
    if abs(norm) < 1e-300:
        raise ValidationError(
            "static-route integrand vanishes at this wavevector; bracket undefined"
        )
    target = OccupationState(0, 1)

    mapping = inverse_transform_vertices(params, registry)  # built once, applied three times
    first_order = residual_first_order_state(params, registry)
    mapped_once = apply_vertices(registry, mapping, first_order)
    linear = mapped_once.amplitude(target) / norm

    bare = StateVector.basis(registry, level_a=1, level_b=0)
    mapped_twice = apply_vertices(registry, mapping, apply_vertices(registry, mapping, bare))
    quadratic = 0.5 * mapped_twice.amplitude(target) / norm

    for name, value in (("linear", linear), ("quadratic", quadratic)):
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise RuntimeError(
                f"{name} bracket came out complex ({value}); +-k symmetry is broken"
            )
    return float(linear.real), float(quadratic.real)


# ---------------------------------------------------------------------------
# Subsidiary condition for the residual coupling
# ---------------------------------------------------------------------------

def residual_term_physicality(params: SystemParams, k_vector: tuple[float, float, float],
                              photon_quanta: int = 0, corrupt: bool = False) -> float:
    """Apply the residual longitudinal-scalar coupling to a physical state
    and return the subsidiary-condition violation of the result.

    Zero in a sound build, independent of how many metric-null pair quanta
    the start state already carries.  corrupt=True flips the relative sign
    inside the created photon pair -- the negative control that must produce
    a nonzero violation.
    """
    registry = make_registry((k_vector,), n_max=2, p_max=max(2, photon_quanta + 2))
    start = StateVector.basis(registry, level_a=1, level_b=0)
    for _ in range(photon_quanta):
        start = physical_pair_raise(start, k_vector)
    return check_subsidiary(_residual_coupling(params, registry, start, corrupt), k_vector)
