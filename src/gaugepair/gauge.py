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
(inverse_transform_vertices) and the residual coupling -- are fock.Stacks,
as the covariant coupling is, with a two-level oscillator matrix per mode,
applied by fock.apply_vertices.  Unlike the coupling they project nothing:
a raising step past p_max photons raises TruncationError.
operator_route_brackets builds the map's stacks once and applies them thrice.

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
    Stacks,
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

def _zero_stacks(registry: ModeRegistry) -> Stacks:
    """A coupling (fock.Stacks) with every vertex matrix zero.  The gauge
    couplings' sources are two-level: mode j's matrix holds an element up on
    0 -> 1 at [j, 1, 0] and one down on 1 -> 0 at [j, 0, 1]; levels above the
    qubit subspace are outside the charge/current model and drop out."""
    size = registry.n_max + 1
    return {(osc, raising): np.zeros((len(registry), size, size), dtype=complex)
            for osc in "AB" for raising in (True, False)}


def inverse_transform_vertices(params: SystemParams, registry: ModeRegistry) -> Stacks:
    """The mapping operator's exponent as vertex stacks, one power of it per
    apply_vertices; its longitudinal matrices are zero, so it takes no step
    on a longitudinal mode.

    Each scalar mode and oscillator lowers with the charge-density element at
    -k and raises with the one at +k; in ordinary-amplitude bookkeeping the
    metric adjoint of scalar raising carries the metric sign, so the raising
    vertex is weighted by minus the registry's raising_sign: corrupting that
    sign flips this operator and the closed forms in lockstep.  Applied to a
    term with no photon headroom in a scalar mode, it raises TruncationError.
    """
    stacks = _zero_stacks(registry)
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
        raise_coeff = -registry.raising_sign(idx) * coeff
        for osc in (OscillatorId.A, OscillatorId.B):
            # the two-level charge density carries the same element both ways
            lowered = coeff * rho_fourier_element(params, osc, mode.k_vector, -1)
            raised = raise_coeff * rho_fourier_element(params, osc, mode.k_vector, +1)
            stacks[osc.value, False][idx, 1, 0] = stacks[osc.value, False][idx, 0, 1] = lowered
            stacks[osc.value, True][idx, 1, 0] = stacks[osc.value, True][idx, 0, 1] = raised
    return stacks


def _residual_coupling(params: SystemParams, registry: ModeRegistry, state: StateVector,
                       corrupt: bool = False) -> StateVector:
    """The residual longitudinal-scalar coupling applied to state.

    Each longitudinal mode couples through the metric-null pair at its wave
    vector: the creating half raises a_l^dag - a_s^dag (metric-adjoint
    daggers), the annihilating half lowers a_l - a_s: the scalar partner's
    elements are pair_sign * raising_sign and -1 times the longitudinal ones.
    corrupt=True flips the relative sign inside the created pair -- the
    negative control.  A term with no photon headroom in a mode of a pair
    raises TruncationError.
    """
    pair_sign = 1.0 if corrupt else -1.0
    stacks = _zero_stacks(registry)
    for idx, mode in enumerate(registry.modes):
        if mode.kind is not PolarizationKind.LONGITUDINAL:
            continue
        _, s_idx = registry.pair_at(mode.k_vector)
        sw = math.sqrt(registry.weights[idx])
        partner = pair_sign * registry.raising_sign(s_idx)
        for osc in (OscillatorId.A, OscillatorId.B):
            emission = longitudinal_emission(params, osc, mode.k_vector)
            absorption = longitudinal_absorption(params, osc, mode.k_vector)
            created, annihilated = stacks[osc.value, True], stacks[osc.value, False]
            up, down = -sw * emission, sw * emission
            created[idx, 1, 0], created[idx, 0, 1] = up, down
            created[s_idx, 1, 0], created[s_idx, 0, 1] = partner * up, partner * down
            up, down = sw * absorption, -sw * absorption
            annihilated[idx, 1, 0], annihilated[idx, 0, 1] = up, down
            annihilated[s_idx, 1, 0], annihilated[s_idx, 0, 1] = -up, -down
    return apply_vertices(registry, stacks, state)


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


def operator_route_brackets(params: SystemParams,
                            k_vector: tuple[float, float, float]) -> tuple[float, float]:
    """(linear, quadratic) brackets via explicit state algebra on a +-k mode
    registry, normalized exactly like transform_brackets.

    Independent of the closed forms -- any sign slip in the ladder or metric
    conventions shows up here as a mismatch.  Virtual kets with two photons
    cannot reach the vacuum-sector target, so the final projection discards
    them, matching the single-photon truncation used throughout.
    """
    negated = tuple(-component for component in k_vector)
    registry = make_registry((k_vector, negated), n_max=2, p_max=2)
    norm = 2.0 * coulomb_integrand(params, k_vector)
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
