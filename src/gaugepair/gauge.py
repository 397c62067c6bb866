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

The coupling left over after the mapping ties the longitudinal current to
photon-pair combinations that are metric-null; residual_term_physicality
measures the subsidiary-condition violation it produces, which must vanish
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .core import SystemParams, ValidationError
from .fock import (
    ModeRegistry,
    OccupationState,
    PolarizationKind,
    StateVector,
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
from .perturbation import PoleError, ResonanceError, coulomb_integrand, lorentz_bracket
from .quadrature import Column, IntegralResult, QuadratureConfig, epsilon_columns


@dataclass(frozen=True)
class PerKReport:
    """Single-wavevector comparison of the covariant bracket against the
    three mapped terms.  residual must vanish to rounding for every valid
    frequency -- the equivalence holds mode by mode, not just integrated."""

    omega_gamma: float
    bracket_lorentz: float
    bracket_identity: float
    bracket_linear: float
    bracket_quadratic: float
    residual: float


def transform_brackets(params: SystemParams, omega_gamma):
    """Closed-form mapped brackets (identity, linear, quadratic), normalized
    so the identity term is exactly 1 (the static-route bracket).

    The sum reproduces lorentz_bracket's full detuning dependence exactly,
    not only through the expansion order.  Accepts scalars or arrays.
    """
    w = np.asarray(omega_gamma, dtype=float)
    if np.any(w <= 0.0):
        raise ValidationError("photon frequency must be positive")
    if np.any(w == params.omega_a):
        raise PoleError(f"bracket undefined on the resonance omega = {params.omega_a}")
    de = params.delta_e / params.hbar
    identity = np.ones_like(w)
    linear = (de / (2.0 * w)) * (
        params.omega_a / (params.omega_a - w) + params.omega_b / (params.omega_b + w)
    )
    quadratic = -de / (2.0 * w) * np.ones_like(w)
    if w.ndim == 0:
        return float(identity), float(linear), float(quadratic)
    return identity, linear, quadratic


def per_k_equivalence(params: SystemParams, omega_gamma: float) -> PerKReport:
    """Evaluate both routes at one frequency and report the residual."""
    ident, lin, quad = transform_brackets(params, omega_gamma)
    covariant = lorentz_bracket(params, omega_gamma)
    return PerKReport(
        omega_gamma=float(omega_gamma),
        bracket_lorentz=covariant,
        bracket_identity=ident,
        bracket_linear=lin,
        bracket_quadratic=quad,
        residual=covariant - (ident + lin + quad),
    )


def mapped_column(params: SystemParams) -> Column:
    """The summed mapped bracket as a column of the shared radial engine,
    with the covariant bracket's pole at omega_a."""

    def bracket(omega: np.ndarray) -> np.ndarray:
        ident, lin, quad = transform_brackets(params, omega)
        return ident + lin + quad

    return Column(bracket, pole=True)


def transformed_epsilon(params: SystemParams, config: QuadratureConfig) -> IntegralResult:
    """Integrate the summed mapped bracket with the shared radial engine
    (principal value across the resonance).

    The per-mode identity makes this integrand pointwise equal to the
    covariant one, so the result must match epsilon_lorentz to quadrature
    error -- any disagreement is a bug, not physics.
    """
    return epsilon_columns(params, config, [mapped_column(params)])[0]


# ---------------------------------------------------------------------------
# Operator route: the same brackets from explicit state algebra
# ---------------------------------------------------------------------------

def _apply_two_level(
    registry: ModeRegistry,
    state: StateVector,
    osc: OscillatorId,
    element_raise: complex,
    element_lower: complex,
) -> StateVector:
    # two-level source operator: levels above the qubit subspace are outside
    # the charge/current model and drop out
    amps: dict[OccupationState, complex] = {}
    for occ, amp in state.terms():
        level = occ.level_a if osc is OscillatorId.A else occ.level_b
        if level == 0:
            element = element_raise
            new_level = 1
        elif level == 1:
            element = element_lower
            new_level = 0
        else:
            continue
        if osc is OscillatorId.A:
            new = dc_replace(occ, level_a=new_level)
        else:
            new = dc_replace(occ, level_b=new_level)
        amps[new] = amps.get(new, 0.0j) + amp * element
    return StateVector(registry, amps)


def _apply_charge_fourier(
    params: SystemParams,
    registry: ModeRegistry,
    state: StateVector,
    osc: OscillatorId,
    k_vector: tuple[float, float, float],
    sign: int,
) -> StateVector:
    # the two-level charge density carries the same element in both directions
    element = rho_fourier_element(params, osc, k_vector, sign)
    return _apply_two_level(registry, state, osc, element, element)


def apply_inverse_transform_linear(
    params: SystemParams, registry: ModeRegistry, state: StateVector
) -> StateVector:
    """One power of the mapping operator's exponent.

    In ordinary-amplitude bookkeeping the metric adjoint of scalar raising
    carries the metric sign, so the creation half is weighted by minus the
    registry's scalar_metric_sign: corrupting that sign flips this operator
    and the closed forms in lockstep.  The registry must leave one quantum of
    photon headroom above the states reached.
    """
    sigma = registry.raising_sign
    total = StateVector(registry, {})
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
        lowered = state.annihilate(idx)
        raised = state.create(idx)
        for osc in (OscillatorId.A, OscillatorId.B):
            if not lowered.is_zero():
                total = total + coeff * _apply_charge_fourier(
                    params, registry, lowered, osc, mode.k_vector, -1
                )
            if not raised.is_zero():
                total = total + (-sigma(idx) * coeff) * _apply_charge_fourier(
                    params, registry, raised, osc, mode.k_vector, +1
                )
    return total


def residual_first_order_state(params: SystemParams, registry: ModeRegistry) -> StateVector:
    """First-order correction generated by the residual longitudinal-scalar
    coupling, starting from the tracked excitation (first oscillator excited,
    photon vacuum).

    Only the photon-creating half contributes -- the annihilation half kills
    the vacuum -- and every created quantum enters through the metric-null
    pair combination, so the result satisfies the subsidiary condition.
    """
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
            denom = start_energy - energy
            if abs(denom) < 1e-12 * max(1.0, abs(start_energy)):
                raise ResonanceError(
                    f"registry mode at omega = {mode.omega} is degenerate with the start state"
                )
            total = total + (element / denom) * physical_pair_raise(ket, mode.k_vector)
    return total


def _paired_registry(
    k_vector: tuple[float, float, float], weight: float
) -> ModeRegistry:
    negated = tuple(-component for component in k_vector)
    return make_registry((k_vector, negated), weights=(weight, weight), n_max=2, p_max=2)


def operator_route_brackets(
    params: SystemParams,
    k_vector: tuple[float, float, float],
    weight: float = 1.0,
    registry: ModeRegistry | None = None,
) -> tuple[float, float]:
    """(linear, quadratic) brackets via explicit state algebra on a +-k mode
    registry, normalized exactly like transform_brackets.

    Independent of the closed forms -- any sign slip in the ladder or metric
    conventions shows up here as a mismatch.  Virtual kets with two photons
    cannot reach the vacuum-sector target, so the final projection discards
    them, matching the single-photon truncation used throughout.
    """
    if registry is None:
        registry = _paired_registry(k_vector, weight)
    norm = 2.0 * weight * coulomb_integrand(params, k_vector)
    if abs(norm) < 1e-300:
        raise ValidationError(
            "static-route integrand vanishes at this wavevector; bracket undefined"
        )
    target = OccupationState(0, 1, (0,) * len(registry))

    first_order = residual_first_order_state(params, registry)
    mapped_once = apply_inverse_transform_linear(params, registry, first_order)
    linear = mapped_once.amplitude(target) / norm

    bare = StateVector.basis(registry, level_a=1, level_b=0)
    mapped_twice = apply_inverse_transform_linear(
        params, registry, apply_inverse_transform_linear(params, registry, bare)
    )
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

def residual_term_physicality(
    params: SystemParams,
    k_vector: tuple[float, float, float],
    registry: ModeRegistry | None = None,
    photon_quanta: int = 0,
    corrupt: bool = False,
) -> float:
    """Apply the residual longitudinal-scalar coupling to a physical state
    and return the subsidiary-condition violation of the result.

    Zero in a sound build, independent of how many metric-null pair quanta
    the start state already carries.  corrupt=True flips the relative sign
    inside the created photon pair -- the negative control that must produce
    a nonzero violation.
    """
    if registry is None:
        registry = make_registry(
            (k_vector,), n_max=2, p_max=max(2, photon_quanta + 2)
        )

    start = StateVector.basis(registry, level_a=1, level_b=0)
    for _ in range(photon_quanta):
        start = physical_pair_raise(start, k_vector)

    total = StateVector(registry, {})
    for idx, mode in enumerate(registry.modes):
        if mode.kind is not PolarizationKind.LONGITUDINAL:
            continue
        _, s_idx = registry.pair_at(mode.k_vector)
        sw = math.sqrt(registry.weights[idx])
        for osc in (OscillatorId.A, OscillatorId.B):
            emission = longitudinal_emission(params, osc, mode.k_vector)
            absorption = longitudinal_absorption(params, osc, mode.k_vector)
            created = _apply_two_level(
                registry, start, osc, -sw * emission, sw * emission
            )
            if not created.is_zero():
                raised_l = created.create_physical(idx)
                raised_s = created.create_physical(s_idx)
                pair = (raised_l + raised_s) if corrupt else (raised_l - raised_s)
                total = total + pair
            annihilated = _apply_two_level(
                registry, start, osc, sw * absorption, -sw * absorption
            )
            if not annihilated.is_zero():
                total = total + (
                    annihilated.annihilate(idx) - annihilated.annihilate(s_idx)
                )
    return check_subsidiary(total, k_vector)
