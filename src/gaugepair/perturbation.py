"""Exchange amplitudes: four covariant-gauge diagrams at second order, the
first-order Coulomb-gauge integrand, and two discrete oracles on finite mode
registries (operator-route perturbation theory and exact diagonalization).

Two independent code paths compute the same physics on purpose:

* closed-form integrands (diagram_integrand, lorentz_bracket, ...) carry the
  algebra done by hand once;
* the operator route (InteractionOperator + discrete_second_order,
  exact_diagonalization_oracle) builds the coupling from ladder operators and
  displacement elements and must reproduce the closed forms numerically.

Collapsing the two into one would defeat the point: they disagree exactly when
a sign is wrong, which is the dominant failure mode in this calculation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg

from .core import SystemParams
from .fock import (
    PRUNE_TOL,
    ModeRegistry,
    OccupationState,
    PolarizationKind,
    StateVector,
)
from .matelem import (
    TWO_PI_CUBED,
    OscillatorId,
    _k_parts,
    exponential_matrix,
    mode_scale,
)


class PoleError(ValueError):
    """Evaluation exactly on the resonance with no regulator."""


class ResonanceError(RuntimeError):
    """A registry mode sits on the resonance; the discrete sum is ill-defined."""


class OracleError(RuntimeError):
    """Exact-diagonalization self-checks failed (tracking or spectrum reality)."""


# ---------------------------------------------------------------------------
# The four exchange diagrams
# ---------------------------------------------------------------------------

class ExchangeOrder(Enum):
    # The initially excited oscillator emits first; the intermediate state is
    # one photon + both oscillators down.  Resonant at omega_gamma = omega_a.
    RESONANT = "resonant"
    # The ground-state oscillator emits first; the intermediate state has both
    # oscillators up + one photon.  Never resonant for omega_gamma > 0.
    COUNTER_ROTATING = "counter_rotating"


@dataclass(frozen=True)
class DiagramSpec:
    order_type: ExchangeOrder
    photon_kind: PolarizationKind

    def __post_init__(self) -> None:
        if self.photon_kind not in (PolarizationKind.SCALAR, PolarizationKind.LONGITUDINAL):
            raise ValueError("exchange diagrams exist for scalar/longitudinal kinds only")


ALL_DIAGRAMS: tuple[DiagramSpec, ...] = (
    DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.SCALAR),
    DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.LONGITUDINAL),
    DiagramSpec(ExchangeOrder.COUNTER_ROTATING, PolarizationKind.SCALAR),
    DiagramSpec(ExchangeOrder.COUNTER_ROTATING, PolarizationKind.LONGITUDINAL),
)


def common_prefactor(params: SystemParams) -> float:
    """q^2 c / (2 eps0 delta_e (2 pi)^3): shared by all four diagram integrands."""
    return (
        params.charge_q**2
        * params.c
        / (2.0 * params.eps0 * params.delta_e * TWO_PI_CUBED)
    )


def diagram_integrand(params: SystemParams, spec: DiagramSpec, k_vector) -> complex:
    """One diagram's d^3k integrand, excluding common_prefactor.

    ((k.d)^2 / k) * phase * exp(-(k.d)^2) * resonance, where the resonant
    order carries phase exp(+i k_x L) and denominator (omega_a - omega_gamma)
    and the counter-rotating order carries exp(-i k_x L) and
    -(omega_b + omega_gamma).  Longitudinal diagrams get the extra factor
    -(omega_a omega_b / omega_gamma^2).
    """
    kx, k_norm = _k_parts(k_vector)
    omega = params.c * k_norm
    kd = kx * params.dipole_d
    kl = kx * params.separation_l

    if spec.order_type is ExchangeOrder.RESONANT:
        denom = params.omega_a - omega
        if denom == 0:
            raise PoleError(
                f"on the resonance omega_gamma = omega_a = {params.omega_a} with no regulator"
            )
        phase = cmath.exp(1j * kl)
    else:
        denom = -(params.omega_b + omega)
        phase = cmath.exp(-1j * kl)

    value = (kd * kd / k_norm) * phase * math.exp(-kd * kd) / denom
    if spec.photon_kind is PolarizationKind.LONGITUDINAL:
        value *= -(params.omega_a * params.omega_b) / (omega * omega)
    return value


def symmetric_diagram_sum(params: SystemParams, k_vector) -> complex:
    """Average over +-k of the four diagram integrands (common prefactor excluded).

    Real up to rounding; reproduces combined_bracket_form pointwise.
    """
    minus_k = tuple(-float(c) for c in k_vector)
    total = 0.0 + 0.0j
    for spec in ALL_DIAGRAMS:
        total += diagram_integrand(params, spec, k_vector)
        total += diagram_integrand(params, spec, minus_k)
    return 0.5 * total


def lorentz_bracket(params: SystemParams, omega_gamma):
    """The detuning-dependent bracket multiplying the Coulomb-form integrand.

    B(omega) = (1/2) * ((omega_a omega_b - omega^2)/omega)
             * (1/(omega_a - omega) - 1/(omega_b + omega)).
    Equals 1 identically when omega_b = omega_a, and tends to 1 as
    omega -> infinity.  Accepts a scalar or an ndarray of frequencies.
    """
    w = np.asarray(omega_gamma, dtype=float)
    if (w <= 0).any():
        raise ValueError("omega_gamma must be positive")
    if (w == params.omega_a).any():
        raise PoleError(f"bracket pole at omega_gamma = omega_a = {params.omega_a}")
    wa, wb = params.omega_a, params.omega_b
    out = 0.5 * ((wa * wb - w * w) / w) * (1.0 / (wa - w) - 1.0 / (wb + w))
    return float(out) if out.ndim == 0 else out


def combined_bracket_form(params: SystemParams, k_vector) -> float:
    """Closed form of symmetric_diagram_sum:
    -2 (k.d)^2 cos(k_x L) exp(-(k.d)^2) B(omega) / (k omega/c)."""
    kx, k_norm = _k_parts(k_vector)
    omega = params.c * k_norm
    kd = kx * params.dipole_d
    bracket = lorentz_bracket(params, omega)
    return (
        -2.0
        * kd
        * kd
        * math.cos(kx * params.separation_l)
        * math.exp(-kd * kd)
        * bracket
        * params.c
        / (k_norm * omega)
    )


def expansion_terms(params: SystemParams, omega_gamma, order: int):
    """Power-series term of lorentz_bracket in the splitting delta_e.

    order 0: 1
    order 1: (1/2) (omega_a^2 + omega^2) / (omega (omega_a + omega)(omega_a - omega)) * (delta_e/hbar)
    order 2: (1/2) (delta_e/hbar)^2 / (omega_a + omega)^2
    The three together equal the bracket up to O(delta_e^3), uniformly away
    from the pole.  Accepts a scalar or an ndarray of frequencies.
    """
    w = np.asarray(omega_gamma, dtype=float)
    if (w <= 0).any():
        raise ValueError("omega_gamma must be positive")
    wa = params.omega_a
    de = params.delta_e / params.hbar
    if order == 0:
        out = np.ones_like(w)
    elif order == 1:
        if (w == wa).any():
            raise PoleError(f"first-order term pole at omega_gamma = omega_a = {wa}")
        out = 0.5 * (wa * wa + w * w) / (w * (wa + w) * (wa - w)) * de
    elif order == 2:
        out = 0.5 * de * de / ((wa + w) ** 2)
    else:
        raise ValueError(f"order must be 0, 1, or 2, got {order}")
    return float(out) if out.ndim == 0 else out


def coulomb_integrand(params: SystemParams, k_vector) -> float:
    """First-order Coulomb-gauge d^3k integrand, full prefactor included:
    -(q^2/(eps0 delta_e (2pi)^3)) ((k.d)^2/k^2) cos(k_x L) exp(-(k.d)^2)."""
    kx, k_norm = _k_parts(k_vector)
    kd = kx * params.dipole_d
    return (
        -(params.charge_q**2 / (params.eps0 * params.delta_e * TWO_PI_CUBED))
        * (kd * kd / (k_norm * k_norm))
        * math.cos(kx * params.separation_l)
        * math.exp(-kd * kd)
    )


# ---------------------------------------------------------------------------
# Operator route: the coupling as ladder operators on a registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Vertex:
    mode_index: int
    oscillator: str  # "A" | "B"
    raising: bool
    matrix: np.ndarray  # oscillator-space coefficient matrix, couplings folded in


def _momentum_matrix(dipole_d: float, hbar: float, size: int) -> np.ndarray:
    """p_hat on the lowest `size` levels: (i hbar / 2d)(raise - lower)."""
    out = np.zeros((size, size), dtype=complex)
    for n in range(size - 1):
        out[n + 1, n] = 1j * hbar / (2.0 * dipole_d) * math.sqrt(n + 1)
        out[n, n + 1] = -1j * hbar / (2.0 * dipole_d) * math.sqrt(n + 1)
    return out


class InteractionOperator:
    """The covariant-gauge coupling mapped onto a finite mode registry.

    apply() uses truncated-operator semantics: amplitudes that would leave the
    registry's occupation bounds are projected out, i.e. this is the coupling
    restricted to the kept space.  That projection is exactly what both
    consumers need (second-order projections and truncated-basis
    diagonalization); the strict, loudly-erroring ladder operators remain
    available on StateVector for everything else.

    The quadratic field term of the minimal coupling is omitted: it is
    diagonal in both oscillators, so it cannot connect the singly-excited
    states at this order.
    """

    def __init__(self, params: SystemParams, registry: ModeRegistry, total_photon_cap: int | None = None):
        self.params = params
        self.registry = registry
        self.total_photon_cap = total_photon_cap
        self.vertices = self._build_vertices()
        # (mode_index, raising) -> that photon step's vertices, in build order
        self._by_step: dict[tuple[int, bool], list[_Vertex]] = {}
        for v in self.vertices:
            self._by_step.setdefault((v.mode_index, v.raising), []).append(v)

    def _build_vertices(self) -> list[_Vertex]:
        p = self.params
        reg = self.registry
        size = reg.n_max + 1
        pad = reg.n_max + 3  # room for exact operator products before slicing
        vertices: list[_Vertex] = []
        for j, mode in enumerate(reg.modes):
            if mode.kind in (PolarizationKind.TRANSVERSE1, PolarizationKind.TRANSVERSE2):
                raise NotImplementedError(
                    "transverse coupling is outside this engine (identical in both gauges)"
                )
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
                vertices.append(_Vertex(j, osc.value, True, raise_mat))
                vertices.append(_Vertex(j, osc.value, False, lower_mat))
        return vertices

    def apply(self, state: StateVector) -> StateVector:
        reg = self.registry
        n_levels = reg.n_max + 1
        out: dict[OccupationState, complex] = {}
        for occ, amp in state.terms():
            for v in self.vertices:
                stepped = occ.step(v.mode_index, v.raising, reg.p_max, self.total_photon_cap)
                if stepped is None:
                    continue  # projected out
                moved, photon_factor = stepped
                level = occ.level_a if v.oscillator == "A" else occ.level_b
                column = v.matrix[:, level]
                for m in range(n_levels):
                    c = column[m]
                    if abs(c) < 1e-300:
                        continue
                    if v.oscillator == "A":
                        new_occ = OccupationState._from_canonical(m, occ.level_b, moved.photons)
                    else:
                        new_occ = OccupationState._from_canonical(occ.level_a, m, moved.photons)
                    out[new_occ] = out.get(new_occ, 0.0) + amp * c * photon_factor
        return StateVector(reg, out)

    def coefficient(self, target: OccupationState, state: StateVector) -> complex:
        """apply(state).amplitude(target), forming no other term of apply(state).

        A term of the state reaches the target only through the one mode
        where their photon counts differ, and only by one ladder step there.
        Contributions are summed in apply's order (terms, vertices, levels)
        and pruned as StateVector prunes, so the value equals apply's bit
        for bit.
        """
        n_levels = self.registry.n_max + 1
        if not (target.level_a < n_levels and target.level_b < n_levels):
            return 0.0 + 0.0j
        total = 0.0
        for occ, amp in state.terms():
            modes = {j for j, _ in set(occ.photons).symmetric_difference(target.photons)}
            if len(modes) != 1:
                continue
            (j,) = modes
            raising = target.count(j) > occ.count(j)
            stepped = occ.step(j, raising, self.registry.p_max, self.total_photon_cap)
            if stepped is None or stepped[0].photons != target.photons:
                continue
            photon_factor = stepped[1]
            for v in self._by_step[(j, raising)]:
                if v.oscillator == "A":
                    if occ.level_b != target.level_b:
                        continue
                    c = v.matrix[target.level_a, occ.level_a]
                else:
                    if occ.level_a != target.level_a:
                        continue
                    c = v.matrix[target.level_b, occ.level_b]
                if abs(c) < 1e-300:
                    continue
                total = total + amp * c * photon_factor
        return complex(total) if abs(total) > PRUNE_TOL else 0.0 + 0.0j


# ---------------------------------------------------------------------------
# Energy denominators and the discrete second-order amplitude (operator route)
# ---------------------------------------------------------------------------

def uncoupled_energy(params: SystemParams, registry: ModeRegistry, occ: OccupationState) -> float:
    """Uncoupled energy hbar (omega_a n_a + omega_b n_b + sum omega_j n_j).

    Every kind contributes +hbar omega per quantum here: in the ordinary
    representation the scalar sector's sign lives in the metric, not in the
    diagonal.
    """
    e = params.omega_a * occ.level_a + params.omega_b * occ.level_b
    for j, n in occ.photons:
        e += registry.modes[j].omega * n
    return params.hbar * e


def resolvent(params: SystemParams, registry: ModeRegistry, state: StateVector,
              energy: float, skip: OccupationState | None = None) -> StateVector:
    """(energy - H_0)^-1 on state: each term divided by energy minus its
    uncoupled energy, the term labelled skip left out.

    A term within 1e-12 relative of energy has no denominator; that raises
    ResonanceError naming the term's photon modes.
    """
    out: dict[OccupationState, complex] = {}
    for occ, amp in state.terms():
        if occ == skip:
            continue
        denom = energy - uncoupled_energy(params, registry, occ)
        if abs(denom) < 1e-12 * max(1.0, abs(energy)):
            mode_desc = ", ".join(f"mode {i} ({registry.modes[i].kind.value}, "
                                  f"omega={registry.modes[i].omega})" for i, _ in occ.photons)
            raise ResonanceError(
                f"intermediate state degenerate with the start state via {mode_desc}; "
                "move the registry off the resonance"
            )
        # summed onto 0.0 as every StateVector sum is, so a zero part is +0
        out[occ] = 0.0 + amp / denom
    return StateVector(registry, out)


def discrete_second_order(params: SystemParams, registry: ModeRegistry) -> complex:
    """Second-order amplitude of |0_A 1_B, no photons> on a finite registry.

    Sums intermediate states |l> != |n> of H|n> with energy denominators
    (E_n - E_m)(E_n - E_l); equals the Riemann-sum approximation of the four
    diagram integrands when the registry's weights are d^3k volumes.  The
    first vertex builds the whole state H|n>; of the second application only
    the target coefficient <m|H|psi_1> is formed (InteractionOperator.coefficient).
    """
    if len(registry) == 0:
        return 0.0 + 0.0j
    op = InteractionOperator(params, registry)
    start, target = OccupationState(1, 0), OccupationState(0, 1)
    e_n = uncoupled_energy(params, registry, start)
    # the printed formula excludes |l> = |n>
    first = op.apply(StateVector.basis(registry, level_a=1, level_b=0))
    psi1 = resolvent(params, registry, first, e_n, skip=start)
    return op.coefficient(target, psi1) / (e_n - uncoupled_energy(params, registry, target))


# ---------------------------------------------------------------------------
# Exact-diagonalization oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    epsilon_exact: complex
    max_imag_eigenvalue: float  # of the metric-weighted (ordinarily Hermitian) matrix
    tracking_overlap: float  # winning |component| on the start basis state
    dimension: int


def _enumerate_photon_tuples(n_modes: int, per_mode: int, total: int):
    if n_modes == 0:
        yield ()
        return
    for head in range(min(per_mode, total) + 1):
        for tail in _enumerate_photon_tuples(n_modes - 1, per_mode, total - head):
            yield (head,) + tail


REALITY_TOL = 1e-10  # largest |Im E|, relative to the spectrum's scale, taken as real


def exact_diagonalization_oracle(params: SystemParams, registry: ModeRegistry,
                                 total_photon_cap: int = 2) -> OracleResult:
    """Diagonalize the full coupled Hamiltonian on the truncated basis.

    Returns the |0_A 1_B, 0 photons> coefficient of the eigenvector
    continuously connected to |1_A 0_B, 0 photons>, normalized to unit
    coefficient on the latter.

    Self-adjointness under the indefinite metric makes metric-weight times
    matrix Hermitian in the ordinary sense, so a general eigensolve of the
    weighted matrix must return a real spectrum; a non-real eigenvalue there
    beyond REALITY_TOL signals a sign bug in the couplings and raises.  The
    bare matrix is only pseudo-Hermitian, and truncation lets degenerate
    longitudinal/scalar photon levels mix into complex-conjugate pairs; those
    spectator branches are tolerated, but the tracked branch must stay real.
    """
    if len(registry) > 4:
        raise ValueError("oracle is meant for small registries (<= 4 modes)")
    op = InteractionOperator(params, registry, total_photon_cap=total_photon_cap)

    basis: list[OccupationState] = []
    for la in range(registry.n_max + 1):
        for lb in range(registry.n_max + 1):
            for photons in _enumerate_photon_tuples(
                len(registry), min(registry.p_max, total_photon_cap), total_photon_cap
            ):
                basis.append(OccupationState(la, lb, enumerate(photons)))
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)

    h = np.zeros((dim, dim), dtype=complex)
    for j, occ in enumerate(basis):
        h[j, j] = uncoupled_energy(params, registry, occ)
        column = op.apply(StateVector(registry, {occ: 1.0 + 0.0j}))
        for out_occ, amp in column.terms():
            i = index.get(out_occ)
            if i is not None:
                h[i, j] += amp

    sign = registry.scalar_metric_sign
    eta = np.array(
        [float(sign ** registry.scalar_count(occ)) for occ in basis]
    )
    weighted_vals = scipy.linalg.eigvals(eta[:, None] * h)
    scale = max(1.0, float(np.max(np.abs(weighted_vals.real))))
    max_imag = float(np.max(np.abs(weighted_vals.imag)))
    if max_imag > REALITY_TOL * scale:
        raise OracleError(
            f"metric-weighted spectrum not real: max |Im(E)| = {max_imag:.3e} "
            "(self-adjointness under the metric is broken)"
        )

    eigvals, eigvecs = scipy.linalg.eig(h)
    i_start = index[OccupationState(1, 0)]
    i_target = index[OccupationState(0, 1)]
    norms = np.linalg.norm(eigvecs, axis=0)
    overlaps = np.abs(eigvecs[i_start, :]) / norms
    order = np.argsort(overlaps)[::-1]
    best, runner = order[0], order[1]
    if params.charge_q != 0 and overlaps[runner] > 0.75 * overlaps[best]:
        raise OracleError(
            "eigenvector tracking ambiguous: two branches overlap the start state "
            f"({overlaps[best]:.3f} vs {overlaps[runner]:.3f}); reduce the coupling"
        )
    if abs(eigvals[best].imag) > REALITY_TOL * scale:
        raise OracleError(
            f"tracked eigenvalue is not real (Im = {eigvals[best].imag:.3e}); "
            "the perturbative branch merged into a complex pair - reduce the coupling"
        )
    vec = eigvecs[:, best]
    epsilon = vec[i_target] / vec[i_start]
    return OracleResult(
        epsilon_exact=complex(epsilon),
        max_imag_eigenvalue=max_imag,
        tracking_overlap=float(overlaps[best]),
        dimension=dim,
    )


def oracle_scaling_exponent(
    params: SystemParams, registry: ModeRegistry
) -> tuple[float, list[tuple[float, float]]]:
    """Fit |eps_pt - eps_exact| ~ q^p across charge q, q/2, q/4.

    Only even orders beyond the second survive (an odd number of photon
    vertices cannot return to the zero-photon sector), so p should be 4.
    Returns (fitted exponent, [(q, residual)] samples).
    """
    samples: list[tuple[float, float]] = []
    for divisor in (1.0, 2.0, 4.0):
        p_q = replace(params, charge_q=params.charge_q / divisor)
        eps_pt = discrete_second_order(p_q, registry)
        eps_ed = exact_diagonalization_oracle(p_q, registry).epsilon_exact
        samples.append((p_q.charge_q, abs(eps_pt - eps_ed)))
    (q0, r0), (_, r1), (_, r2) = samples
    if r0 == 0.0 and r1 == 0.0:
        return 4.0, samples  # exact agreement (e.g. q = 0): report the nominal order
    # least-squares slope in log-log across the three points
    qs = np.log([s[0] for s in samples])
    rs = np.log([max(s[1], 1e-300) for s in samples])
    slope = float(np.polyfit(qs, rs, 1)[0])
    return slope, samples
