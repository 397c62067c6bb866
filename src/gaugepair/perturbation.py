"""Exchange amplitudes: four covariant-gauge diagrams at second order, the
first-order Coulomb-gauge integrand, and two discrete oracles on finite mode
registries (operator-route perturbation theory and exact diagonalization).

Independent code paths compute the same physics on purpose:

* closed-form integrands (diagram_integrand, lorentz_bracket, ...) carry the
  algebra done by hand once, at one k-vector (or frequency) or an array;
* the operator route keeps the coupling as one stack of oscillator matrices
  per oscillator and direction (InteractionOperator.matrices; mode j's
  matrix times a photon step on mode j is one vertex), built in one pass.
  discrete_second_order takes the first vertex through the state algebra
  (fock.apply_vertices, the one loop that applies every coupling in this
  form, the ladders and the gauge module's couplings included) and reads
  the second in place from the lowering stacks;
  exact_diagonalization_oracle builds H only as photon-sector blocks, from the
  same stacks in Kronecker form with ladders and an H_0 of its own, and
  partitions it sector by sector, so the two share only the vertex matrices.
  An oracle verdict builds both once and sums perturbation theory once.

Collapsing any two into one would defeat the point: they disagree exactly when
a sign or a factor is wrong, the dominant failure mode in this calculation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import SystemParams, ValidationError
from .fock import (
    PRUNE_TOL,
    ModeRegistry,
    OccupationState,
    PolarizationKind,
    StateVector,
    apply_vertices,
)
from .matelem import (
    TWO_PI_CUBED,
    OscillatorId,
    _k_parts,
    exponential_matrix,
    mode_scale,
)


class PoleError(ValidationError):
    """Evaluation exactly on the resonance with no regulator."""


class ResonanceError(RuntimeError):
    """A registry mode sits on the resonance; the discrete sum is ill-defined."""


class OracleError(RuntimeError):
    """Exact-diagonalization self-checks failed (metric self-adjointness or settling)."""


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


ALL_DIAGRAMS: tuple[DiagramSpec, ...] = (
    DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.SCALAR),
    DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.LONGITUDINAL),
    DiagramSpec(ExchangeOrder.COUNTER_ROTATING, PolarizationKind.SCALAR),
    DiagramSpec(ExchangeOrder.COUNTER_ROTATING, PolarizationKind.LONGITUDINAL),
)


def common_prefactor(params: SystemParams) -> float:
    """q^2 c / (2 eps0 delta_e (2 pi)^3): shared by all four diagram integrands."""
    return params.charge_q**2 * params.c / (2.0 * params.eps0 * params.delta_e * TWO_PI_CUBED)


def diagram_integrand(params: SystemParams, spec: DiagramSpec, k_vector):
    """One diagram's d^3k integrand (common_prefactor excluded) at a k-vector or (n, 3) array.

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
        if np.any(denom == 0):
            raise PoleError(f"on the resonance omega_gamma = omega_a = {params.omega_a} with no"
                            " regulator")
        phase = np.exp(1j * kl)
    else:
        denom = -(params.omega_b + omega)
        phase = np.exp(-1j * kl)

    value = (kd * kd / k_norm) * phase * np.exp(-kd * kd) / denom
    if spec.photon_kind is PolarizationKind.LONGITUDINAL:
        value = value * (-(params.omega_a * params.omega_b) / (omega * omega))
    return complex(value) if np.ndim(value) == 0 else value


def symmetric_diagram_sum(params: SystemParams, k_vector):
    """Average over +-k of the four diagram integrands (common prefactor
    excluded) at a k-vector or (n, 3) array; real up to rounding, it
    reproduces combined_bracket_form pointwise."""
    minus_k = -np.asarray(k_vector, dtype=float)
    return 0.5 * sum((diagram_integrand(params, spec, k) for spec in ALL_DIAGRAMS
                      for k in (k_vector, minus_k)), 0.0 + 0.0j)


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


def combined_bracket_form(params: SystemParams, k_vector):
    """Closed form of symmetric_diagram_sum at a k-vector or (n, 3) array:
    -2 (k.d)^2 cos(k_x L) exp(-(k.d)^2) B(omega) / (k omega/c)."""
    kx, k_norm = _k_parts(k_vector)
    omega = params.c * k_norm
    kd = kx * params.dipole_d
    bracket = lorentz_bracket(params, omega)
    out = (-2.0 * kd * kd * np.cos(kx * params.separation_l) * np.exp(-kd * kd) * bracket
           * params.c / (k_norm * omega))
    return float(out) if np.ndim(out) == 0 else out


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


def coulomb_integrand(params: SystemParams, k_vector):
    """First-order Coulomb-gauge d^3k integrand at a k-vector or (n, 3) array, prefactor included:
    -(q^2/(eps0 delta_e (2pi)^3)) ((k.d)^2/k^2) cos(k_x L) exp(-(k.d)^2)."""
    kx, k_norm = _k_parts(k_vector)
    kd = kx * params.dipole_d
    out = (-(params.charge_q**2 / (params.eps0 * params.delta_e * TWO_PI_CUBED))
           * (kd * kd / (k_norm * k_norm)) * np.cos(kx * params.separation_l) * np.exp(-kd * kd))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Operator route: the coupling as ladder operators on a registry
# ---------------------------------------------------------------------------

class InteractionOperator:
    """The covariant-gauge coupling mapped onto a finite mode registry.

    matrices holds the coupling as one stack per oscillator and direction:
    matrices["A" | "B", raising][j] is mode j's oscillator matrix.  The
    exact-diagonalization oracle reads only these stacks, and
    discrete_second_order reads its second vertex in place from the lowering
    ones.  apply() runs them through apply_vertices with the photon steps
    past p_max projected out: the coupling restricted to the kept space, as
    the second-order sum needs.

    The quadratic field term of the minimal coupling is omitted: it is
    diagonal in both oscillators, so it cannot connect the singly-excited
    states at this order.
    """

    def __init__(self, params: SystemParams, registry: ModeRegistry):
        self.params = params
        self.registry = registry
        self.matrices = self._build_vertices()

    def _build_vertices(self) -> dict[tuple[str, bool], np.ndarray]:
        """Every mode's vertex matrices in one pass, as (modes, n_max + 1,
        n_max + 1) stacks keyed (oscillator, raising).

        A scalar mode couples through E(k) = exp(-i k_x x_hat) with coefficient
        q c s_j; a longitudinal mode through k_hat . p_hat, i.e.
        E(k)(2 p_hat - hbar k_x) with coefficient -(q / 2m)(k_x / |k|) s_j,
        where s_j = sqrt(w_j) mode_scale.  Lowering takes -k.  The products are
        formed on n_max + 3 levels and sliced to n_max + 1.
        """
        p = self.params
        reg = self.registry
        size = reg.n_max + 1
        pad = reg.n_max + 3  # room for exact operator products before slicing
        kx = np.array([mode.k_x for mode in reg.modes], dtype=float)
        k_norm = np.array([mode.omega for mode in reg.modes], dtype=float) / p.c
        scale = (np.sqrt(np.array(reg.weights, dtype=float))
                 * np.array([mode_scale(p, mode.omega) for mode in reg.modes]))
        longitudinal = np.array([mode.kind is PolarizationKind.LONGITUDINAL
                                 for mode in reg.modes], dtype=bool)
        sign_raise = np.array([float(reg.raising_sign(j)) for j in range(len(reg))])
        create = np.diag(np.sqrt(np.arange(1.0, pad)), -1)  # a^+ on pad levels
        mom = 1j * p.hbar / (2.0 * p.dipole_d) * (create - create.T)  # p_hat
        ident = np.eye(pad, dtype=complex)

        matrices = {}
        for osc in (OscillatorId.A, OscillatorId.B):
            mass = p.implied_mass(osc.frequency(p))
            coeff = np.where(longitudinal, -(p.charge_q / (2.0 * mass)) * (kx / k_norm) * scale,
                             p.charge_q * p.c * scale)
            # both directions in one call: each matrix depends on its own k_x alone
            both = exponential_matrix(p, osc, np.concatenate([kx, -kx]), pad)
            raised, lowered = np.split(both, 2)
            for raising, k, stack in ((True, kx, raised), (False, -kx, lowered)):
                stack[longitudinal] = stack[longitudinal] @ (
                    2.0 * mom - (p.hbar * k[longitudinal])[:, None, None] * ident)
                factor = coeff * sign_raise if raising else coeff
                matrices[osc.value, raising] = factor[:, None, None] * stack[:, :size, :size]
        return matrices

    def apply(self, state: StateVector) -> StateVector:
        return apply_vertices(self.registry, self.matrices, state, project=True)


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
              energy: float) -> StateVector:
    """(energy - H_0)^-1 on state: each term divided by energy minus its
    uncoupled energy.

    A term within 1e-12 relative of energy has no denominator; that raises
    ResonanceError naming the term's photon modes.
    """
    out: dict[OccupationState, complex] = {}
    for occ, amp in state.terms():
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
    first vertex builds the whole state psi_1 = (E_n - H_0)^-1 H|n>.  Each of
    its terms holds one photon, in some mode j, so <m|H|psi_1> reads only
    mode j's elements of the lowering stacks, in place, A's before B's as
    apply sums them, with one lowering step per photon label of psi_1, and
    pruned as StateVector prunes: apply(psi_1).amplitude(m) bit for bit.  A
    sum that is not finite (a charge whose square is beyond floating-point
    range) raises ValidationError rather than being dropped as zero.
    """
    if len(registry) == 0:
        return 0.0 + 0.0j
    return _second_order(InteractionOperator(params, registry))


def _second_order(op: InteractionOperator) -> complex:
    """discrete_second_order on the built coupling op (at op.params' charge)."""
    params, registry = op.params, op.registry
    start, target = OccupationState(1, 0), OccupationState(0, 1)
    e_n = uncoupled_energy(params, registry, start)
    # every vertex moves one photon: |l> = |n>, excluded by the printed formula, never occurs
    first = op.apply(StateVector.basis(registry, level_a=1, level_b=0))
    psi1 = resolvent(params, registry, first, e_n)
    # the second vertex's elements to the target level, per mode, as Python scalars
    to_a = op.matrices["A", False][:, target.level_a].tolist()
    to_b = op.matrices["B", False][:, target.level_b].tolist()
    lowering: dict[tuple[tuple[int, int], ...], tuple[int, float]] = {}  # per photon label
    total = 0.0
    for occ, amp in psi1.terms():
        if occ.photons not in lowering:
            ((j, _),) = occ.photons
            lowering[occ.photons] = j, occ.step(j, False, registry.p_max)[1]
        j, photon_factor = lowering[occ.photons]
        # each vertex moves its own oscillator; the other must sit at the target level
        if occ.level_b == target.level_b:
            total = total + amp * to_a[j][occ.level_a] * photon_factor
        if occ.level_a == target.level_a:
            total = total + amp * to_b[j][occ.level_b] * photon_factor
    if not cmath.isfinite(total):
        raise ValidationError(f"the second-order sum <m|H|psi_1> = {total} at charge_q = "
                              f"{params.charge_q} is beyond floating-point range")
    second = complex(total) if abs(total) > PRUNE_TOL else 0.0 + 0.0j
    return second / (e_n - uncoupled_energy(params, registry, target))


# ---------------------------------------------------------------------------
# Exact-diagonalization oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    epsilon_exact: complex
    metric_asymmetry: float  # ||anti-Hermitian part of metric-weighted H||_F
    dimension: int


REALITY_TOL = 1e-10  # ||eta H's anti-Hermitian part||_F and |Im E|, relative to H's size
# sweeps for E before the branch counts as lost: at the default point and
# |k| = 1.7, 4 settle q = 1 and 8 settle q = 30; q = 100 never settles
PARTITION_SWEEPS = 20
# complex elements the sector blocks may hold: for each photon sector below
# the top, its dense Schur complement and its up and down blocks to the next
_BLOCK_BUDGET = 2**23


def _photon_sectors(params: SystemParams, registry: ModeRegistry, total_photon_cap: int):
    """H_0 in photon-number sectors, never formed dense.  Sector n holds the
    states with n <= total_photon_cap photons, at most p_max in a mode: level A
    x level B x its photon states (OccupationState.photons, in the order of
    their count tuples).  Returns those photon states and each sector's H_0
    diagonal h0[n], read from the sector's own occupation numbers, not from
    uncoupled_energy.  Blocks over _BLOCK_BUDGET elements, counted before
    anything is built: ValueError.
    """
    n_levels, modes, p_max = registry.n_max + 1, range(len(registry)), registry.p_max
    sizes = [1] + [0] * total_photon_cap  # photon states per sector, counted mode by mode
    for _ in modes:
        sizes = [sum(sizes[max(0, n - p_max):n + 1]) for n in range(len(sizes))]
    dims = [n_levels**2 * size for size in sizes if size]
    elements = sum(a * (a + 2 * b) for a, b in zip(dims, dims[1:]))
    if elements > _BLOCK_BUDGET:
        raise ValueError(f"the sector blocks would hold {elements} elements, over the oracle's "
                         f"budget of {_BLOCK_BUDGET}: keep fewer modes or fewer photons")
    sectors = [[tuple(counts.items()) for counts in map(Counter, reversed(list(
                    itertools.combinations_with_replacement(modes, n))))
                if max(counts.values(), default=0) <= p_max] for n in range(len(dims))]

    level_a, level_b = np.divmod(np.arange(n_levels**2, dtype=float), n_levels)
    h0 = [np.outer(params.omega_a * level_a + params.omega_b * level_b, np.ones(len(states)))
          for states in sectors]
    for energy, states in zip(h0, sectors):  # oscillators first, then each mode in index order
        for s, photons in enumerate(states):
            for j, count in photons:
                energy[:, s] += registry.modes[j].omega * count
    return sectors, [params.hbar * energy.ravel() for energy in h0]


def _dropped(block: np.ndarray) -> np.ndarray:
    """block, its elements within PRUNE_TOL set to 0 as StateVector drops them."""
    return np.where(np.abs(block) <= PRUNE_TOL, 0.0, block)


def _divided(array: np.ndarray, divisor: float) -> np.ndarray:
    """array / divisor part by part: numpy's complex division flips zeros a fresh build keeps."""
    return (array.view(float) / divisor).view(complex)


def _sector_blocks(registry: ModeRegistry, sectors, stacks: dict[tuple[str, bool], np.ndarray]):
    """H's blocks up[n] (sector n to n + 1) and down[n] (back), _dropped: each
    element is 0 + (A's term) + (B's term) of kron(a vertex stack's oscillator
    matrix, ladder a_j^+ or its transpose), with no ladder step of the state algebra."""
    n_levels = registry.n_max + 1
    ident, up, down = np.eye(n_levels), [], []
    for lower, upper in zip(sectors, sectors[1:]):
        # (upper state, lower state, mode, ladder factor) of every one-photon step
        index = {photons: i for i, photons in enumerate(lower)}
        steps = [(i, index[tuple((m, c - (m == j)) for m, c in photons if c - (m == j))], j,
                  math.sqrt(count)) for i, photons in enumerate(upper) for j, count in photons]
        more, fewer, mode, factor = map(np.array, zip(*steps))
        up.append(np.zeros((n_levels**2 * len(upper), n_levels**2 * len(lower)), dtype=complex))
        down.append(np.zeros(up[-1].shape[::-1], dtype=complex))
        for osc in "AB":  # A's term before B's
            for raising, block, rows, cols in ((True, up[-1], more, fewer),
                                               (False, down[-1], fewer, more)):
                matrices = stacks[osc, raising][mode]
                kron = np.kron(matrices, ident) if osc == "A" else np.kron(ident[None], matrices)
                view = block.reshape(n_levels**2, len(block) // n_levels**2, n_levels**2, -1)
                view[:, rows, :, cols] += kron * factor[:, None, None]
    return [_dropped(block) for block in up], [_dropped(block) for block in down]


def _sector_self_energy(energy: complex, h0: list[np.ndarray], up: list[np.ndarray],
                        down: list[np.ndarray]) -> np.ndarray:
    """H_01 (E - H_11 - ...)^-1 H_10 on photon sector 0: every sector above it
    eliminated from the top down.  up[n] couples sector n to n + 1, down[n]
    the reverse, and h0[n] is sector n's (diagonal) block of H_0.  The top
    sector's Schur complement is E - H_0 itself, a division; each lower one
    is E - H_0 less the self-energy from above, a small dense solve."""
    above = np.zeros((len(h0[0]), len(h0[0])), dtype=complex)  # read only with no sector above
    for n in range(len(h0) - 1, 0, -1):
        gap = energy - h0[n]
        coupled = (up[n - 1] / gap[:, None] if n == len(h0) - 1
                   else np.linalg.solve(np.diag(gap) - above, up[n - 1]))
        above = down[n - 1] @ coupled
    return above


def exact_diagonalization_oracle(params: SystemParams, registry: ModeRegistry,
                                 total_photon_cap: int = 2) -> OracleResult:
    """The |0_A 1_B, 0 photons> coefficient eps of the exact eigenvector of the
    truncated Hamiltonian that grows out of |1_A 0_B, 0 photons>, normalized
    to unit coefficient on the latter.

    H is assembled in photon sectors (_photon_sectors, within _BLOCK_BUDGET)
    from the vertex matrices (_sector_blocks), with no ladder step of the state
    algebra and no uncoupled_energy: a slip in either moves only the perturbative sum.

    Self-adjointness under the indefinite metric eta (Gupta) makes eta H
    Hermitian in the ordinary sense; the Frobenius norm of its anti-Hermitian
    part beyond REALITY_TOL times the size of H (the largest of 1, its
    uncoupled energies and its block elements) signals a sign or scale slip
    in the vertices and raises OracleError; it is sqrt(1/2)
    ||eta_n+1 up[n] - (eta_n down[n])^H|| over the sector pairs.  It bounds
    |Im| of every eigenvalue of eta H (Bendixson), so the spectrum is real to
    the same tolerance.  The bare H is only pseudo-Hermitian; its spectator
    branches may pair into complex conjugates, which the partition never reads.

    Partition onto P = {those two states}, Q every other (Feshbach; Loewdin):
    the eigenpair solves E = H_eff[0,0] + H_eff[0,1] eps and
    eps = H_eff[1,0] / (E - H_eff[1,1]), H_eff = H_PP + H_PQ (E - H_QQ)^-1 H_QP.
    Every vertex moves one photon, so H_QQ is block tridiagonal in the total
    photon number with diagonal blocks H_0: each sweep eliminates the photon
    sectors from the top down (_sector_self_energy), then takes the Schur
    complement onto P inside sector 0.  E is iterated from the start state's
    uncoupled energy until it stops moving at the rounding level: no
    eigenvector is read and no branch picked.  E that does not settle in
    PARTITION_SWEEPS sweeps, or is not real to REALITY_TOL, raises
    OracleError.  A kept state other than the start whose uncoupled energy
    lies within 1e-12 relative of the start's has no denominator in that
    elimination, as in resolvent: ResonanceError, naming the lowest sector's first.
    """
    if total_photon_cap < 0:
        raise ValueError(f"total_photon_cap = {total_photon_cap} must be at least 0")
    sectors, h0 = _photon_sectors(params, registry, total_photon_cap)
    up, down = _sector_blocks(registry, sectors, InteractionOperator(params, registry).matrices)
    return _diagonalized(registry, sectors, h0, up, down)


def _diagonalized(registry: ModeRegistry, sectors, h0: list[np.ndarray], up: list[np.ndarray],
                  down: list[np.ndarray]) -> OracleResult:
    """exact_diagonalization_oracle on the built sectors and blocks."""
    n_levels = registry.n_max + 1

    sign = registry.scalar_metric_sign
    eta = [np.tile([float(sign ** registry.scalar_count(OccupationState(0, 0, photons)))
                    for photons in states], n_levels**2) for states in sectors]
    asymmetry = math.sqrt(0.5 * sum(
        float(np.linalg.norm(eta_up[:, None] * u - (eta_down[:, None] * d).conj().T)) ** 2
        for eta_down, eta_up, u, d in zip(eta, eta[1:], up, down)))
    scale = max(1.0, float(np.max(np.abs(np.concatenate(h0)))))
    # H's size: the blocks' rounding grows with the charge, the uncoupled energies' does not
    size = max([scale] + [float(np.abs(block).max(initial=0.0)) for block in up + down])
    if asymmetry > REALITY_TOL * size:
        raise OracleError(f"metric-weighted H not Hermitian: anti-Hermitian norm {asymmetry:.3e}"
                          " (self-adjointness under the metric is broken)")

    # P and sector 0's other states, as positions in sector 0; inside sector 0
    # they couple only through the self-energy of the sectors above
    vacuum = [OccupationState(la, lb) for la, lb in itertools.product(range(n_levels), repeat=2)]
    p = [vacuum.index(OccupationState(1, 0)), vacuum.index(OccupationState(0, 1))]
    q = [i for i in range(len(vacuum)) if i not in p]
    start = h0[0][p[0]]
    for n, (states, uncoupled) in enumerate(zip(sectors, h0)):
        degenerate = np.abs(start - uncoupled) < 1e-12 * max(1.0, abs(start))
        if n == 0:
            degenerate[p[0]] = False
        if degenerate.any():
            levels, i = divmod(int(np.argmax(degenerate)), len(states))
            raise ResonanceError(
                f"kept state {OccupationState(*divmod(levels, n_levels), states[i])} is "
                "degenerate with the start state; move the registry off the resonance")

    h_pp, energy = np.diag(h0[0][p]), complex(start)
    for _ in range(PARTITION_SWEEPS):
        above = _sector_self_energy(energy, h0, up, down)
        h_eff = h_pp + above[np.ix_(p, p)] + above[np.ix_(p, q)] @ np.linalg.solve(
            np.diag(energy - h0[0][q]) - above[np.ix_(q, q)], above[np.ix_(q, p)])
        epsilon = h_eff[1, 0] / (energy - h_eff[1, 1])
        energy, previous = h_eff[0, 0] + h_eff[0, 1] * epsilon, energy
        if abs(energy - previous) <= 4.0 * np.finfo(float).eps * scale:
            break
    else:
        raise OracleError(f"partition energy did not settle in {PARTITION_SWEEPS} sweeps "
                          "(no perturbative branch) - reduce the coupling")
    if abs(energy.imag) > REALITY_TOL * size:
        raise OracleError(f"partition energy is not real (Im = {energy.imag:.3e}); the "
                          "perturbative branch merged into a complex pair - reduce the coupling")
    return OracleResult(epsilon_exact=complex(epsilon), metric_asymmetry=asymmetry,
                        dimension=sum(len(diagonal) for diagonal in h0))


def oracle_scaling_exponent(params: SystemParams,
                            registry: ModeRegistry) -> tuple[float, list[tuple[float, float]]]:
    """The exponent p of |eps_pt - eps_exact| ~ q^p across charge q, q/2, q/4.

    Only even orders beyond the second survive (an odd number of photon
    vertices cannot return to the zero-photon sector), so p should be 4.
    Returns (log(r_q / r_{q/4}) / log 4, [(q, residual)] samples): the
    end-point slope, which a least-squares line through three equally spaced
    log-charges equals.  A registry whose vertex elements all lie within
    PRUNE_TOL of 0 (charge_q = 0, or an underflowed form factor) has no
    coupling to test: ValidationError.  So has one whose second-order element
    <m|V|psi_1> = eps_exact (E_n - E_m) lies within PRUNE_TOL at any sampled
    charge, since perturbation theory drops an amplitude that small, and so
    has one whose second-order sum is not finite (discrete_second_order).  A
    residual of exactly 0 leaves nothing to scale: OracleError.  The stacks,
    the sectors (at ED's default cap) and their blocks are built once, at q,
    and the second-order sum runs once, at q: at q/2 and q/4 it is eps_pt / 4
    and / 16.  The blocks, linear in q, are divided by 2 and 4 and _dropped
    again, which equals a fresh build at q/2 and q/4.
    """
    sectors, h0 = _photon_sectors(params, registry, total_photon_cap=2)
    op = InteractionOperator(params, registry)
    if all(np.abs(stack).max(initial=0.0) <= PRUNE_TOL for stack in op.matrices.values()):
        raise ValidationError(f"the registry's coupling vanishes at charge_q = {params.charge_q}"
                              " (no vertex element above PRUNE_TOL): nothing to compare")
    up, down = _sector_blocks(registry, sectors, op.matrices)
    eps_pt = _second_order(op)
    samples: list[tuple[float, float]] = []
    for divisor in (1.0, 2.0, 4.0):
        charge = params.charge_q / divisor
        blocks = ([_dropped(_divided(block, divisor)) for block in side] for side in (up, down))
        eps_ed = _diagonalized(registry, sectors, h0, *blocks).epsilon_exact
        if abs(eps_ed * params.delta_e) <= PRUNE_TOL:
            raise ValidationError(
                f"the second-order amplitude eps * delta_e = {abs(eps_ed * params.delta_e):.3e}"
                f" at charge_q = {charge} lies within PRUNE_TOL, where perturbation theory"
                " drops it: nothing to compare")
        residual = abs(eps_pt / divisor**2 - eps_ed)
        if residual == 0.0:
            raise OracleError(f"perturbation theory equals ED exactly at charge_q = {charge}:"
                              " no residual to scale")
        samples.append((charge, residual))
    return math.log(samples[0][1] / samples[2][1]) / math.log(4.0), samples
