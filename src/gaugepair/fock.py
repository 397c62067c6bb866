"""Finite-mode Fock space with an indefinite-metric scalar sector.

Representation choice, made once: every mode — including the scalar kind —
carries ORDINARY bosonic ladder operators (sqrt(n+1) raising, commutator +1).
The indefinite metric lives in exactly one place, the weight
(scalar_metric_sign)^(scalar photon count) applied inside indefinite_inner.
The physical scalar raising operator is then the metric adjoint of lowering,
i.e. metric . create . metric = (scalar_metric_sign) * create, which is what
Hamiltonian builders use via ModeRegistry.raising_sign.  All the sign folklore
of the covariant gauge (negative norms, the vacuum identity
a_s a_s^dag|0> = -|0>, the flipped absorption elements) falls out of this one
switch, which is therefore also the negative-control knob.

One loop applies every photon step term by term: apply_vertices, which
takes a coupling in its one form, Stacks.  StateVector.create and annihilate
are a one-mode identity stack; the operator route's couplings (perturbation,
gauge) are stacks too.  The truncation wall and its TruncationError live
there alone.  OccupationState.step owns the ladder rule; apply_vertices
takes it once per term, mode and direction that some matrix couples, for
A's and B's matrices alike, and sums on plain (level A, level B, photons)
tuples.  A label is such a tuple (a NamedTuple), so it hashes and compares
in C, and one is built per key that survives PRUNE_TOL.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

PRUNE_TOL = 1e-15

# A coupling: stacks["A" | "B", raising] is a (modes, n_max + 1, n_max + 1)
# array whose matrix j, times a ladder step on mode j, is one vertex
Stacks = Mapping[tuple[str, bool], np.ndarray]


class TruncationError(RuntimeError):
    """An operator tried to push an occupation past its configured bound."""


class RegistryMismatchError(ValueError):
    """Two states built over different mode registries were combined."""


class PolarizationKind(Enum):
    LONGITUDINAL = "longitudinal"
    SCALAR = "scalar"


@dataclass(frozen=True)
class PhotonMode:
    """One discrete field mode: wave vector, polarization kind, frequency = |k|."""

    k_vector: tuple[float, float, float]
    kind: PolarizationKind
    omega: float = field(init=False)  # |k| in natural units

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", math.sqrt(sum(c * c for c in self.k_vector)))
        if self.omega <= 0:
            raise ValueError(f"mode frequency must be positive, got {self.omega}")

    @property
    def k_x(self) -> float:
        return self.k_vector[0]


@dataclass(frozen=True)
class ModeRegistry:
    """The fixed, ordered set of modes a state vector is defined over.

    weights are d^3k volume elements for Riemann sums over the registry.
    scalar_metric_sign is -1 for the physical theory; +1 is the deliberate
    corruption used by negative-control tests.
    """

    modes: tuple[PhotonMode, ...]
    weights: tuple[float, ...] = ()
    n_max: int = 2  # oscillator levels 0..n_max
    p_max: int = 2  # photons per mode
    scalar_metric_sign: int = -1

    def __post_init__(self) -> None:
        if not self.weights:
            object.__setattr__(self, "weights", (1.0,) * len(self.modes))
        if len(self.weights) != len(self.modes):
            raise ValueError("one weight per mode required")
        if self.scalar_metric_sign not in (-1, 1):
            raise ValueError("scalar_metric_sign must be +1 or -1")
        # (k vector, kind) -> mode index for pair_at; a repeated pair keeps its last index
        object.__setattr__(self, "_index",
                           {(m.k_vector, m.kind): i for i, m in enumerate(self.modes)})

    def __len__(self) -> int:
        return len(self.modes)

    def scalar_count(self, occ: "OccupationState") -> int:
        return sum(n for j, n in occ.photons if self.modes[j].kind is PolarizationKind.SCALAR)

    def raising_sign(self, index: int) -> int:
        """Sign of the physical (metric-adjoint) raising operator vs ordinary create."""
        if self.modes[index].kind is PolarizationKind.SCALAR:
            return self.scalar_metric_sign
        return 1

    def pair_at(self, k_vector: tuple[float, float, float]) -> tuple[int, int]:
        """Indices of the (longitudinal, scalar) modes at this wave vector (last of each kind)."""
        long_idx = self._index.get((tuple(k_vector), PolarizationKind.LONGITUDINAL))
        scal_idx = self._index.get((tuple(k_vector), PolarizationKind.SCALAR))
        if long_idx is None or scal_idx is None:
            raise KeyError(f"registry has no longitudinal/scalar pair at k = {k_vector}")
        return long_idx, scal_idx

    def corrupted(self) -> "ModeRegistry":
        """Copy with the scalar metric sign flipped (negative-control builds)."""
        return replace(self, scalar_metric_sign=-self.scalar_metric_sign)


def make_registry(
    k_vectors: Sequence[tuple[float, float, float]],
    kinds: Sequence[PolarizationKind] = (
        PolarizationKind.LONGITUDINAL,
        PolarizationKind.SCALAR,
    ),
    weights: Sequence[float] | None = None,
    n_max: int = 2,
    p_max: int = 2,
) -> ModeRegistry:
    """Registry with one mode of each requested kind per wave vector.

    A weight given per k vector is shared by all kinds at that k.
    """
    modes = []
    mode_weights = []
    for i, kv in enumerate(k_vectors):
        w = 1.0 if weights is None else float(weights[i])
        for kind in kinds:
            modes.append(PhotonMode(tuple(float(c) for c in kv), kind))
            mode_weights.append(w)
    return ModeRegistry(tuple(modes), tuple(mode_weights), n_max=n_max, p_max=p_max)


class _Occupation(NamedTuple):
    level_a: int
    level_b: int
    photons: tuple[tuple[int, int], ...] = ()


class OccupationState(_Occupation):
    """Basis label: oscillator A and B levels, and the non-zero photon counts
    as (mode, count) pairs sorted by mode, so a label costs O(photons), not
    O(modes).  photons may be given as a mapping or any iterable of pairs.
    A label is a tuple, so it hashes and compares in C; _make takes fields
    that are already in this form and skips the sort."""

    __slots__ = ()

    def __new__(cls, level_a: int, level_b: int,
                photons: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "OccupationState":
        pairs = photons.items() if isinstance(photons, Mapping) else photons
        return tuple.__new__(cls, (level_a, level_b, tuple(sorted((j, n) for j, n in pairs if n))))

    def step(self, mode: int, raising: bool, p_max: int):
        """One ordinary ladder step on mode: (new label, sqrt factor), or None
        where the step lowers an empty mode or raises past p_max photons in
        the mode.  Lowering never checks p_max."""
        counts = dict(self.photons)
        n = counts.get(mode, 0)
        new = counts[mode] = n + 1 if raising else n - 1
        if new < 0 or (raising and new > p_max):
            return None
        return OccupationState(self.level_a, self.level_b, counts), math.sqrt(max(n, new))


class StateVector:
    """Sparse complex amplitudes over occupation labels, all sharing one registry.

    Instances are immutable results; every operation allocates a new state.
    Amplitudes below PRUNE_TOL in magnitude are dropped on construction.
    """

    __slots__ = ("registry", "_amp")

    def __init__(self, registry: ModeRegistry, amplitudes: Mapping[OccupationState, complex]):
        self.registry = registry
        self._amp = {
            occ: complex(a) for occ, a in amplitudes.items() if abs(a) > PRUNE_TOL
        }

    # -- constructors -------------------------------------------------------

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "StateVector":
        return cls.basis(registry)

    @classmethod
    def basis(
        cls,
        registry: ModeRegistry,
        level_a: int = 0,
        level_b: int = 0,
        photons: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "StateVector":
        return cls(registry, {OccupationState(level_a, level_b, photons): 1.0 + 0.0j})

    # -- bookkeeping --------------------------------------------------------

    def amplitude(self, occ: OccupationState) -> complex:
        return self._amp.get(occ, 0.0 + 0.0j)

    def terms(self) -> Iterator[tuple[OccupationState, complex]]:
        return iter(self._amp.items())

    def __len__(self) -> int:
        return len(self._amp)

    def is_vacuum_like(self) -> bool:
        """Single basis term with every occupation zero (any amplitude)."""
        if len(self._amp) != 1:
            return False
        (occ,) = self._amp
        return occ.level_a == 0 and occ.level_b == 0 and not occ.photons

    def _check_registry(self, other: "StateVector") -> None:
        if self.registry is not other.registry and self.registry != other.registry:
            raise RegistryMismatchError("states live on different mode registries")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "StateVector") -> "StateVector":
        self._check_registry(other)
        out = dict(self._amp)
        for occ, a in other._amp.items():
            out[occ] = out.get(occ, 0.0) + a
        return StateVector(self.registry, out)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "StateVector":
        return StateVector(self.registry, {occ: scalar * a for occ, a in self._amp.items()})

    __rmul__ = __mul__

    # -- photon ladders (ordinary bosonic action for every kind) -------------

    def create(self, index: int) -> "StateVector":
        """Ordinary raising a^+ on mode index; errors loudly at the truncation wall."""
        return self._photon_step(index, True)

    def annihilate(self, index: int) -> "StateVector":
        return self._photon_step(index, False)

    def _photon_step(self, index: int, raising: bool) -> "StateVector":
        """a^+ or a on mode index times the identity on the oscillators, as a
        one-mode identity stack on oscillator A."""
        size = self.registry.n_max + 1
        stack = np.zeros((len(self.registry), size, size))
        stack[index] = np.eye(size)
        return apply_vertices(self.registry, {("A", raising): stack}, self)

    # -- metric ----------------------------------------------------------------

    def apply_metric(self) -> "StateVector":
        """Weight each term by scalar_metric_sign^(scalar photon count)."""
        sign = self.registry.scalar_metric_sign
        return StateVector(
            self.registry,
            {
                occ: a * (sign ** self.registry.scalar_count(occ))
                for occ, a in self._amp.items()
            },
        )

    def create_physical(self, index: int) -> "StateVector":
        """The metric-adjoint raising operator: metric . create . metric.

        Equals create on every ordinary mode and scalar_metric_sign * create
        on scalar modes; this is the operator Hamiltonians must use for the
        raising half of a self-adjoint (under the indefinite metric) coupling.
        """
        return float(self.registry.raising_sign(index)) * self.create(index)

    # -- inner products ----------------------------------------------------------

    def ordinary_inner(self, other: "StateVector") -> complex:
        self._check_registry(other)
        if len(self._amp) > len(other._amp):
            return other.ordinary_inner(self).conjugate()
        total = 0.0 + 0.0j
        for occ, a in self._amp.items():
            b = other._amp.get(occ)
            if b is not None:
                total += a.conjugate() * b
        return total

    def ordinary_norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amp.values()))


def apply_vertices(registry: ModeRegistry, stacks: Stacks, state: StateVector,
                   project: bool = False) -> StateVector:
    """The coupling stacks applied to state; a missing key, or a (mode,
    direction) whose matrices are all zero, takes no step.  Summed term by
    term, then modes ascending, A's matrix before B's, raising before
    lowering, and level by level, on (level A, level B, photons) keys; a
    label is built once per key that survives PRUNE_TOL.

    A raising step on a mode that already holds p_max photons raises
    TruncationError; project=True drops that amplitude instead (the operator
    restricted to the kept space).  A lowering step on an empty mode is zero.
    """
    p_max = registry.p_max
    # per nonzero matrix (a vertex): its mode, oscillator, direction and columns as Python scalars
    vertices = []
    for (osc, raising), stack in stacks.items():
        coupled = np.flatnonzero(stack.any(axis=(1, 2)))  # only these modes' matrices are listed
        vertices += [(j, osc, not raising, columns) for j, columns in
                     zip(coupled.tolist(), stack[coupled].transpose(0, 2, 1).tolist())]
    vertices.sort()  # (mode, oscillator, lowering) is unique: columns are never compared
    # a term takes each (mode, direction)'s ladder step once, for A's and B's vertices alike
    slots: dict[tuple[int, bool], int] = {}
    plan = [(slots.setdefault((j, not lowering), len(slots)), osc == "A", columns)
            for j, osc, lowering, columns in vertices]
    steps = list(slots)
    out: dict[tuple[int, int, tuple[tuple[int, int], ...]], complex] = {}
    for occ, amp in state.terms():
        level_a, level_b, _ = occ
        stepped = [occ.step(mode, raising, p_max) for mode, raising in steps]
        for i, moves_a, columns in plan:
            if stepped[i] is None:
                mode, raising = steps[i]
                if raising and not project:
                    raise TruncationError(f"mode {mode} ({registry.modes[mode].kind.value}) "
                                          f"would exceed p_max = {p_max}")
                continue
            moved, photon_factor = stepped[i]
            photons = moved.photons
            for m, c in enumerate(columns[level_a if moves_a else level_b]):
                if abs(c) < 1e-300:  # the zeros of the identity and of gauge's two-level matrices
                    continue
                key = (m, level_b, photons) if moves_a else (level_a, m, photons)
                out[key] = out.get(key, 0.0) + amp * c * photon_factor
    return StateVector(registry, {OccupationState._make(key): a for key, a in out.items()
                                  if abs(a) > PRUNE_TOL})


def indefinite_inner(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> under the indefinite metric: conjugate-linear in bra, linear in
    ket, with weight scalar_metric_sign^(scalar photon count) per basis term."""
    bra._check_registry(ket)
    sign = bra.registry.scalar_metric_sign
    total = 0.0 + 0.0j
    for occ, a in bra._amp.items():
        b = ket._amp.get(occ)
        if b is not None:
            total += a.conjugate() * b * (sign ** bra.registry.scalar_count(occ))
    return total


def apply_scalar_sector_identity(vacuum: StateVector, index: int) -> StateVector:
    """Evaluate (lowering)(physical raising)|0> for one mode, metric and all.

    For a scalar mode this is a_s a_s^dag |0> = -|0>: the raising half is the
    metric adjoint, realized as metric . create . metric.  For any ordinary
    kind the metric conjugation is trivial and the result is +|0>.
    """
    if not vacuum.is_vacuum_like():
        raise ValueError("scalar-sector identity is defined on the vacuum")
    raised = vacuum.apply_metric().create(index).apply_metric()
    return raised.annihilate(index)


def check_subsidiary(state: StateVector, k_vector: tuple[float, float, float]) -> float:
    """Ordinary (positive) norm of [a_l(k) - a_s(k)]|state>; 0 means physical.

    The gauge-condition operator uses the lowering halves only, which coincide
    with the ordinary ones, so no metric weight enters here.
    """
    long_idx, scal_idx = state.registry.pair_at(k_vector)
    residual = state.annihilate(long_idx) - state.annihilate(scal_idx)
    return residual.ordinary_norm()


def physical_pair_raise(state: StateVector, k_vector: tuple[float, float, float]) -> StateVector:
    """Apply the physical combination a_l^dag(k) - a_s^dag(k) (metric-adjoint daggers).

    In ordinary amplitudes this lands on |1_l> + |1_s> when applied to the
    vacuum: the scalar raising sign flip is what makes the subsidiary residual
    cancel.
    """
    long_idx, scal_idx = state.registry.pair_at(k_vector)
    return state.create_physical(long_idx) - state.create_physical(scal_idx)
