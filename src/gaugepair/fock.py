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
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum

PRUNE_TOL = 1e-15


class TruncationError(RuntimeError):
    """An operator tried to push an occupation past its configured bound."""


class RegistryMismatchError(ValueError):
    """Two states built over different mode registries were combined."""


class PolarizationKind(Enum):
    TRANSVERSE1 = "transverse1"
    TRANSVERSE2 = "transverse2"
    LONGITUDINAL = "longitudinal"
    SCALAR = "scalar"


@dataclass(frozen=True)
class PhotonMode:
    """One discrete field mode: wave vector, polarization kind, frequency = |k|."""

    k_vector: tuple[float, float, float]
    kind: PolarizationKind
    omega: float = 0.0  # filled from |k| when left at 0

    def __post_init__(self) -> None:
        k_norm = math.sqrt(sum(c * c for c in self.k_vector))
        if self.omega == 0.0:
            object.__setattr__(self, "omega", k_norm)
        if self.omega <= 0:
            raise ValueError(f"mode frequency must be positive, got {self.omega}")
        if not math.isclose(self.omega, k_norm, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError(
                f"omega = {self.omega} inconsistent with |k| = {k_norm} (natural units)"
            )

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
        """Indices of the (longitudinal, scalar) modes sharing this wave vector."""
        long_idx = scal_idx = None
        for i, mode in enumerate(self.modes):
            if mode.k_vector == tuple(k_vector):
                if mode.kind is PolarizationKind.LONGITUDINAL:
                    long_idx = i
                elif mode.kind is PolarizationKind.SCALAR:
                    scal_idx = i
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


@dataclass(frozen=True)
class OccupationState:
    """Basis label: oscillator A and B levels, and the non-zero photon counts
    as (mode, count) pairs sorted by mode, so a label costs O(photons), not
    O(modes).  photons may be given as a mapping or any iterable of pairs."""

    level_a: int
    level_b: int
    photons: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        pairs = self.photons.items() if isinstance(self.photons, Mapping) else self.photons
        object.__setattr__(self, "photons", tuple(sorted((j, n) for j, n in pairs if n)))

    @classmethod
    def _from_canonical(cls, level_a: int, level_b: int, photons: tuple[tuple[int, int], ...]):
        """Label from photons already in canonical form, skipping the conversion."""
        occ = object.__new__(cls)
        occ.__dict__.update(level_a=level_a, level_b=level_b, photons=photons)
        return occ

    def count(self, mode: int) -> int:
        return dict(self.photons).get(mode, 0)

    def total_photons(self) -> int:
        return sum(n for _, n in self.photons)

    def step(self, mode: int, raising: bool, p_max: int, cap: int | None = None):
        """One ordinary ladder step on mode: (new label, sqrt factor), or None
        where the step lowers an empty mode, raises past p_max photons in the
        mode, or raises past cap photons in total.  Lowering never checks p_max."""
        counts = dict(self.photons)
        n = counts.get(mode, 0)
        new = counts[mode] = n + 1 if raising else n - 1
        full = new > p_max or (cap is not None and sum(counts.values()) > cap)
        if new < 0 or (raising and full):
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

    def is_zero(self) -> bool:
        return not self._amp

    def is_vacuum_like(self) -> bool:
        """Single basis term with every occupation zero (any amplitude)."""
        if len(self._amp) != 1:
            return False
        (occ,) = self._amp
        return occ.level_a == 0 and occ.level_b == 0 and occ.total_photons() == 0

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
        p_max = self.registry.p_max
        out: dict[OccupationState, complex] = {}
        for occ, a in self._amp.items():
            stepped = occ.step(index, True, p_max)
            if stepped is None:
                raise TruncationError(
                    f"mode {index} ({self.registry.modes[index].kind.value}) would exceed "
                    f"p_max = {p_max}"
                )
            out[stepped[0]] = out.get(stepped[0], 0.0) + a * stepped[1]
        return StateVector(self.registry, out)

    def annihilate(self, index: int) -> "StateVector":
        out: dict[OccupationState, complex] = {}
        for occ, a in self._amp.items():
            stepped = occ.step(index, False, self.registry.p_max)
            if stepped is not None:
                out[stepped[0]] = out.get(stepped[0], 0.0) + a * stepped[1]
        return StateVector(self.registry, out)

    # -- metric ----------------------------------------------------------------

    def apply_metric(self) -> "StateVector":
        """Weight each term by scalar_metric_sign^(scalar photon count)."""
        sign = self.registry.scalar_metric_sign
        if sign == 1:
            return self
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
