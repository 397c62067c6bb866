"""Reduction of the exchange integrals to 1-D radial quadrature, principal
value across the resonance, and series-coefficient extraction.

The radial integrand k^2 G(k) grows linearly in k while oscillating with
period 2 pi / L; only the Gaussian cutoff near k ~ 1/d tames it, so the
integral is conditionally convergent and panel placement matters.  Composite
Gauss-Legendre with panels about one oscillation period wide is exact to
machine precision per panel; the adaptive loop doubles the panel count until
two successive levels agree.

Every amplitude is the same integral int k^2 G(k) B(ck) dk with a different
bracket B, so one radial pass integrates a list of brackets on one node set:
G(k) is evaluated once per segment and level, and each bracket is a column
with its own convergence test, level count, error estimate and residue.  A
column stops refining a segment once two successive levels agree to rel_tol
of that segment's own |value| or of the column's whole integral (the sum of
|value| over the segments, refined in lockstep).  The second branch matters
where a segment holds almost nothing of the total: once k L is large, G's
own rounding keeps such a segment from settling relative to itself.

The resonance is handled by a symmetric window: on [pole-w, pole+w] the
integral is rewritten as int_0^w [f(pole+t) + f(pole-t)] dt, where the 1/t
parts cancel pairwise and the quadrature never touches t = 0.  On a symmetric
window this equals textbook pole subtraction with the log term identically
zero.  The window half-width is clamped to the distance to the domain edges —
an unclamped window can silently spill past k = 0 and corrupt the value.
Whenever omega_a/c lies inside the domain, every column uses this pole-split
layout, pole-free brackets too: for them the window is a change of variables.

The on-shell residue (the imaginary part a +i eta regulator would produce) is
estimated separately for the columns with a pole and reported, never folded
into the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .core import SystemParams, ValidationError
from .matelem import TWO_PI_CUBED, ConvergenceError
from .perturbation import expansion_terms, lorentz_bracket

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# Smallest rel_tol accepted: two levels of a panel sum cannot be asked to
# agree more closely than their rounding, a few tens of eps of |value|.
ROUNDING_FLOOR = 32.0 * np.finfo(float).eps


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def _panel_nodes(lo: float, hi: float, n_panels: int,
                 nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, Gauss-Legendre weights, panel half-widths) of n_panels equal
    panels on [lo, hi]; points run panel by panel."""
    x, w = _leggauss(nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), w, half


@dataclass(frozen=True)
class QuadratureConfig:
    radial_nodes: int = 64  # Gauss-Legendre nodes per radial panel
    angular_nodes: int = 64  # nodes per angular panel
    kmax_over_invd: float = 8.0  # radial cutoff in units of 1/dipole_d
    pole_window: float = 0.5  # raw window = pole_window * pole, before clamping
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.radial_nodes < 2 or self.angular_nodes < 2:
            raise ValidationError("node counts must be at least 2")
        if self.kmax_over_invd < 6.0:
            raise ValidationError(
                "kmax_over_invd < 6 leaves a Gaussian tail above 1e-15"
            )
        if not (0.0 < self.pole_window < 1.0):
            raise ValidationError("pole_window must sit in (0, 1)")
        if not self.rel_tol >= ROUNDING_FLOOR:
            raise ValidationError(
                f"rel_tol = {self.rel_tol} is below the rounding floor {ROUNDING_FLOOR:.1e}"
            )


def config_from_mapping(mapping: dict[str, float | int]) -> QuadratureConfig:
    kwargs = {
        k: mapping[k]
        for k in ("radial_nodes", "angular_nodes", "kmax_over_invd", "pole_window", "rel_tol")
        if k in mapping
    }
    return QuadratureConfig(**kwargs)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    residue_imag: float  # discarded on-shell imaginary part; 0 when no pole
    nodes_used: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error estimate must be non-negative")


# ---------------------------------------------------------------------------
# Angular reduction
# ---------------------------------------------------------------------------

def _angular_panels(k: float, separation_l: float, dipole_d: float) -> int:
    # one panel comfortably resolves ~6 cosine periods and a moderate Gaussian
    return 1 + int(k * separation_l / (2.0 * math.pi) / 6.0) + int(k * dipole_d / 4.0)


def _g_batch(ks: np.ndarray, separation_l: float, dipole_d: float, nodes: int,
             n_panels: int | None = None, with_abs: bool = False):
    """Vectorized G(k) for a batch; panel count set by the largest k present
    unless n_panels is given.

    with_abs also returns 2 pi * sum_i |w_i f_i| per k: the absolute size of
    the terms G sums, which sets its rounding error.
    """
    if ks.size == 0:
        return np.zeros(0)
    if n_panels is None:
        n_panels = _angular_panels(float(np.max(np.abs(ks))), separation_l, dipole_d)
    u, w, half = _panel_nodes(-1.0, 1.0, n_panels, nodes)
    weights = (np.broadcast_to(w, (n_panels, nodes)) * half[:, None]).ravel()
    u_sq = u * u
    out = np.empty(ks.shape[0])
    sizes = np.empty(ks.shape[0])
    # block so the (k x u) work matrix stays ~16 MB regardless of panel count
    block = max(1, 2_000_000 // u.size)
    for start in range(0, ks.shape[0], block):
        ku = np.outer(ks[start:start + block], u)
        vals = u_sq[None, :] * np.exp(-((dipole_d * ku) ** 2)) * np.cos(separation_l * ku)
        out[start:start + block] = vals @ weights
        if with_abs:
            sizes[start:start + block] = np.abs(vals) @ weights
    if with_abs:
        return 2.0 * math.pi * out, 2.0 * math.pi * sizes
    return 2.0 * math.pi * out


def g_of_k(k: float, separation_l: float, dipole_d: float,
           nodes: int = 64, n_panels: int | None = None) -> float:
    """G(k) = 2 pi * int_{-1}^{1} u^2 exp(-(k d u)^2) cos(k L u) du.

    The full angular content of the exchange integrands: u is the cosine of
    the angle between k and the oscillator axis.  G(0) = 4 pi / 3.
    """
    return float(_g_batch(np.array([float(k)]), separation_l, dipole_d, nodes, n_panels)[0])


# Rounding allowance of angular_reduce, in units of eps * sum |w_i f_i|.  The
# gap between two resolved levels reaches 20 of those units over k in
# [0.01, 400] at the default geometry (9.4 at k = 190), so 64 leaves a margin
# of 3x; an under-resolved level misses by more than 1e13 of them.
_ANGULAR_ROUNDING_UNITS = 64.0


def angular_reduce(params: SystemParams, k: float, nodes: int | None = None) -> float:
    """G(k) for the configured geometry, with an explicit convergence check.

    The two panel levels must agree to 1e-10 relative, or to the rounding
    size of the fine level's sum where |G| is too small for that to be
    resolvable (G(k) cancels heavily once k L is large).
    """
    n = nodes or 64
    base = _angular_panels(k, params.separation_l, params.dipole_d)
    coarse = g_of_k(k, params.separation_l, params.dipole_d, n, base)
    fine, abs_sum = (float(a[0]) for a in _g_batch(
        np.array([float(k)]), params.separation_l, params.dipole_d, n, 2 * base, with_abs=True))
    allowed = max(1e-10 * abs(fine), _ANGULAR_ROUNDING_UNITS * np.finfo(float).eps * abs_sum)
    if abs(fine - coarse) > allowed:
        raise ConvergenceError(
            f"angular reduction did not settle at k = {k}: residual "
            f"{abs(fine - coarse):.3e} (allowed {allowed:.3e})"
        )
    return fine


# ---------------------------------------------------------------------------
# One radial pass, many columns: composite Gauss-Legendre with panel doubling
# and a principal value across a simple pole
# ---------------------------------------------------------------------------

class Column(NamedTuple):
    """One integrand of a radial pass: the shared base times weight (None: 1).

    pole marks a simple pole at the pass's split point; only such columns
    estimate and report a residue, the others report 0.
    """

    weight: Callable[[np.ndarray], np.ndarray] | None
    pole: bool = False

    def times(self, base_vals: np.ndarray, ks: np.ndarray) -> np.ndarray:
        return base_vals if self.weight is None else base_vals * self.weight(ks)


@dataclass(frozen=True)
class _Segment:
    lo: float
    hi: float
    panels: int  # panel count of the first level
    centre: float | None = None  # window: integrate f(centre + t) + f(centre - t)


def _segment_sums(base: Callable[[np.ndarray], np.ndarray], columns: Sequence[Column],
                  seg: _Segment, panels: int, nodes: int) -> list[float]:
    """One level of one segment: the base once per point set, then each
    column's panel sums, reduced in a fixed order."""
    pts, w, half = _panel_nodes(seg.lo, seg.hi, panels, nodes)
    ks = [pts] if seg.centre is None else [seg.centre + pts, seg.centre - pts]
    bases = [np.asarray(base(k), dtype=float) for k in ks]
    sums = []
    for col in columns:
        vals = col.times(bases[0], ks[0])
        if seg.centre is not None:
            vals = vals + col.times(bases[1], ks[1])
        panel_sums = (vals.reshape(panels, nodes) * w[None, :]).sum(axis=1) * half
        # compensated, order-fixed reduction: deterministic for a given config
        sums.append(math.fsum(panel_sums.tolist()))
    return sums


def _stalled(residual: float, config: QuadratureConfig) -> NoReturn:
    raise ConvergenceError(
        f"radial quadrature stalled at residual {residual:.3e} "
        f"(requested rel_tol {config.rel_tol:.1e})"
    )


def _refine(base: Callable[[np.ndarray], np.ndarray], columns: Sequence[Column],
            segments: Sequence[_Segment], config: QuadratureConfig, max_levels: int = 10,
            node_budget: int = 4_000_000) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, error estimates, nodes used), each indexed [segment, column].

    Segments are refined in lockstep, so at every comparison each column's
    whole integral is known.  A column stops refining a segment once two
    successive levels agree to rel_tol of the segment's own |value| or of the
    column's sum of |value| over the segments.
    """
    nodes = config.radial_nodes
    shape = (len(segments), len(columns))
    value, delta = np.zeros(shape), np.full(shape, math.inf)
    used, done = np.zeros(shape, dtype=int), np.zeros(shape, dtype=bool)
    panels = [seg.panels for seg in segments]
    for level in range(max_levels):
        prev = value.copy()
        for s, seg in enumerate(segments):
            live = ~done[s]
            if live.any():
                value[s, live] = _segment_sums(
                    base, [c for c, on in zip(columns, live) if on], seg, panels[s], nodes)
                used[s, live] += panels[s] * nodes
        if level > 0:
            live = ~done
            delta[live] = np.abs(value - prev)[live]
            scale = np.maximum(np.abs(value), np.abs(prev))
            settled = ((delta <= config.rel_tol * scale)
                       | (delta <= config.rel_tol * np.abs(value).sum(axis=0)))
            done |= live & settled
        if done.all():
            return value, delta, used
        for s in range(len(segments)):
            if not done[s].all():
                panels[s] *= 2
                if panels[s] * nodes > node_budget:
                    _stalled(delta[s][~done[s]].max(), config)
    _stalled(delta[~done].max(), config)


def radial_columns(
    base: Callable[[np.ndarray], np.ndarray],
    columns: Sequence[Column],
    pole_omega: float | None,
    config: QuadratureConfig,
    domain: tuple[float, float],
    min_panels_per_unit: float = 0.0,
) -> list[IntegralResult]:
    """Integrals over `domain` of base(k) * weight(k), one per column, on one
    shared node set.  base is evaluated once per segment and level.

    pole_omega None: plain adaptive quadrature on one segment.  Otherwise the
    domain splits at pole_omega.  Window rule: half-width
    w = min(pole_window * pole, pole - lo, hi - pole)/2, so the window never
    reaches a domain edge.  Inside the window the symmetric pairing
    int_0^w [f(p+t) + f(p-t)] dt removes a simple pole exactly; outside,
    panel edges are pinned to pole +- w.  For pole columns the residue term
    -pi * lim (pole - k) f(k) is reported as residue_imag.
    """
    lo, hi = domain
    if hi <= lo:
        raise ValidationError(f"empty domain ({lo}, {hi})")

    def seg_panels(a: float, b: float) -> int:
        return max(1, int((b - a) * min_panels_per_unit) + 1)

    if pole_omega is None:
        if any(col.pole for col in columns):
            raise ValidationError("a pole column needs the pole's position")
        segments: tuple[_Segment, ...] = (_Segment(lo, hi, seg_panels(lo, hi)),)
        samples = []
    else:
        p = float(pole_omega)
        if not (lo < p < hi):
            raise ValidationError(f"pole {p} must sit strictly inside ({lo}, {hi})")
        w = min(config.pole_window * p, p - lo, hi - p) / 2.0
        if w <= 0.0:
            raise ValidationError("degenerate pole window")
        segments = (  # summed in this order: left, right, window
            _Segment(lo, p - w, seg_panels(lo, p - w)),
            _Segment(p + w, hi, seg_panels(p + w, hi)),
            _Segment(0.0, w, seg_panels(0.0, w), centre=p),
        )
        # base at p + h and p - h, shared by the residue estimates
        h = 1e-2 * w
        samples = [(k, base(k)) for k in (np.array([p + h]), np.array([p - h]))
                   if any(col.pole for col in columns)]

    values, errors, used = _refine(base, columns, segments, config)
    results = []
    for j, col in enumerate(columns):
        residue_imag, extra = 0.0, 0
        if col.pole:
            f_plus, f_minus = (float(np.asarray(col.times(b, k))[0]) for k, b in samples)
            residue_strength = 0.5 * (-h * f_plus + h * f_minus)  # lim (p - k) f(k)
            residue_imag, extra = -math.pi * residue_strength, 2
        results.append(IntegralResult(
            value=sum(float(v) for v in values[:, j]),
            error_estimate=sum(float(e) for e in errors[:, j]),
            residue_imag=residue_imag,
            nodes_used=int(used[:, j].sum()) + extra,
        ))
    return results


def pv_radial(
    integrand: Callable[[np.ndarray], np.ndarray],
    pole_omega: float | None,
    config: QuadratureConfig,
    domain: tuple[float, float],
    min_panels_per_unit: float = 0.0,
) -> IntegralResult:
    """Principal-value integral over `domain` of a vectorized integrand with a
    simple pole at pole_omega (None: no pole, plain adaptive quadrature):
    radial_columns with one column."""
    column = Column(None, pole=pole_omega is not None)
    return radial_columns(integrand, [column], pole_omega, config, domain,
                          min_panels_per_unit)[0]


# ---------------------------------------------------------------------------
# The exchange amplitudes as radial integrals
# ---------------------------------------------------------------------------

COULOMB = Column(None)  # B = 1: the static route and the zeroth series term


def lorentz_column(params: SystemParams) -> Column:
    """The covariant bracket, with its simple pole at omega_a."""
    return Column(lambda omega: lorentz_bracket(params, omega), pole=True)


def series_columns(params: SystemParams) -> tuple[Column, Column]:
    """The first- and second-order splitting terms of the bracket; the
    zeroth-order term is COULOMB."""
    return (Column(lambda omega: expansion_terms(params, omega, 1), pole=True),
            Column(lambda omega: expansion_terms(params, omega, 2)))


def _rescale(result: IntegralResult, factor: float) -> IntegralResult:
    return IntegralResult(
        value=result.value * factor,
        error_estimate=result.error_estimate * abs(factor),
        residue_imag=result.residue_imag * factor,
        nodes_used=result.nodes_used,
    )


def epsilon_columns(params: SystemParams, config: QuadratureConfig,
                    brackets: Sequence[Column]) -> list[IntegralResult]:
    """Amplitudes -(q^2 d^2 / (eps0 delta_e (2pi)^3)) * int k^2 G(k) B(ck) dk,
    one per bracket, all from one radial pass.

    Each bracket's weight maps an array of photon frequencies to B; None
    means B = 1 (the Coulomb-gauge case).  All gauge variants share this one
    engine and its node set, so their comparisons share quadrature behavior
    exactly.
    """
    d = params.dipole_d
    k_hi = config.kmax_over_invd / d
    per_unit = params.separation_l / (2.0 * math.pi)  # panels per oscillation

    def radial(ks: np.ndarray) -> np.ndarray:
        return ks * ks * _g_batch(ks, params.separation_l, d, config.angular_nodes)

    def in_k(bracket: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        return lambda ks: bracket(params.c * ks)

    columns = [Column(None if b.weight is None else in_k(b.weight), b.pole) for b in brackets]
    k_pole = params.omega_a / params.c
    split = k_pole if 0.0 < k_pole < k_hi or any(b.pole for b in brackets) else None
    raws = radial_columns(radial, columns, split, config, (0.0, k_hi),
                          min_panels_per_unit=per_unit)
    prefactor = -(
        params.charge_q**2 * d * d / (params.eps0 * params.delta_e * TWO_PI_CUBED)
    )
    return [_rescale(raw, prefactor) for raw in raws]


def epsilon_coulomb(params: SystemParams, config: QuadratureConfig) -> IntegralResult:
    """First-order Coulomb-gauge amplitude; tends to q^2 d^2/(2 pi eps0 delta_e L^3)
    as d/L -> 0."""
    return epsilon_columns(params, config, [COULOMB])[0]


def epsilon_lorentz(params: SystemParams, config: QuadratureConfig) -> IntegralResult:
    """Second-order covariant-gauge amplitude: principal value of the
    bracket-weighted radial integral."""
    return epsilon_columns(params, config, [lorentz_column(params)])[0]


def coulomb_closed_form(params: SystemParams) -> float:
    """q^2 d^2 / (2 pi eps0 delta_e L^3): the d << L limit of epsilon_coulomb."""
    return (
        params.charge_q**2
        * params.dipole_d**2
        / (2.0 * math.pi * params.eps0 * params.delta_e * params.separation_l**3)
    )


@dataclass(frozen=True)
class SeriesCoefficients:
    """Splitting-series coefficients of the covariant/Coulomb amplitude ratio.

    c0 is dimensionless; c1 is reported in units delta_e/(hbar omega_l) and c2
    in units (delta_e/(hbar omega_a))^2, so each should be O(1).
    """

    c0: IntegralResult
    c1: IntegralResult
    c2: IntegralResult

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c0.value, self.c1.value, self.c2.value)


def series_from_terms(params: SystemParams, term0: IntegralResult, term1: IntegralResult,
                      term2: IntegralResult) -> SeriesCoefficients:
    """Normalize the amplitudes of the COULOMB and series_columns brackets."""
    eps_c = coulomb_closed_form(params)
    de = params.delta_e / params.hbar
    return SeriesCoefficients(
        c0=_rescale(term0, 1.0 / eps_c),
        c1=_rescale(term1, 1.0 / (eps_c * de / params.omega_l)),
        c2=_rescale(term2, 1.0 / (eps_c * (de / params.omega_a) ** 2)),
    )


def series_coefficients(params: SystemParams, config: QuadratureConfig) -> SeriesCoefficients:
    """Integrate the splitting-expansion terms in one pass and normalize.

    Uses the explicit term integrands rather than finite differences of the
    full amplitude: the latter amplifies quadrature noise by 1/delta_e.
    """
    terms = epsilon_columns(params, config, [COULOMB, *series_columns(params)])
    return series_from_terms(params, *terms)
