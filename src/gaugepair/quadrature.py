"""The exchange integrals, reduced to one dimension in k_x, with the
spherical engine kept as their oracle; principal value across the
resonance, and series-coefficient extraction.

Every amplitude is a ball integral over |k| < K of
(k_x/k)^2 exp(-(d k_x)^2) cos(L k_x) B(c k), with a different rational
bracket B.  Two reductions of it exist here, sharing no node:

* The k_x route (epsilon_columns, the production path).  In cylindrical
  coordinates about the oscillator axis the k_perp integral is closed form:
      int_0^K k^2 G(k) B(ck) dk
          = 4 pi int_0^K k_x^2 exp(-(d k_x)^2) cos(L k_x) H(c k_x) dk_x,
      H(w) = PV int_w^{cK} B(v)/v dv,
  and H comes from hand-derived partial fractions of B(v)/v (Column.fractions),
  evaluated in forms that do not cancel where w >> omega_a.  What is left is
  one Gaussian-weighted integral in k_x, taken on one composite
  Gauss-Legendre node set for every column.  Panels are about one period of
  cos(L k_x) wide and graded geometrically toward k_x = 0 (where the
  integrand goes as k_x^2 log k_x) and toward omega_a/c from both sides
  (where log|omega_a - c k_x| sits).  The graded panels near the pole are
  built in the distance from it, so no node lands on it.  Each level halves
  every panel; a column settles once two levels agree to rel_tol of its
  value or to the rounding size of its sum, eps * sum |w_i f_i|, and reports
  their difference plus that rounding size as its error estimate.  The
  on-shell residue is closed form: p^3 G(p) = 4 pi int_0^p k_x^2
  exp(-(d k_x)^2) cos(L k_x) dk_x on the same nodes, with p = omega_a/c.
  Config keys: radial_nodes (nodes per panel, 32 by default), kmax_over_invd
  (K) and rel_tol (the stopping rule, and the number of halvings in the
  graded panels, log2(1/rel_tol)).  32 nodes suffice because a panel spans
  one period of cos(L k_x): at the default point levels 0 and 1 agree to
  4e-12 relative or better, inside the amplitude sums' own rounding size of
  4e-11, and the stopping rule verifies every result, so a panel too coarse
  for its integrand costs a level, not digits.

* The spherical engine (spherical_columns, the oracle; only tests call it).
  The angular kernel G(k) = 2 pi int u^2 exp(-(k d u)^2) cos(k L u) du is
  integrated on angular panels, then k^2 G(k) B(ck) radially.  That
  integrand grows linearly in k while oscillating with period 2 pi / L; only
  the Gaussian cutoff near k ~ 1/d tames it, so the integral is
  conditionally convergent and panel placement matters.  Composite
  Gauss-Legendre with panels about one oscillation period wide is exact to
  machine precision per panel; the adaptive loop doubles the panel count
  until two successive levels agree.  One radial pass integrates a list of
  brackets on one node set: G(k) is evaluated once per segment and level,
  and each bracket is a column with its own convergence test, level count,
  error estimate and residue.  A column stops refining a segment once two
  successive levels agree to rel_tol of that segment's own |value| or of the
  column's whole integral (the sum of |value| over the segments, refined in
  lockstep).  The second branch matters where a segment holds almost nothing
  of the total: once k L is large, G's own rounding keeps such a segment
  from settling relative to itself.
  The resonance is handled by a symmetric window: on [pole-w, pole+w] the
  integral is rewritten as int_0^w [f(pole+t) + f(pole-t)] dt, where the 1/t
  parts cancel pairwise and the quadrature never touches t = 0.  On a
  symmetric window this equals textbook pole subtraction with the log term
  identically zero.  The window half-width is clamped to the distance to the
  domain edges -- an unclamped window can silently spill past k = 0 and
  corrupt the value.  Whenever omega_a/c lies inside the domain, every
  column uses this pole-split layout, pole-free brackets too: for them the
  window is a change of variables.  The residue is a central difference of
  the whole integrand at pole +- 1e-6 pole.  Fields read: radial_nodes,
  angular_nodes (no config-file key), kmax_over_invd, rel_tol.  Its radial
  integrand grows with k, so the tests run it at 64 radial and 64 angular
  nodes rather than the k_x route's default of 32.

The on-shell residue (the imaginary part a +i eta regulator would produce) is
reported for the columns with a pole, never folded into the value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .core import QUADRATURE_KEYS, SystemParams, ValidationError
from .matelem import TWO_PI_CUBED, ConvergenceError
from .perturbation import expansion_terms, lorentz_bracket

# Smallest rel_tol accepted: two levels of a panel sum cannot be asked to
# agree more closely than their rounding, a few tens of eps of |value|.
ROUNDING_FLOOR = 32.0 * np.finfo(float).eps


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1)


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: numpy's rule polished by
    Newton steps in extended precision.  numpy's own weights are off by up to
    1.3e-12 relative at 64 nodes, and the same error repeats on every panel,
    so on a sum of a hundred like-signed panels it adds up to 1e-10.  Cached:
    no caller writes to the arrays."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(2):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    return x.astype(float), (2 / ((1 - x * x) * dp * dp)).astype(float)


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
    # Gauss-Legendre nodes per k_x or radial panel.  A k_x panel is one period
    # of cos(L k_x) wide, where 32 nodes settle every report column at level 1;
    # the stopping rule checks that, so too few nodes cost levels, not digits.
    radial_nodes: int = 32
    angular_nodes: int = 64  # nodes per angular panel (spherical engine)
    kmax_over_invd: float = 8.0  # cutoff K in units of 1/dipole_d
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.radial_nodes < 2 or self.angular_nodes < 2:
            raise ValidationError("node counts must be at least 2")
        if not 6.0 <= self.kmax_over_invd < math.inf:
            raise ValidationError(f"kmax_over_invd = {self.kmax_over_invd} outside [6, inf): "
                                  "below 6 it leaves a Gaussian tail above 1e-15")
        if not ROUNDING_FLOOR <= self.rel_tol < 1.0:
            raise ValidationError(f"rel_tol = {self.rel_tol} outside [{ROUNDING_FLOOR:.1e}, 1): "
                                  "below the rounding floor no two levels can agree")


def config_from_mapping(mapping: dict[str, float | int]) -> QuadratureConfig:
    return QuadratureConfig(**{k: mapping[k] for k in QUADRATURE_KEYS if k in mapping})


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    residue_imag: float  # discarded on-shell imaginary part; 0 when no pole
    nodes_used: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error estimate must be non-negative")


# Panel doublings, and nodes per level (per segment and level in the
# spherical engine), before a pass gives up as stalled.
_MAX_LEVELS = 10
_NODE_BUDGET = 4_000_000

POLE_WINDOW = 0.5  # raw window = POLE_WINDOW * pole (spherical engine)


def _stalled(residual: float, config: QuadratureConfig) -> NoReturn:
    raise ConvergenceError(
        f"radial quadrature stalled at residual {residual:.3e} "
        f"(requested rel_tol {config.rel_tol:.1e})"
    )


# ---------------------------------------------------------------------------
# Columns: one bracket B, in the two forms the two routes integrate
# ---------------------------------------------------------------------------

class Column(NamedTuple):
    """One bracket B of a pass.  weight maps photon frequencies to B for the
    spherical engine (None: B = 1).  fractions is B(omega)/omega for the k_x
    route, in partial fractions: a sum of (kind, shift, coefficient) terms,
    kind one of "inv2" 1/omega^2, "inv" 1/omega, "pole" 1/(shift - omega),
    "plus" 1/(shift + omega) and "plus2" 1/(shift + omega)^2 (shift is
    ignored for the first two).  pole marks a simple pole at omega_a; only
    such columns report a residue, the others report 0.
    """

    weight: Callable[[np.ndarray], np.ndarray] | None
    pole: bool = False
    fractions: tuple[tuple[str, float, float], ...] | None = None

    def times(self, base_vals: np.ndarray, ks: np.ndarray) -> np.ndarray:
        return base_vals if self.weight is None else base_vals * self.weight(ks)


# ---------------------------------------------------------------------------
# The k_x route
# ---------------------------------------------------------------------------

def _log1p_excess(u: np.ndarray) -> np.ndarray:
    """log(1 + u) - u/(1 + u) in place of u, summed as its series where
    u < 1/8, where the two terms would cancel to u^2/2."""
    small = u < 0.125
    us, ub = u[small], u[~small]
    u[~small] = np.log1p(ub) - ub / (1.0 + ub)
    acc = np.zeros_like(us)
    for n in range(20, 1, -1):  # sum over n >= 2 of (-1)^n (n-1)/n u^n
        acc *= us
        acc += (-1) ** n * (n - 1) / n
    u[small] = acc * us * us
    return u


def _antiderivative(kind: str, shift: float, w: np.ndarray, off: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """F of one basis function into out, with int_w^W = F(w) - F(W).  off is
    w - shift, exact near the pole."""
    if kind == "inv2":
        return np.divide(1.0, w, out=out)
    if kind == "pole":  # of 1/(s - v) + 1/v: -log|1 - s/v| = -F
        far = w > 2.0 * shift
        out[far] = np.log1p(-shift / w[far])
        out[~far] = np.log(np.abs(off[~far]) / w[~far])
        return out
    if kind == "excess":
        return _log1p_excess(np.divide(shift, w, out=out))
    return np.divide(1.0, np.add(shift, w, out=out), out=out)  # "frac", of 1/(s + v)^2


def _h_coefficients(fractions: tuple) -> dict[tuple[str, float], float]:
    """The fractions as coefficients of H's basis, each summed before use so
    that parts which cancel exactly (the order-2 term's 1/(s + v)) never
    enter as two large values:
      "log"    log(W/w), from 1/v;
      "inv2"   1/w - 1/W;
      "pole"   F(w) - F(W), F = log|1 - s/w|, from 1/(s - v) + 1/v;
      "excess" from 1/(s + v) - 1/v, whose integral log(1 + s/W) - log(1 + s/w)
               is split as -[e(s/w) - e(s/W)] - s[1/(s + w) - 1/(s + W)],
               e = _log1p_excess;
      "frac"   1/(s + w) - 1/(s + W), from 1/(s + v)^2.
    """
    coeffs: dict[tuple[str, float], float] = {}

    def add(key: tuple[str, float], coeff: float) -> None:
        coeffs[key] = coeffs.get(key, 0.0) + coeff

    for kind, shift, coeff in fractions:
        if kind == "inv":
            add(("log", 0.0), coeff)
        elif kind == "inv2":
            add(("inv2", 0.0), coeff)
        elif kind == "pole":
            add(("log", 0.0), -coeff)
            add(("pole", shift), coeff)
        elif kind == "plus":
            add(("log", 0.0), coeff)
            add(("excess", shift), -coeff)
            add(("frac", shift), -shift * coeff)
        elif kind == "plus2":
            add(("frac", shift), coeff)
        else:
            raise ValueError(f"unknown partial-fraction term {kind!r}")
    return {key: coeff for key, coeff in coeffs.items() if coeff != 0.0}


def _basis(key: tuple[str, float], w: np.ndarray, off: np.ndarray, w_hi: float,
           off_hi: float, out: np.ndarray) -> np.ndarray:
    """One basis function of H (see _h_coefficients) at every w, into out."""
    if key[0] == "log":
        return np.log(np.divide(w_hi, w, out=out), out=out)
    at_hi = _antiderivative(*key, np.array([w_hi]), np.array([off_hi]), np.empty(1))[0]
    return np.subtract(_antiderivative(*key, w, off, out), at_hi, out=out)


def _h_values(fractions: tuple, basis: dict, h: np.ndarray) -> np.ndarray:
    """H(w) = PV int_w^W B(v)/v dv into h, from the basis functions' values."""
    h.fill(0.0)
    term = np.empty_like(h)
    for key, coeff in _h_coefficients(fractions).items():
        h += np.multiply(coeff, basis[key], out=term)
    return h


def _graded(anchor: float, sign: float, width: float, halvings: int) -> np.ndarray:
    """Panels (anchor, sign, t_lo, t_hi) covering distances [0, width] from
    anchor, halving toward it: [width/2, width], [width/4, width/2], ..."""
    hi = width * 0.5 ** np.arange(halvings + 1)
    lo = np.append(hi[1:], 0.0)
    return np.column_stack([np.full(hi.size, anchor), np.full(hi.size, sign), lo, hi])


def _uniform(lo: float, hi: float, n: int) -> np.ndarray:
    edges = np.linspace(lo, hi, n + 1)
    return np.column_stack([np.zeros(n), np.ones(n), edges[:-1], edges[1:]])


def _kx_panels(pole: float | None, k_hi: float, per_unit: float, halvings: int) -> np.ndarray:
    """Base panels on [0, k_hi] as rows (anchor, sign, t_lo, t_hi): the nodes
    are anchor + sign * t.  Panels are about 1/per_unit wide; the ones next
    to k_x = 0 and to the pole are graded toward it."""

    def count(length: float) -> int:
        return max(1, int(length * per_unit) + 1)

    if pole is None:
        n = count(k_hi)
        return np.concatenate([_graded(0.0, 1.0, k_hi / n, halvings),
                               _uniform(k_hi / n, k_hi, n - 1)])
    n = count(pole)
    if n == 1:
        left = [_graded(0.0, 1.0, 0.5 * pole, halvings), _graded(pole, -1.0, 0.5 * pole, halvings)]
    else:
        width = pole / n
        left = [_graded(0.0, 1.0, width, halvings), _uniform(width, pole - width, n - 2),
                _graded(pole, -1.0, width, halvings)]
    n = count(k_hi - pole)
    width = (k_hi - pole) / n
    right = [_graded(pole, 1.0, width, halvings), _uniform(pole + width, k_hi, n - 1)]
    return np.concatenate(left + right)


def _kx_nodes(panels: np.ndarray, level: int, nodes: int, pole: float | None,
              work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(k_x, low, k_x - pole, weights) with every base panel split into
    2^level, written into work[:4].

    Nodes are measured from their sub-panel's left edge, so each rule covers
    exactly the interval between two shared edges; measured from a rounded
    midpoint, neighbours would overlap or leave gaps of an ulp.  k_x is the
    rounded node and k_x + low the node itself: the dropped low bits
    repeat in every panel of a binade, and panels one period of cos(L k_x)
    wide would add their phase error coherently.
    """
    anchor, sign, lo, hi = panels.T
    frac = np.arange(2**level + 1) / 2**level
    t_edges = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    x_edges = anchor[:, None] + sign[:, None] * t_edges
    left = np.minimum(x_edges[:, :-1], x_edges[:, 1:]).reshape(-1, 1)
    half = 0.5 * np.abs(x_edges[:, 1:] - x_edges[:, :-1]).reshape(-1, 1)
    xg, wg = _leggauss(nodes)
    kx, low, off, weights = work[:4]
    step = half * (1.0 + np.repeat(sign, 2**level)[:, None] * xg)  # reversed where k_x falls with t
    back = np.add(left, step, out=kx) - left  # two-sum: left + step = kx + low exactly
    np.add(left - (kx - back), step - back, out=low)
    if pole is None:
        off = kx
    else:  # distances from the pole, exact on the panels graded toward it
        np.subtract(kx, pole, out=off)
        rows = anchor == pole
        t_half = 0.5 * (t_edges[rows, 1:] - t_edges[rows, :-1]).reshape(-1, 1)
        t = t_edges[rows, :-1].reshape(-1, 1) + t_half * (1.0 + xg[None, :])
        off.reshape(panels.shape[0], -1)[rows] = sign[rows, None] * t.reshape(rows.sum(), -1)
    return kx.ravel(), low.ravel(), off.ravel(), np.multiply(half, wg, out=weights).ravel()


def _panel_sum(terms: np.ndarray, nodes: int) -> float:
    # compensated, order-fixed reduction: deterministic for a given config
    return math.fsum(terms.reshape(-1, nodes).sum(axis=1).tolist())


def _kx_columns(params: SystemParams, config: QuadratureConfig,
                columns: Sequence[Column]) -> list[IntegralResult]:
    """int_0^K k^2 G(k) B(ck) dk for every column, by the k_x reduction."""
    d, length, c = params.dipole_d, params.separation_l, params.c
    k_hi = config.kmax_over_invd / d
    k_pole = params.omega_a / c
    pole = k_pole if 0.0 < k_pole < k_hi else None
    if pole is None and any(col.pole for col in columns):
        raise ValidationError(f"pole {k_pole} must sit strictly inside (0, {k_hi})")
    nodes = config.radial_nodes
    halvings = math.ceil(-math.log2(config.rel_tol))
    if k_hi * length / (2.0 * math.pi) * nodes > _NODE_BUDGET:  # the base panels alone exceed it
        _stalled(math.inf, config)
    panels = _kx_panels(pole, k_hi, length / (2.0 * math.pi), halvings)
    w_hi, off_hi = c * k_hi, c * (k_hi - (pole or 0.0))

    results: list[IntegralResult | None] = [None] * len(columns)
    prev = [0.0] * len(columns)
    n_rows = 8 + len({key for col in columns for key in _h_coefficients(col.fractions)})
    unsettled, used = math.inf, 0
    for level in range(_MAX_LEVELS):
        if panels.shape[0] * 2**level * nodes > _NODE_BUDGET:
            break
        # one buffer for every array of the level, so no level faults in fresh pages
        work = np.empty((n_rows, panels.shape[0] * 2**level, nodes))
        kx, low, off, weights = _kx_nodes(panels, level, nodes, pole, work)
        phase, cos, slope, base, *spare = work[4:].reshape(n_rows - 4, -1)
        used += kx.size
        # 4 pi k_x^2 exp(-(d k_x)^2) cos(L k_x) at k_x + low, to first order, as
        # weights 4 pi k_x k_x exp(-(d k_x)^2) (cos + low ((2/k_x - 2 d^2 k_x) cos - L sin))
        np.cos(np.multiply(length, kx, out=phase), out=cos)
        np.multiply(length, np.sin(phase, out=phase), out=phase)
        np.subtract(np.divide(2.0, kx, out=slope), np.multiply(2.0 * d * d, kx, out=base), out=slope)
        np.subtract(np.multiply(slope, cos, out=slope), phase, out=slope)
        np.exp(np.negative(np.square(np.multiply(d, kx, out=phase), out=phase), out=phase), out=phase)
        np.multiply(weights, 4.0 * math.pi, out=base)
        for factor in (kx, kx, phase, np.add(cos, np.multiply(low, slope, out=slope), out=slope)):
            base *= factor
        w, w_off = np.multiply(c, kx, out=phase), np.multiply(c, off, out=cos)  # rows now free
        live = {key for col, r in zip(columns, results) if r is None
                for key in _h_coefficients(col.fractions)}
        basis = {key: _basis(key, w, w_off, w_hi, off_hi, row) for key, row in zip(live, spare)}
        p3g = None
        if level > 0:
            unsettled = 0.0
        for j, col in enumerate(columns):
            if results[j] is not None:
                continue
            terms = np.multiply(base, _h_values(col.fractions, basis, slope), out=slope)
            value = _panel_sum(terms, nodes)
            rounding = float(np.finfo(float).eps * np.abs(terms, out=terms).sum())
            delta = abs(value - prev[j])
            prev[j] = value
            if level == 0:
                continue
            if delta > config.rel_tol * abs(value) + rounding:
                unsettled = max(unsettled, delta)
                continue
            residue = 0.0
            if col.pole:
                if p3g is None:  # p^3 G(p): the base integrated over [0, p]
                    p3g = _panel_sum(np.where(off < 0.0, base, 0.0), nodes)
                coeff = sum(cf for kind, _, cf in col.fractions if kind == "pole")
                residue = -math.pi * coeff * p3g
            results[j] = IntegralResult(value=value, error_estimate=delta + rounding,
                                        residue_imag=residue, nodes_used=used)
        if all(r is not None for r in results):
            return results
    _stalled(unsettled, config)


# ---------------------------------------------------------------------------
# The spherical engine: angular reduction
# ---------------------------------------------------------------------------

def _angular_panels(k: float, separation_l: float, dipole_d: float, nodes: int) -> int:
    # cos(k L u) runs through kL/pi periods on [-1, 1]; at 64 or more nodes a
    # panel holds up to about 12 of them (kL/(2 pi)/6 panels), and one more
    # panel per 4 of k d covers the Gaussian.  Fewer nodes take
    # proportionally narrower panels, so G keeps its accuracy.
    scale = max(1.0, 64.0 / nodes)
    return (1 + int(k * separation_l / (2.0 * math.pi) / 6.0 * scale)
            + int(k * dipole_d / 4.0 * scale))


def _g_batch(ks: np.ndarray, separation_l: float, dipole_d: float, nodes: int) -> np.ndarray:
    """G(k) = 2 pi * int_{-1}^{1} u^2 exp(-(k d u)^2) cos(k L u) du for a batch
    of k, on one angular panel count set by the largest k present.

    The full angular content of the exchange integrands: u is the cosine of
    the angle between k and the oscillator axis.  G(0) = 4 pi / 3.
    """
    if ks.size == 0:
        return np.zeros(0)
    n_panels = _angular_panels(float(np.max(np.abs(ks))), separation_l, dipole_d, nodes)
    u, w, half = _panel_nodes(-1.0, 1.0, n_panels, nodes)
    weights = (np.broadcast_to(w, (n_panels, nodes)) * half[:, None]).ravel()
    u_sq = u * u
    out = np.empty(ks.shape[0])
    # block so the (k x u) work matrix stays ~16 MB regardless of panel count
    block = max(1, 2_000_000 // u.size)
    for start in range(0, ks.shape[0], block):
        ku = np.outer(ks[start:start + block], u)
        vals = u_sq[None, :] * np.exp(-((dipole_d * ku) ** 2)) * np.cos(separation_l * ku)
        out[start:start + block] = vals @ weights
    return 2.0 * math.pi * out


# ---------------------------------------------------------------------------
# The spherical engine: one radial pass, many columns, composite
# Gauss-Legendre with panel doubling and a principal value across a simple pole
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    lo: float
    hi: float
    panels: int  # panel count of the first level
    centre: float | None = None  # window: integrate f(centre + t) + f(centre - t)


def _segment_sums(base: Callable[[np.ndarray], np.ndarray], columns: Sequence[Column],
                  seg: _Segment, panels: int, nodes: int) -> list[float]:
    """One level of one segment: the base once, then each column's panel
    sums, reduced in a fixed order.

    A window's p + t and p - t points go to the base as one array, so both
    halves see one angular panel count and their 1/t parts cancel.
    """
    pts, w, half = _panel_nodes(seg.lo, seg.hi, panels, nodes)
    ks = pts if seg.centre is None else np.concatenate([seg.centre + pts, seg.centre - pts])
    base_vals = np.asarray(base(ks), dtype=float)
    sums = []
    for col in columns:
        vals = col.times(base_vals, ks)
        if seg.centre is not None:
            vals = vals[:pts.size] + vals[pts.size:]
        panel_sums = (vals.reshape(panels, nodes) * w[None, :]).sum(axis=1) * half
        # compensated, order-fixed reduction: deterministic for a given config
        sums.append(math.fsum(panel_sums.tolist()))
    return sums


def _refine(base: Callable[[np.ndarray], np.ndarray], columns: Sequence[Column],
            segments: Sequence[_Segment],
            config: QuadratureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    for level in range(_MAX_LEVELS):
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
                if panels[s] * nodes > _NODE_BUDGET:
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
    w = min(POLE_WINDOW * pole, pole - lo, hi - pole)/2, so the window never
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
        w = min(POLE_WINDOW * p, p - lo, hi - p) / 2.0
        if w <= 0.0:
            raise ValidationError("degenerate pole window")
        segments = (  # summed in this order: left, right, window
            _Segment(lo, p - w, seg_panels(lo, p - w)),
            _Segment(p + w, hi, seg_panels(p + w, hi)),
            _Segment(0.0, w, seg_panels(0.0, w), centre=p),
        )
        # base at p + h and p - h, shared by the residue estimates
        h = 1e-6 * p
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
) -> IntegralResult:
    """Principal-value integral over `domain` of a vectorized integrand with a
    simple pole at pole_omega (None: no pole, plain adaptive quadrature):
    radial_columns with one column."""
    column = Column(None, pole=pole_omega is not None)
    return radial_columns(integrand, [column], pole_omega, config, domain)[0]


# ---------------------------------------------------------------------------
# The exchange amplitudes
# ---------------------------------------------------------------------------

# B = 1: the static route and the zeroth series term
COULOMB = Column(None, fractions=(("inv", 0.0, 1.0),))


def lorentz_column(params: SystemParams) -> Column:
    """The covariant bracket, with its simple pole at omega_a.

    With delta = omega_b - omega_a,
    B/omega = (delta/2)/omega^2 + (1 + delta/2omega_a - delta/2omega_b)/omega
              + (delta/2omega_a)/(omega_a - omega) + (delta/2omega_b)/(omega_b + omega).
    """
    wa, wb = params.omega_a, params.omega_b
    half = 0.5 * (wb - wa)
    fractions = (
        ("inv2", 0.0, half),
        ("inv", 0.0, 1.0 + half / wa - half / wb),
        ("pole", wa, half / wa),
        ("plus", wb, half / wb),
    )
    return Column(lambda omega: lorentz_bracket(params, omega), pole=True, fractions=fractions)


def series_columns(params: SystemParams) -> tuple[Column, Column]:
    """The first- and second-order splitting terms of the bracket; the
    zeroth-order term is COULOMB.

    With de = delta_e/hbar,
    order 1: B/omega = (de/2) [1/omega^2 + (1/omega_a)/(omega_a - omega)
                               + (1/omega_a)/(omega_a + omega)];
    order 2: B/omega = (de^2/2) [1/(omega_a^2 omega) - 1/(omega_a^2 (omega_a + omega))
                                 - 1/(omega_a (omega_a + omega)^2)].
    """
    wa = params.omega_a
    de = params.delta_e / params.hbar
    first = (
        ("inv2", 0.0, 0.5 * de),
        ("pole", wa, 0.5 * de / wa),
        ("plus", wa, 0.5 * de / wa),
    )
    k = 0.5 * de * de / (wa * wa)
    # -k * wa, not -(de^2/2)/wa: the two 1/(omega_a + omega) parts of H then
    # cancel exactly
    second = (("inv", 0.0, k), ("plus", wa, -k), ("plus2", wa, -k * wa))
    return (Column(lambda omega: expansion_terms(params, omega, 1), pole=True, fractions=first),
            Column(lambda omega: expansion_terms(params, omega, 2), fractions=second))


def _rescale(result: IntegralResult, factor: float) -> IntegralResult:
    return IntegralResult(
        value=result.value * factor,
        error_estimate=result.error_estimate * abs(factor),
        residue_imag=result.residue_imag * factor,
        nodes_used=result.nodes_used,
    )


def _prefactor(params: SystemParams) -> float:
    d = params.dipole_d
    return -(params.charge_q**2 * d * d / (params.eps0 * params.delta_e * TWO_PI_CUBED))


def epsilon_columns(params: SystemParams, config: QuadratureConfig,
                    brackets: Sequence[Column]) -> list[IntegralResult]:
    """Amplitudes -(q^2 d^2 / (eps0 delta_e (2pi)^3)) * int k^2 G(k) B(ck) dk,
    one per bracket, all on one k_x node set.

    Each bracket's fractions give B(omega)/omega; COULOMB is B = 1.  All
    gauge variants share this one route and its node set, so their
    comparisons share quadrature behavior exactly.
    """
    prefactor = _prefactor(params)
    return [_rescale(raw, prefactor) for raw in _kx_columns(params, config, brackets)]


def spherical_columns(params: SystemParams, config: QuadratureConfig,
                      brackets: Sequence[Column]) -> list[IntegralResult]:
    """The amplitudes of epsilon_columns from the spherical engine: G(k) on
    angular panels, then one adaptive radial pass with the pole window.

    The oracle of the k_x route; it shares no node with it.
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
    prefactor = _prefactor(params)
    return [_rescale(raw, prefactor) for raw in raws]


def epsilon_coulomb(params: SystemParams, config: QuadratureConfig) -> IntegralResult:
    """First-order Coulomb-gauge amplitude; tends to q^2 d^2/(2 pi eps0 delta_e L^3)
    as d/L -> 0."""
    return epsilon_columns(params, config, [COULOMB])[0]


def epsilon_lorentz(params: SystemParams, config: QuadratureConfig) -> IntegralResult:
    """Second-order covariant-gauge amplitude: principal value of the
    bracket-weighted integral."""
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


def series_normalizations(params: SystemParams) -> tuple[float, float, float]:
    """Divisors of c0, c1, c2 (eps_c, times the units of c1 and c2); one that is
    zero or not finite raises ValidationError, before any quadrature runs."""
    try:
        eps_c, de = coulomb_closed_form(params), params.delta_e / params.hbar
        norms = (eps_c, eps_c * de / params.omega_l, eps_c * (de / params.omega_a) ** 2)
        if all(0.0 < abs(n) < math.inf for n in norms):
            return norms
    except (ZeroDivisionError, OverflowError):
        pass
    raise ValidationError("series normalization is zero or not finite: charge_q = 0, "
                          "or a scale beyond floating-point range")


def series_from_terms(norms: Sequence[float],
                      terms: Sequence[IntegralResult]) -> SeriesCoefficients:
    """Normalize the amplitudes of the COULOMB and series_columns brackets."""
    return SeriesCoefficients(*(_rescale(t, 1.0 / n) for t, n in zip(terms, norms)))


def series_coefficients(params: SystemParams, config: QuadratureConfig) -> SeriesCoefficients:
    """Integrate the splitting-expansion terms in one pass and normalize.

    Uses the explicit term integrands rather than finite differences of the
    full amplitude: the latter amplifies quadrature noise by 1/delta_e.
    """
    norms = series_normalizations(params)
    terms = epsilon_columns(params, config, [COULOMB, *series_columns(params)])
    return series_from_terms(norms, terms)
