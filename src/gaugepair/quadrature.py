"""The exchange integrals, reduced to one dimension in k_x and taken on
steepest-descent contour sides, and the spherical engine that a test-side
oracle runs; principal value across the resonance, and series coefficients.

Every amplitude is a ball integral over |k| < K of
(k_x/k)^2 exp(-(d k_x)^2) cos(L k_x) B(c k), with a different rational
bracket B.  Two reductions of it exist here, sharing no node:

* The k_x route (epsilon_columns, the production path).  In cylindrical
  coordinates about the oscillator axis the k_perp integral is closed form:
      int_0^K k^2 G(k) B(ck) dk
          = 4 pi int_0^K k_x^2 exp(-(d k_x)^2) cos(L k_x) H(c k_x) dk_x,
      H(w) = PV int_w^{cK} B(v)/v dv,
  and H comes from hand-derived partial fractions of B(v)/v, evaluated in
  forms that do not cancel where w >> omega_a.  A report column is nothing
  but those fractions (Fractions: COULOMB, lorentz_column, series_columns
  and gauge.mapped_column); it has a pole exactly when its "pole" terms sum
  to a nonzero coefficient.  On the real axis the integrand runs through
  K L / 2 pi periods; instead it is taken by numerical steepest descent
  (Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44 (2006) 1026).  H
  continues into the upper half plane, and Cauchy's theorem moves the
  integral onto the sides k = iy and k = K + iy of a rectangle, where
  exp(i L k) decays as exp(-L y): a side needs the same nodes whatever L
  and L/d are (_contour_columns).  Nodes are taken only where the sums can
  feel them: the far side k = K + iy, and where the rectangle has no top the
  sides' panels above an edge Y', are left out whenever closed-form
  majorants put what they hold below OMIT_FRACTION (2^-10) of each sum's
  rounding size, and a pass where one does not takes every node.  At the
  CLI default point that is 672 nodes per column instead of 1,584, with
  the same values.  Each level halves every
  panel; a column settles once two levels agree to rel_tol of its value or
  to the rounding size of its sum (so it needs levels 0 and 1 at least,
  which one batch evaluates together), and reports their difference plus that
  size as its error estimate; a level past the node budget (which also caps
  the nodes per panel) stops the pass as stalled.  Config keys: radial_nodes
  (nodes per panel, 16 by default), kmax_over_invd (K) and rel_tol.  The
  real-axis route is the test-side oracle of this one (tests/kx_oracle.py).

* The spherical engine (radial_columns and _g_batch).  No CLI verb runs
  it; the test-side oracle tests/spherical_oracle.py does, pairing each
  report column with its closed-form bracket B.
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
  nodes rather than the k_x route's default of 16.  G is summed in long
  double: once k L is large it cancels far below its terms.

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
from .perturbation import (  # imported only for perfbench/tracing.py to wrap
    expansion_terms,
    lorentz_bracket,
)

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
def _leggauss(n: int, dtype: type = float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], as dtype: numpy's rule
    polished by Newton steps in extended precision.  numpy's own weights are
    off by up to 1.3e-12 relative at 64 nodes, and the same error repeats on
    every panel, so on a sum of a hundred like-signed panels it adds up to
    1e-10.  Cached: no caller writes to the arrays."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(2):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    return x.astype(dtype), (2 / ((1 - x * x) * dp * dp)).astype(dtype)


def _panel_nodes(lo: float, hi: float, n_panels: int, nodes: int,
                 dtype: type = float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, Gauss-Legendre weights, panel half-widths) of n_panels equal
    panels on [lo, hi], as dtype; points run panel by panel."""
    x, w = _leggauss(nodes, dtype)
    edges = np.linspace(dtype(lo), dtype(hi), n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), w, half


@dataclass(frozen=True)
class QuadratureConfig:
    # Gauss-Legendre nodes per contour or radial panel.  On a contour side the
    # integrand decays as exp(-L y), and 16 nodes settle every report column at
    # level 1; the stopping rule checks that, so too few cost levels, not digits.
    radial_nodes: int = 16
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
    # nodes whose terms entered the sums, through the level the column settled
    # at: on the contour, its pass's nodes (J's side included whenever
    # omega_a/c < K); in the spherical engine, its own segments' nodes, and
    # 2 more for a residue
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
# Columns: one bracket B, in the form each route integrates
# ---------------------------------------------------------------------------

# One bracket B of the k_x route: B(omega)/omega in partial fractions, a sum
# of (kind, shift, coefficient) terms, kind one of "inv2" 1/omega^2, "inv"
# 1/omega, "pole" 1/(shift - omega), "plus" 1/(shift + omega) and "plus2"
# 1/(shift + omega)^2 (shift is ignored for the first two).  A column whose
# "pole" coefficients sum to nonzero has a simple pole at omega_a; only such
# columns report a residue, the others report 0.
Fractions = tuple[tuple[str, float, float], ...]


class Column(NamedTuple):
    """One bracket B of a spherical-engine pass.  weight maps k to B (None:
    B = 1); pole marks a simple pole at the pass's pole_omega."""

    weight: Callable[[np.ndarray], np.ndarray] | None
    pole: bool = False

    def times(self, base_vals: np.ndarray, ks: np.ndarray) -> np.ndarray:
        return base_vals if self.weight is None else base_vals * self.weight(ks)


# ---------------------------------------------------------------------------
# The k_x integral on steepest-descent contour sides
# ---------------------------------------------------------------------------

# exp of any exponent below this is 0.0 in double precision
_UNDERFLOW = -746.0
_EPS = float(np.finfo(float).eps)


def _log1p_excess(u: np.ndarray) -> np.ndarray:
    """log(1 + u) - u/(1 + u) for complex u.  Where |u| < 1/8 the two terms
    would cancel to u^2/2; there log(1 + u) = 2 atanh v, v = u/(2 + u), gives
    the series 2v^2/(1 + v) + 2 v^3 sum_{m >= 0} v^(2m)/(2m + 3), with
    |v| < 1/15, whose terms do not cancel and fall by 225 each."""
    out = np.empty_like(u)
    small = np.abs(u) < 0.125
    ub, us = u[~small], u[small]
    out[~small] = np.log(1.0 + ub) - ub / (1.0 + ub)
    v = us / (2.0 + us)
    v2 = v * v
    acc = np.full_like(v, 1.0 / 19.0)
    for m in range(7, -1, -1):
        acc *= v2
        acc += 1.0 / (2 * m + 3)
    out[small] = 2.0 * v2 * (1.0 / (1.0 + v) + v * acc)
    return out


def _h_coefficients(fractions: tuple) -> dict[tuple[str, float], float]:
    """The fractions as coefficients of H's basis, each summed before use so
    that parts which cancel exactly (the order-2 term's 1/(s + v)) never
    enter as two large values.  On the real axis, with W = cK:
      "log"    log(W/w), from 1/v;
      "inv2"   1/w - 1/W;
      "pole"   F(w) - F(W), F = log|1 - s/w|, from 1/(s - v) + 1/v;
      "excess" from 1/(s + v) - 1/v, whose integral log(1 + s/W) - log(1 + s/w)
               is split as -[e(s/w) - e(s/W)] - s[1/(s + w) - 1/(s + W)],
               e = _log1p_excess;
      "frac"   1/(s + w) - 1/(s + W), from 1/(s + v)^2.
    Each continues into the upper half plane (_basis); there F is
    log(1 - s/w), which reaches the axis as log|1 - s/w| + i pi on 0 < w < s.
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


def _antiderivative(kind: str, shift: float, w: np.ndarray, off: np.ndarray) -> np.ndarray:
    """F of one basis function at complex w, off = w - shift."""
    if kind == "inv2":
        return 1.0 / w
    if kind == "frac":
        return 1.0 / (shift + w)
    if kind == "excess":
        return _log1p_excess(shift / w)
    # "pole": log(1 - s/w), as e(u) + u/(1 + u) with u = -s/w where |u| < 1/8
    u = -shift / w
    far = np.abs(u) < 0.125
    out = np.empty_like(w)
    out[far] = _log1p_excess(u[far]) - shift / off[far]
    out[~far] = np.log(off[~far] / w[~far])
    return out


def _basis(key: tuple[str, float], w: np.ndarray, off: np.ndarray) -> np.ndarray:
    """One basis function of H (see _h_coefficients) at complex w[:-1] in the
    closed upper half plane; off is w - shift, and w[-1] = W, so F(W) comes
    from the same evaluation as the nodes' F(w)."""
    if key[0] == "log":
        return np.log(w[-1] / w[:-1])
    f = _antiderivative(*key, w, off)
    return f[:-1] - f[-1]


def _contour_panels(length: float, d: float, k_pole: float,
                    k_hi: float) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(side panels in y, top panels in x, the top's height or None), as
    rows (lo, hi).  The sides run up to the saddle height L/(2 d^2), where
    the top side does not oscillate, unless exp(-d^2 k^2 + i L k) underflows
    to 0.0 below it: then the rest of the rectangle is exactly zero.  Side
    panels halve toward y = 0 until they are narrower than H's nearest
    singularity off the sides (k = -omega_a/c, and omega_a/c seen from
    K + iy), and double above 1/L.  Top panels are 1/d wide, split at the
    pole, and end with the one that reaches x_end = sqrt(746 - L^2/(4 d^2))/d:
    past it exp(-d^2 x^2 - L^2/(4 d^2)) underflows, so the top's terms are
    0.0 and its node count does not grow with K.  Their edges are
    np.linspace's, lo + i * step, up to there.  These are every panel a pass
    can take; _contour_columns leaves out the side k = K + iy, and the
    panels of the sides above an edge, where they cannot move its sums.
    """
    saddle = length / (2.0 * d * d)
    disc = length * length + 4.0 * d * d * _UNDERFLOW
    if disc > 0.0:  # the exponent along the left side reaches _UNDERFLOW first
        y_end, height = -2.0 * _UNDERFLOW / (length + math.sqrt(disc)), None
    else:
        y_end, height = saddle, saddle
    y0 = min(1.0 / length, y_end)
    inside = k_pole < k_hi
    nearest = min(k_pole, k_hi - k_pole) if inside else k_pole
    halvings = max(0, math.ceil(math.log2(2.0 * y0 / nearest)))
    doublings = max(0, math.ceil(math.log2(y_end / y0)))
    edges = np.concatenate([[0.0], y0 * 2.0 ** np.arange(-halvings, doublings), [y_end]])
    sides = np.column_stack([edges[:-1], edges[1:]])
    if height is None:
        return sides, np.empty((0, 2)), None
    x_end = math.sqrt(max(0.0, -_UNDERFLOW - length * saddle / 2.0)) / d
    cuts = [0.0, k_pole, k_hi] if inside else [0.0, k_hi]
    lefts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lefts and lo >= x_end:
            break
        n = max(1, math.ceil((hi - lo) * d))
        step = (hi - lo) / n
        m = min(n, max(1, math.ceil((x_end - lo) / step)))
        lefts.append(lo + np.arange(m) * step)
        right = hi if m == n else lo + m * step
    top = np.concatenate(lefts + [[right]])
    return sides, np.column_stack([top[:-1], top[1:]]), height


# A contour part is left out of the sums when a closed-form majorant of what
# it adds lies below this fraction of the rounding size of the sum it enters.
OMIT_FRACTION = 2.0**-10
_OMIT_EXPONENT = -math.log(OMIT_FRACTION * _EPS)  # about 43


class _Part(NamedTuple):
    """A contour part the sums can leave out (_omitted_parts).  Each basis
    function is F(w) - F(W), at most the length of a path from w to W times
    max |F'| on it; the path runs across at Im w and then down Re v = W."""

    g: float  # majorant of the integral of |g| over the part
    g_path: float  # majorant of the integral of |g| times the path's length
    height: float  # least Im v on the paths' horizontal legs (inf: they have none)


def _damped(exponent: float, rest: float) -> float:
    """exp(exponent) * rest for rest >= 0, formed as one exp: exactly 0.0
    where that underflows and inf past the float range, and never a product
    with a subnormal exp(exponent), which keeps only a few digits."""
    if rest == 0.0:
        return 0.0
    x = exponent + math.log(rest)
    return math.exp(x) if x < 709.0 else math.inf


def _omitted_parts(length: float, d: float, c: float, k_hi: float, k_pole: float,
                   y_top: float, y_cut: float) -> tuple[dict[str, _Part], float]:
    """({"far", "near", "closing": _Part}, what J loses) when the side
    k = K + iy is left out and the sides k = iy and k = p + iy end at y_cut
    instead of y_top: "near" is the side k = iy above y_cut and "closing" the
    segment k = x + i y_cut that would join the sides there; J loses g over
    both sides' tails and the closing segment.  On a side
    Re z <= -(dq)^2 - a y, a = L - d^2 y_top (at least L/2, as y_top is at
    most the saddle L/(2 d^2)), and |g| <= 4 pi |k|^2 exp(Re z),
    |k|^2 = q^2 + y^2, so the moments
      int_Y'^inf y^n exp(-a y) dy = exp(-a Y') sum_m n!/(n - m)! Y'^(n - m)/a^(m + 1)
    give each integral in closed form: the far side's paths run down from
    k = K + iy (length c y), the near side's across from iy (at most
    W + c y), and on the closing segment exp(-Y'(L - d^2 Y')) and
    int_0^inf (x^2 + Y'^2) exp(-d^2 x^2) dx = sqrt(pi) (1/(4 d^3) + Y'^2/(2 d))
    bound |g|, with paths of at most W + c Y'.  "near" alone exceeds
    8 pi exp(-a Y')/L^3.  Divisions run one at a time, so none divides by an
    underflowed 0.0."""
    a = length - d * d * y_top
    four_pi, big_w = 4.0 * math.pi, c * k_hi

    def moments(q: float, y: float) -> tuple[float, float]:
        """exp(a y) times 4 pi int_y^inf (q^2 + y'^2) exp(-a y') dy', and
        times the same with a further factor y'."""
        m1 = y / a + 1.0 / a / a
        m2 = y * y / a + 2.0 * m1 / a
        m3 = y * y * y / a + 3.0 * m2 / a
        return four_pi * (q * q / a + m2), four_pi * (q * q * m1 + m3)

    e_far, e_near = -(d * k_hi) * (d * k_hi), -a * y_cut
    e_closing = -y_cut * (length - d * d * y_cut)
    far, far_y = moments(k_hi, 0.0)
    near, near_y = moments(0.0, y_cut)
    closing = four_pi * math.sqrt(math.pi) * (0.25 / d / d / d + 0.5 * y_cut * y_cut / d)
    parts = {
        "far": _Part(_damped(e_far, far), _damped(e_far, c * far_y), math.inf),
        "near": _Part(_damped(e_near, near), _damped(e_near, big_w * near + c * near_y),
                      c * y_cut),
        "closing": _Part(_damped(e_closing, closing),
                         _damped(e_closing, (big_w + c * y_cut) * closing), c * y_cut),
    }
    return parts, _damped(e_near, near + moments(k_pole, y_cut)[0]) + parts["closing"].g


def _slope_bound(key: tuple[str, float], big_w: float, height: float) -> float:
    """max |F'| of one basis function (_h_coefficients) on a path that runs
    across at height Im v and then down Re v = W > s to W.  There
    |v| >= min(height, W), |v - s| >= min(height, W - s) and
    |v + s| >= min(height, W + s); F' is 1/v for "log", 1/v^2 for "inv2",
    s/(v(v - s)) for "pole", s^2/(v(v + s)^2) for "excess" and 1/(s + v)^2
    for "frac"."""
    kind, s = key
    v = min(height, big_w)
    if kind == "log":
        return 1.0 / v
    if kind == "inv2":
        return 1.0 / v / v
    if kind == "pole":
        return s / v / min(height, big_w - s)
    plus = min(height, big_w + s)
    return (s * s / v if kind == "excess" else 1.0) / plus / plus


def _basis_bound(key: tuple[str, float], big_w: float, part: _Part) -> float:
    """Majorant of |int g basis| over the part."""
    return part.g_path * _slope_bound(key, big_w, part.height)


def _split(panels: np.ndarray, level: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, Gauss-Legendre weights) with every (lo, hi) panel split into
    2^level; points run panel by panel, measured from each part's left edge
    so that neighbours share their edges exactly."""
    lo, hi = panels.T
    edges = lo[:, None] + (hi - lo)[:, None] * (np.arange(2**level + 1) / 2**level)
    left, half = edges[:, :-1].reshape(-1, 1), 0.5 * np.diff(edges, axis=1).reshape(-1, 1)
    x, w = _leggauss(nodes)
    return (left + half * (1.0 + x)).ravel(), (half * w).ravel()


def _g_terms(k: np.ndarray, weights: np.ndarray, d: float,
             length: float) -> tuple[np.ndarray, np.ndarray]:
    """(weights * 4 pi k^2 exp(-d^2 k^2 + i L k), their rounding sizes) at
    complex k.  The exponent z is formed as one: exp(-d^2 k^2) alone overflows
    high up a side.  A rounded z moves exp(z) by eps |z| relative, and by at
    most twice its size, so a term's size is |term| (1 + min(|z|, 1/eps))."""
    a, b = k.real, k.imag
    z = (b * (d * d * b - length) - (d * a) ** 2) + 1j * (a * (length - 2.0 * d * d * b))
    terms = weights * (4.0 * math.pi) * k * k * np.exp(z)
    return terms, np.abs(terms) * (1.0 + np.minimum(np.abs(z), 1.0 / _EPS))


def _panel_sum(terms: np.ndarray, nodes: int) -> float:
    # compensated, order-fixed reduction: deterministic for a given config
    return math.fsum(terms.reshape(-1, nodes).sum(axis=1).tolist())


def _contour_columns(params: SystemParams, config: QuadratureConfig,
                     columns: Sequence[Fractions]) -> list[IntegralResult]:
    """int_0^K k^2 G(k) B(ck) dk for every column, on the contour sides.

    With g(k) = 4 pi k^2 exp(-d^2 k^2 + i L k), H_a the continued H and
    J = int_0^p g, p = omega_a/c:
      I = Re[i int_0^Y g(iy) H_a(icy) dy - i int_0^Y g(K+iy) H_a(c(K+iy)) dy
             + int_0^K g(x+iY) H_a(c(x+iY)) dx] + pi c_p Im J,
    c_p the "pole" coefficient: H_a = H + i pi c_p on 0 < k < p.  J comes
    from the same left side, a side at k = p + iy and the top over [0, p];
    the residue p^3 G(p) is Re J.  A column with c_p = 0 has no pole and
    reports no residue.  Level 0 never settles, so levels 0 and 1 are
    evaluated as one batch; each later level is a batch of its own.

    Two parts are taken only where the sums can feel them: the far side
    k = K + iy, which carries exp(-(dK)^2), and, where the rectangle has no
    top, the sides k = iy and k = p + iy above the lowest panel edge Y' where
    their exp(-L y) has fallen far enough.  The pass first picks that cut
    from g and the paths alone (against 8 pi/L^3, below which
    int_0^inf |g(iy)| dy never falls) and leaves those parts out; at every
    level each live column then checks that the majorants of what is left
    out (_omitted_parts: the far side, the tail above Y' and the closing
    segment k = x + iY') lie within OMIT_FRACTION of the rounding size of its
    H sums, and, if c_p != 0, what J loses within that of J's sum.  If a
    check fails, the pass starts again on every node, so a part whose bound
    fails is taken with the same nodes and arithmetic as when no cut exists.
    nodes_used counts the nodes that enter the pass's sums through the level
    at which the column settled, J's side included whenever p < K.
    """
    d, length, c = params.dipole_d, params.separation_l, params.c
    k_hi = config.kmax_over_invd / d
    if not k_hi * k_hi < math.inf:  # K^2 enters every term at K + iy
        raise ValidationError(f"cutoff K = {k_hi:.3g} squares beyond floating-point range")
    k_pole = params.omega_a / c
    pole = k_pole if 0.0 < k_pole < k_hi else None
    coeffs = [_h_coefficients(col) for col in columns]
    c_ps = [sum(cf for (kind, _), cf in co.items() if kind == "pole") for co in coeffs]
    if pole is None and any(c_ps):
        raise ValidationError(f"pole {k_pole} must sit strictly inside (0, {k_hi})")
    nodes = config.radial_nodes
    sides, tops, height = _contour_panels(length, d, k_pole, k_hi)

    def level_sums(levels: tuple[int, ...], keys: set, near: np.ndarray,
                   far: bool) -> list[tuple[dict, tuple, int]]:
        """Per level of the batch: ({key: (Re sum of the terms times that
        basis function, its rounding size)}, J's (Im, Re, rounding size), the
        level's nodes), from one _g_terms call and one basis evaluation per key.
        near holds the panels of the sides k = iy and k = p + iy; far says
        whether the side k = K + iy is taken on them."""
        main, j_sides = [], []
        for level in levels:
            y, wy = _split(near, level, nodes)
            k, weights = [1j * y], [1j * wy]
            if far:
                k.append(k_hi + 1j * y)
                weights.append(-1j * wy)
            if tops.size:
                x, wx = _split(tops, level, nodes)
                k.append(x + 1j * height)
                weights.append(wx)
            main.append((np.concatenate(k), np.concatenate(weights)))
            if pole is not None:  # J's side at k = p + iy, after every level's main nodes
                j_sides.append((pole + 1j * y, -1j * wy))
        n_main = sum(part.size for part, _ in main)
        k = np.concatenate([part for part, _ in main + j_sides])
        terms, sizes = _g_terms(k, np.concatenate([w for _, w in main + j_sides]), d, length)
        w = np.append(c * k[:n_main], c * k_hi)
        off = np.append(c * (k[:n_main] - k_pole), c * (k_hi - k_pole))
        bases = {key: _basis(key, w, off) for key in keys}
        magnitudes = {key: np.abs(basis) for key, basis in bases.items()}
        out, start, j_start = [], 0, n_main
        for i, (part, _) in enumerate(main):
            n_level = part.size
            at = slice(start, start + n_level)
            sums = {key: (_panel_sum((terms[at] * basis[at]).real, nodes),
                          float(sizes[at] @ magnitudes[key][at]))
                    for key, basis in bases.items()}
            j_sums = (0.0, 0.0, 0.0)
            if pole is not None:  # J: the left side, the side at p + iy, the top over [0, p]
                side = slice(j_start, j_start + j_sides[i][0].size)
                on_j = part.real < pole  # the far side's K and the top past p are not
                j_terms = np.concatenate([terms[at][on_j], terms[side]])
                j_sums = (_panel_sum(j_terms.imag, nodes), _panel_sum(j_terms.real, nodes),
                          float(sizes[at][on_j].sum() + sizes[side].sum()))
                j_start = side.stop
                n_level += side.stop - side.start
            out.append((sums, j_sums, n_level))
            start = at.stop
        return out

    def settle(near: np.ndarray, far: bool,
               lost: tuple[list[float], float] | None) -> list[IntegralResult] | None:
        """Every column on the given sides, or None once a column finds what
        was left out (lost: per column its H majorant, and J's) too large."""
        # nodes of level 0, J's side included
        n_base = (((2 if pole is not None else 1) + far) * near.shape[0] + tops.shape[0]) * nodes
        results: list[IntegralResult | None] = [None] * len(columns)
        prev, used, unsettled = [0.0] * len(columns), 0, math.inf
        for levels in ((0, 1), *((level,) for level in range(2, _MAX_LEVELS))):
            # the batch's last level is its largest; nodes^2, the rule's own
            # companion matrix, caps the nodes per panel before _leggauss builds it
            if max(n_base << levels[-1], nodes * nodes) > _NODE_BUDGET:
                _stalled(unsettled, config)
            live = [j for j, r in enumerate(results) if r is None]
            batch = level_sums(levels, {key for j in live for key in coeffs[j]}, near, far)
            for level, (sums, (j_im, j_re, j_size), n_level) in zip(levels, batch):
                used += n_level
                unsettled = 0.0
                for j in live:
                    c_p = c_ps[j]
                    value = math.fsum([cf * sums[key][0] for key, cf in coeffs[j].items()]
                                      + [math.pi * c_p * j_im])
                    h_size = sum(abs(cf) * sums[key][1] for key, cf in coeffs[j].items())
                    if lost is not None and not (
                            lost[0][j] <= OMIT_FRACTION * _EPS * h_size
                            and (not c_p or lost[1] <= OMIT_FRACTION * _EPS * j_size)):
                        return None
                    rounding = _EPS * (h_size + math.pi * abs(c_p) * j_size)
                    delta, prev[j] = abs(value - prev[j]), value
                    if level == 0:
                        continue
                    if delta > config.rel_tol * abs(value) + rounding:
                        unsettled = max(unsettled, delta)
                        continue
                    results[j] = IntegralResult(
                        value=value, error_estimate=delta + rounding,
                        residue_imag=-math.pi * c_p * j_re if c_p else 0.0, nodes_used=used)
            if all(r is not None for r in results):
                return results
        _stalled(unsettled, config)

    # The cut, from g and the paths alone: the sides' lowest edge above which
    # what J loses, and what a basis with |F'| at most 1/height loses, lie
    # within OMIT_FRACTION eps of 8 pi/L^3, and the far side if what it loses
    # does with |F'| at most 1/W.  The columns' own bounds then decide.
    g_floor = OMIT_FRACTION * _EPS * (8.0 * math.pi / length / length / length)
    edges = sides[:, 1]
    y_top = float(edges.max())
    # "near" alone exceeds 8 pi exp(-a y)/L^3, so no edge with a y below
    # _OMIT_EXPONENT can pass
    a = length - d * d * y_top
    tried = sorted({y for y in edges.tolist() if a * y >= _OMIT_EXPONENT}) if height is None else []
    for y_cut in [*tried, y_top]:
        parts, lost_j = _omitted_parts(length, d, c, k_hi, k_pole, y_top, y_cut)
        if y_cut == y_top:
            lost_j = 0.0
            break
        sloped = (parts["near"].g_path + parts["closing"].g_path) / (c * y_cut)
        if max(lost_j, sloped) <= g_floor:
            break
    if parts["far"].g_path / (c * k_hi) <= g_floor:
        omitted = ("far", "near", "closing") if y_cut < y_top else ("far",)
        lost_h = [sum(abs(cf) * sum(_basis_bound(key, c * k_hi, parts[name]) for name in omitted)
                      for key, cf in co.items()) for co in coeffs]
        results = settle(sides[edges <= y_cut], False, (lost_h, lost_j))
        if results is not None:
            return results
    return settle(sides, True, None)


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

    Once k L is large the sum cancels to about 1/(k L) of its terms, and a
    node rounded to double moves cos(k L u) by about eps k L, so nodes,
    weights, terms and sum are all long double; G is rounded once at the end.
    The panels are symmetric about u = 0 and the integrand is even, so only
    the nodes at u > 0 are summed, twice.
    """
    if ks.size == 0:
        return np.zeros(0)
    n_panels = _angular_panels(float(np.max(np.abs(ks))), separation_l, dipole_d, nodes)
    u, w, half = _panel_nodes(-1.0, 1.0, n_panels, nodes, np.longdouble)
    weights = (np.broadcast_to(w, (n_panels, nodes)) * half[:, None]).ravel()
    u, weights = u[u > 0], 2 * weights[u > 0]
    u_sq = u * u
    length, d = np.longdouble(separation_l), np.longdouble(dipole_d)
    out = np.empty(ks.shape[0])
    # block so the (k x u) work matrix stays ~32 MB regardless of panel count
    block = max(1, 2_000_000 // u.size)
    for start in range(0, ks.shape[0], block):
        ku = np.outer(ks[start:start + block].astype(np.longdouble), u)
        vals = u_sq[None, :] * np.exp(-((d * ku) ** 2)) * np.cos(length * ku)
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
COULOMB: Fractions = (("inv", 0.0, 1.0),)


def lorentz_column(params: SystemParams) -> Fractions:
    """The covariant bracket, with its simple pole at omega_a.

    With delta = omega_b - omega_a,
    B/omega = (delta/2)/omega^2 + (1 + delta/2omega_a - delta/2omega_b)/omega
              + (delta/2omega_a)/(omega_a - omega) + (delta/2omega_b)/(omega_b + omega).
    """
    wa, wb = params.omega_a, params.omega_b
    half = 0.5 * (wb - wa)
    return (
        ("inv2", 0.0, half),
        ("inv", 0.0, 1.0 + half / wa - half / wb),
        ("pole", wa, half / wa),
        ("plus", wb, half / wb),
    )


def series_columns(params: SystemParams) -> tuple[Fractions, Fractions]:
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
    return first, second


def _rescale(result: IntegralResult, factor: float) -> IntegralResult:
    return IntegralResult(
        value=result.value * factor,
        error_estimate=result.error_estimate * abs(factor),
        residue_imag=result.residue_imag * factor + 0.0,  # no pole: +0.0, whatever factor's sign
        nodes_used=result.nodes_used,
    )


def _prefactor(params: SystemParams) -> float:
    d = params.dipole_d
    return -(params.charge_q**2 * d * d / (params.eps0 * params.delta_e * TWO_PI_CUBED))


def epsilon_columns(params: SystemParams, config: QuadratureConfig,
                    brackets: Sequence[Fractions]) -> list[IntegralResult]:
    """Amplitudes -(q^2 d^2 / (eps0 delta_e (2pi)^3)) * int k^2 G(k) B(ck) dk,
    one per bracket, all on one k_x node set.

    Each bracket is B(omega)/omega in partial fractions; COULOMB is B = 1.  All
    gauge variants share this one route and its node set, so their
    comparisons share quadrature behavior exactly.
    """
    prefactor = _prefactor(params)
    return [_rescale(raw, prefactor) for raw in _contour_columns(params, config, brackets)]


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
