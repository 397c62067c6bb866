"""The real-axis k_x route: the oracle of the contour route in
gaugepair.quadrature.

It integrates the same one-dimensional integral,
    I = int_0^K 4 pi k^2 exp(-(d k)^2) cos(L k) H(c k) dk,
on the real k_x axis, through K L / 2 pi periods of cos(L k), and shares
H's partial fractions (quadrature._h_coefficients) with the contour route
but no node and no basis function: here H is real, the principal value
across omega_a/c taken by its closed form log|1 - s/w|.

One composite Gauss-Legendre node set serves every column.  Panels are
about one period of cos(L k) wide and graded geometrically toward k = 0
(where the integrand goes as k^2 log k) and toward omega_a/c from both
sides (where log|omega_a - c k| sits).  The graded panels near the pole are
built in the distance from it, so no node lands on it, and they halve
POLE_HALVINGS more times than the ones at k = 0: Gauss-Legendre misses
int log|t| on the innermost panel by a fixed fraction of its width, an
error of first order in it, which the extra halvings put below the
rounding size of the sum.  Each level halves every panel; a column settles
once two levels agree to rel_tol of its value or to the rounding size of
its sum, and reports their difference plus that rounding size as its error
estimate.  The rounding size counts the pieces each term forms:
eps * sum_i |w_i f_i| * sum_key |c_key basis_key(w_i)|, since H is a sum
of basis values that partly cancel.  The on-shell residue is
p^3 G(p) = 4 pi int_0^p k^2 exp(-(d k)^2) cos(L k) dk on the same nodes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from gaugepair.core import SystemParams, ValidationError
from gaugepair.quadrature import (
    _MAX_LEVELS,
    _NODE_BUDGET,
    Fractions,
    IntegralResult,
    QuadratureConfig,
    _h_coefficients,
    _leggauss,
    _prefactor,
    _rescale,
    _stalled,
)

# Halvings of the graded panels at the pole beyond the ones at k = 0: each
# halves the first-order error of the innermost panel, 4e-13 relative at the
# default point before them.
POLE_HALVINGS = 12


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


def _basis(key: tuple[str, float], w: np.ndarray, off: np.ndarray, w_hi: float,
           off_hi: float, out: np.ndarray) -> np.ndarray:
    """One basis function of H (see quadrature._h_coefficients) at every w,
    into out."""
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


def _pieces(fractions: tuple, basis: dict, size: np.ndarray) -> np.ndarray:
    """sum_key |c_key basis_key(w)| into size: the pieces H is summed from."""
    size.fill(0.0)
    term = np.empty_like(size)
    for key, coeff in _h_coefficients(fractions).items():
        size += np.abs(np.multiply(coeff, basis[key], out=term), out=term)
    return size


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

    at_pole = halvings + POLE_HALVINGS
    if pole is None:
        n = count(k_hi)
        return np.concatenate([_graded(0.0, 1.0, k_hi / n, halvings),
                               _uniform(k_hi / n, k_hi, n - 1)])
    n = count(pole)
    if n == 1:
        left = [_graded(0.0, 1.0, 0.5 * pole, halvings), _graded(pole, -1.0, 0.5 * pole, at_pole)]
    else:
        width = pole / n
        left = [_graded(0.0, 1.0, width, halvings), _uniform(width, pole - width, n - 2),
                _graded(pole, -1.0, width, at_pole)]
    n = count(k_hi - pole)
    width = (k_hi - pole) / n
    right = [_graded(pole, 1.0, width, at_pole), _uniform(pole + width, k_hi, n - 1)]
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


def kx_columns(params: SystemParams, config: QuadratureConfig,
               columns: Sequence[Fractions]) -> list[IntegralResult]:
    """int_0^K k^2 G(k) B(ck) dk for every column, on the real k_x axis."""
    d, length, c = params.dipole_d, params.separation_l, params.c
    k_hi = config.kmax_over_invd / d
    k_pole = params.omega_a / c
    pole = k_pole if 0.0 < k_pole < k_hi else None
    c_ps = [sum(cf for kind, _, cf in col if kind == "pole") for col in columns]
    if pole is None and any(c_ps):
        raise ValidationError(f"pole {k_pole} must sit strictly inside (0, {k_hi})")
    nodes = config.radial_nodes
    halvings = math.ceil(-math.log2(config.rel_tol))
    if k_hi * length / (2.0 * math.pi) * nodes > _NODE_BUDGET:  # the base panels alone exceed it
        _stalled(math.inf, config)
    panels = _kx_panels(pole, k_hi, length / (2.0 * math.pi), halvings)
    w_hi, off_hi = c * k_hi, c * (k_hi - (pole or 0.0))

    results: list[IntegralResult | None] = [None] * len(columns)
    prev = [0.0] * len(columns)
    n_rows = 8 + len({key for col in columns for key in _h_coefficients(col)})
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
                for key in _h_coefficients(col)}
        basis = {key: _basis(key, w, w_off, w_hi, off_hi, row) for key, row in zip(live, spare)}
        p3g = None
        if level > 0:
            unsettled = 0.0
        for j, col in enumerate(columns):
            if results[j] is not None:
                continue
            terms = np.multiply(base, _h_values(col, basis, slope), out=slope)
            value = _panel_sum(terms, nodes)
            pieces = np.abs(base, out=cos) * _pieces(col, basis, low)
            rounding = float(np.finfo(float).eps * pieces.sum())
            delta = abs(value - prev[j])
            prev[j] = value
            if level == 0:
                continue
            if delta > config.rel_tol * abs(value) + rounding:
                unsettled = max(unsettled, delta)
                continue
            residue = 0.0
            if c_ps[j]:
                if p3g is None:  # p^3 G(p): the base integrated over [0, p]
                    p3g = _panel_sum(np.where(off < 0.0, base, 0.0), nodes)
                residue = -math.pi * c_ps[j] * p3g
            results[j] = IntegralResult(value=value, error_estimate=delta + rounding,
                                        residue_imag=residue, nodes_used=used)
        if all(r is not None for r in results):
            return results
    _stalled(unsettled, config)


def oracle_columns(params: SystemParams, config: QuadratureConfig,
                   brackets: Sequence[Fractions]) -> list[IntegralResult]:
    """The amplitudes of quadrature.epsilon_columns from the real k_x axis."""
    prefactor = _prefactor(params)
    return [_rescale(raw, prefactor) for raw in kx_columns(params, config, brackets)]
