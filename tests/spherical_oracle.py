"""The spherical reduction of the exchange integrals: the oracle of the k_x
route in gaugepair.quadrature, sharing no node with it.

G(k) comes from angular panels (quadrature._g_batch), then k^2 G(k) B(ck)
is integrated by one adaptive radial pass with the pole window
(quadrature.radial_columns).  That pass needs B itself, so each report
column, which the product holds only as its partial fractions, is paired
here with its closed-form bracket (closed_forms).  Its radial integrand
grows with k, so it runs at ORACLE's 64 radial and 64 angular nodes rather
than the k_x route's default of 32.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from gaugepair.core import SystemParams
from gaugepair.gauge import mapped_column, transform_brackets
from gaugepair.perturbation import expansion_terms, lorentz_bracket
from gaugepair.quadrature import (
    COULOMB,
    Column,
    Fractions,
    IntegralResult,
    QuadratureConfig,
    _g_batch,
    _prefactor,
    _rescale,
    lorentz_column,
    radial_columns,
    series_columns,
)

ORACLE = QuadratureConfig(radial_nodes=64, angular_nodes=64)


def closed_forms(params: SystemParams) -> dict[Fractions, Callable[[np.ndarray], np.ndarray]]:
    """Each report column's fractions, mapped to its bracket B(omega)."""
    first, second = series_columns(params)
    return {
        COULOMB: np.ones_like,
        lorentz_column(params): lambda w: lorentz_bracket(params, w),
        mapped_column(params): lambda w: sum(transform_brackets(params, w)),
        first: lambda w: expansion_terms(params, w, 1),
        second: lambda w: expansion_terms(params, w, 2),
    }


def has_pole(fractions: Fractions) -> bool:
    """Whether the column's "pole" terms sum to nonzero, as the k_x route reads it."""
    return sum(cf for kind, _, cf in fractions if kind == "pole") != 0.0


def spherical_columns(params: SystemParams, config: QuadratureConfig,
                      brackets: Sequence[Fractions]) -> list[IntegralResult]:
    """The amplitudes of quadrature.epsilon_columns from the spherical engine:
    G(k) on angular panels, then one adaptive radial pass with the pole window.
    """
    d = params.dipole_d
    k_hi = config.kmax_over_invd / d
    per_unit = params.separation_l / (2.0 * math.pi)  # panels per oscillation
    forms = closed_forms(params)

    def radial(ks: np.ndarray) -> np.ndarray:
        return ks * ks * _g_batch(ks, params.separation_l, d, config.angular_nodes)

    def in_k(bracket: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        return lambda ks: bracket(params.c * ks)

    columns = [Column(in_k(forms[b]), has_pole(b)) for b in brackets]
    k_pole = params.omega_a / params.c
    split = k_pole if 0.0 < k_pole < k_hi or any(col.pole for col in columns) else None
    raws = radial_columns(radial, columns, split, config, (0.0, k_hi),
                          min_panels_per_unit=per_unit)
    prefactor = _prefactor(params)
    return [_rescale(raw, prefactor) for raw in raws]
