"""The k_x integral on contour sides, H's partial fractions and their
continuation, the real-axis oracle (tests/kx_oracle.py), the spherical
oracle (tests/spherical_oracle.py, on the angular reduction and the
principal-value radial engine), and the amplitudes."""

import dataclasses
import decimal
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from gaugepair import cli, quadrature
from gaugepair.core import SystemParams, ValidationError
from gaugepair.gauge import mapped_column
from gaugepair.matelem import ConvergenceError
from gaugepair.quadrature import (
    COULOMB,
    ROUNDING_FLOOR,
    _g_batch,
    _h_coefficients,
    Column,
    IntegralResult,
    QuadratureConfig,
    config_from_mapping,
    coulomb_closed_form,
    epsilon_columns,
    epsilon_coulomb,
    epsilon_lorentz,
    lorentz_column,
    pv_radial,
    radial_columns,
    series_coefficients,
    series_columns,
)

import kx_oracle
from dipole_limit import c1_limit, c2_limit
from spherical_oracle import ORACLE, closed_forms, has_pole, spherical_columns

PARAMS = SystemParams()
CONFIG = QuadratureConfig()
COARSE = QuadratureConfig(radial_nodes=32, angular_nodes=32)


# -- angular reduction -----------------------------------------------------------

def _g(k):
    """G(k) from the kernel the radial pass runs, at the default geometry and nodes."""
    return float(_g_batch(np.array([k]), PARAMS.separation_l, PARAMS.dipole_d,
                          ORACLE.angular_nodes)[0])


def test_g_at_zero_is_full_solid_angle_moment():
    assert _g(0.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


@pytest.mark.parametrize("k", [0.3, 2.0, 17.0, 190.0])
def test_angular_reduce_matches_reference_quadrature(k):
    d, length = PARAMS.dipole_d, PARAMS.separation_l

    def envelope(u):
        return u * u * math.exp(-((k * d * u) ** 2))

    # QUADPACK's cosine-weighted rule (QAWO) resolves cos(k L u) itself; plain
    # quad reports an error estimate larger than |G| once k L is large.  The
    # absolute target sits below |G(190)| = 3.6e-9, as the default 1.5e-8 does not.
    ref, err = quad(envelope, -1.0, 1.0, weight="cos", wvar=k * length, epsabs=1e-17, limit=200)
    assert _g(k) == pytest.approx(2.0 * math.pi * ref, abs=10 * err + 1e-13)


# -- principal value -------------------------------------------------------------

def closed_pv(p, b):
    # PV int_0^b dk / (p^2 - k^2) for b > p
    return math.log((b + p) / (b - p)) / (2.0 * p)


def test_pv_radial_reproduces_analytic_pole_integral():
    p, b = 1.0, 4.0
    res = pv_radial(lambda k: 1.0 / (1.0 - k**2), p, ORACLE, (0.0, b))
    assert res.value == pytest.approx(closed_pv(p, b), rel=1e-10)
    # the residue estimator is O(h^2) finite differencing; it is reported
    # diagnostics, never part of the principal value itself
    assert res.residue_imag == pytest.approx(-math.pi / (2.0 * p), rel=1e-5)
    assert res.nodes_used > 0


def test_pv_window_clamps_near_domain_edge():
    # pole at 0.1 sits close to the lower limit; the window must shrink to fit
    p, b = 0.1, 4.0
    res = pv_radial(lambda k: 1.0 / (p * p - k**2), p, ORACLE, (0.0, b))
    assert res.value == pytest.approx(closed_pv(p, b), rel=1e-9)


def test_pv_radial_without_pole_is_plain_quadrature():
    res = pv_radial(lambda k: k * k, None, ORACLE, (0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert res.residue_imag == 0.0
    assert res.error_estimate <= 1e-12


def test_unreachable_tolerance_raises():
    # a kink inside a panel converges only algebraically under panel doubling
    cfg = QuadratureConfig(radial_nodes=64, angular_nodes=64, rel_tol=1e-12)
    with pytest.raises(ConvergenceError):
        pv_radial(lambda k: np.abs(k - 1.0 / 3.0), None, cfg, (0.0, 1.0))


def test_empty_domain_rejected():
    with pytest.raises(ValidationError):
        pv_radial(lambda k: k, None, ORACLE, (1.0, 1.0))


# -- one pass, many columns --------------------------------------------------------

def _report_columns(params):
    return (COULOMB, lorentz_column(params), mapped_column(params), *series_columns(params))


_COLUMN_NAMES = ("coulomb", "lorentz", "mapped", "order 1", "order 2")  # _report_columns order


def test_every_column_of_a_pass_equals_its_one_column_pass():
    columns = _report_columns(PARAMS)
    together = epsilon_columns(PARAMS, COARSE, columns)
    for column, result in zip(columns, together):
        alone = epsilon_columns(PARAMS, COARSE, [column])[0]
        assert result == alone  # value, error estimate, residue and nodes, exactly
        if has_pole(column):
            assert result.residue_imag != 0.0
        else:
            assert result.residue_imag == 0.0


def test_late_column_leaves_an_early_converged_column_unchanged():
    cfg = QuadratureConfig(radial_nodes=16)
    smooth = Column(lambda k: k * k)  # exact on the first level
    wiggly = Column(lambda k: np.sin(40.0 * k) * np.exp(k))  # needs several doublings

    def base(k):
        return np.ones_like(k)

    for pole in (None, 1.5):
        alone = radial_columns(base, [smooth], pole, cfg, (0.0, 4.0))[0]
        both = radial_columns(base, [smooth, wiggly], pole, cfg, (0.0, 4.0))
        assert both[0] == alone
        assert both[1].nodes_used > 2 * both[0].nodes_used
        assert both[1].value == pytest.approx(
            (40.0 + math.exp(4.0) * (math.sin(160.0) - 40.0 * math.cos(160.0))) / 1601.0,
            rel=1e-10)


def test_coulomb_wrapper_returns_the_report_column():
    report = cli._epsilon_report(PARAMS, CONFIG)
    assert epsilon_coulomb(PARAMS, CONFIG).value == report["eps_coulomb"]["value"]
    assert (report["coefficients"]["c0"]["nodes_used"]
            == report["eps_coulomb"]["nodes_used"])


@pytest.mark.parametrize("params", [
    PARAMS,  # the CLI's default point
    *(SystemParams(separation_l=sep_l, dipole_d=0.01 * sep_l, omega_b=1.0 + delta)
      for sep_l in (1.8, 2.196) for delta in (0.002, 0.05)),  # the report grid's corners
], ids=lambda p: f"L={p.separation_l},omega_b={p.omega_b}")
def test_default_settles_at_level_one(params):
    # every report column settles at level 1: levels 0 and 1 hold 3 times the
    # base panels' nodes on the sides k = iy and k = omega_a/c + iy (J's) up
    # to the cut at L Y' = 64, the lowest side edge whose parts above it lie
    # below their bounds; the far side k = K + iy is left out.  At the report
    # grid's d/L = 0.01 the rectangle underflows below the saddle, so it has
    # no top side.  That is at most half of the full count, 3 sides in all
    sides, tops, height = quadrature._contour_panels(
        params.separation_l, params.dipole_d, params.omega_a / params.c,
        CONFIG.kmax_over_invd / params.dipole_d)
    assert height is None and tops.size == 0
    near = int(np.count_nonzero(sides[:, 1] <= 64.0 / params.separation_l))
    report = cli._epsilon_report(params, CONFIG)
    coeffs = series_coefficients(params, CONFIG)
    used = [report[key]["nodes_used"] for key in ("eps_coulomb", "eps_lorentz",
                                                  "eps_transformed")]
    used += [report["coefficients"][c]["nodes_used"] for c in ("c0", "c1", "c2")]
    used += [coeffs.c0.nodes_used, coeffs.c1.nodes_used, coeffs.c2.nodes_used]
    assert used == [3 * 2 * near * CONFIG.radial_nodes] * 9
    assert 2 * used[0] <= 3 * 3 * sides.shape[0] * CONFIG.radial_nodes


@pytest.mark.parametrize("params", [
    *(SystemParams(separation_l=sep_l, dipole_d=0.01 * sep_l, omega_b=1.0 + delta)
      for sep_l in (1.8, 2.196) for delta in (0.002, 0.05)),  # the report grid's corners
    SystemParams(separation_l=0.05, dipole_d=0.0005),  # omega_a L/c = 0.05, d/L = 0.01
    SystemParams(separation_l=400.0, dipole_d=4.0),  # omega_a L/c = 400, d/L = 0.01
    SystemParams(dipole_d=2e-6),  # d/L = 1e-6
    SystemParams(dipole_d=0.2),  # d/L = 0.1, where the rectangle has a top side
], ids=lambda p: f"L={p.separation_l},d={p.dipole_d},omega_b={p.omega_b}")
def test_default_takes_half_the_nodes_of_32_per_panel(params):
    # the default 16 nodes per panel settle every column at the level that
    # 32 do, on exactly half their nodes, and each value lies within the two
    # runs' error estimates
    columns = _report_columns(params)
    default = epsilon_columns(params, CONFIG, columns)
    doubled = epsilon_columns(params, QuadratureConfig(radial_nodes=32), columns)
    for name, a, b in zip(_COLUMN_NAMES, default, doubled):
        assert 2 * a.nodes_used == b.nodes_used, name
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, name


def test_levels_past_the_first_batch_run_one_at_a_time():
    # at 4 nodes per panel no column settles at level 1: past the batch of
    # levels 0 and 1 each later level runs once, so a column settled at level
    # n holds (2^(n+1) - 1) times level 0's nodes, and still lies within the
    # default's estimates.  Level 0 holds the sides k = iy and
    # k = omega_a/c + iy up to the cut at L Y' = 64, and no top side
    sides, tops, _ = quadrature._contour_panels(
        PARAMS.separation_l, PARAMS.dipole_d, PARAMS.omega_a / PARAMS.c,
        CONFIG.kmax_over_invd / PARAMS.dipole_d)
    assert tops.size == 0
    base = 2 * int(np.count_nonzero(sides[:, 1] <= 64.0 / PARAMS.separation_l)) * 4
    columns = _report_columns(PARAMS)
    coarse = epsilon_columns(PARAMS, QuadratureConfig(radial_nodes=4), columns)
    for name, a, b in zip(_COLUMN_NAMES, coarse, epsilon_columns(PARAMS, CONFIG, columns)):
        level = round(math.log2(a.nodes_used / base + 1)) - 1
        assert level >= 2 and a.nodes_used == (2 ** (level + 1) - 1) * base, name
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, name


def test_report_verbs_never_call_the_spherical_kernel(monkeypatch, capsys):
    # the k_x route serves every report column; the angular kernel is the oracle's
    kernel = quadrature._g_batch
    evaluated = []

    def counting(ks, *args, **kwargs):
        evaluated.append(np.size(ks))
        return kernel(ks, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_g_batch", counting)
    for verb in ("epsilon", "expand"):
        evaluated.clear()
        assert cli.main([verb, "--json"]) == cli.EXIT_OK
        assert evaluated == [], verb
    capsys.readouterr()


@lru_cache(maxsize=None)
def _spherical_series_at_400(nodes):
    """The oracle's COULOMB and series columns at omega_a L/c = 400, d/L = 0.01."""
    params = SystemParams(separation_l=400.0, dipole_d=4.0)
    config = QuadratureConfig(radial_nodes=nodes, angular_nodes=nodes)
    return config, spherical_columns(params, config, [COULOMB, *series_columns(params)])


def test_segment_holding_almost_nothing_settles_against_the_whole_integral():
    # omega_a L/c = 400, d/L = 0.01: the segment right of the pole window holds
    # about 1e-15 of the total and, judged against itself, never settles
    # because of G's own rounding.
    cfg, results = _spherical_series_at_400(64)
    for result in results:
        assert result.error_estimate <= 3.0 * cfg.rel_tol * abs(result.value)


def test_window_halves_share_one_angular_panel_count():
    # at omega_a L/c = 400, G varies fast near k = omega_a/c; the window's
    # p + t and p - t halves still see one G, so their 1/t parts cancel and
    # the c1 column settles at 32 nodes
    cfg, results = _spherical_series_at_400(32)
    for result in results:
        assert result.error_estimate <= 3.0 * cfg.rel_tol * abs(result.value)


def test_oracle_estimates_cover_its_angular_node_count():
    # the error estimates omit G's own error, so they hold only while the
    # angular panels narrow with fewer nodes and 32 nodes resolve G as 64 do
    _, coarse = _spherical_series_at_400(32)
    _, fine = _spherical_series_at_400(64)
    for a, b in zip(coarse, fine):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


# -- H: partial fractions and the oracle's closed form ----------------------------

_TERMS = {
    "inv2": lambda s, w: 1.0 / w**2,
    "inv": lambda s, w: 1.0 / w,
    "pole": lambda s, w: 1.0 / (s - w),
    "plus": lambda s, w: 1.0 / (s + w),
    "plus2": lambda s, w: 1.0 / (s + w) ** 2,
}


def _h(fractions, w, off, w_hi, off_hi):
    """H at every w, from the real-axis oracle's basis functions and sum."""
    basis = {key: kx_oracle._basis(key, w, off, w_hi, off_hi, np.empty_like(w))
             for key in _h_coefficients(fractions)}
    return kx_oracle._h_values(fractions, basis, np.empty_like(w))


def _columns_and_brackets(params):
    """Each report column, in _report_columns order, with its bracket B(omega)
    from the closed forms."""
    forms = closed_forms(params)
    return tuple((column, forms[column]) for column in _report_columns(params))


@pytest.mark.parametrize("delta", [0.002, 0.01, 0.05])
def test_fractions_equal_each_bracket_over_omega(delta):
    params = SystemParams(omega_b=1.0 + delta)
    w = np.linspace(0.0, 50.0 * params.omega_a, 1002)[1:-1]
    w = w[np.abs(w - params.omega_a) > 1e-3]
    for column, bracket in _columns_and_brackets(params):
        parts = np.array([c * _TERMS[kind](s, w) for kind, s, c in column])
        # relative to the terms' size, the rounding scale of their sum (B has a zero)
        gap = np.abs(parts.sum(axis=0) - bracket(w) / w)
        assert (gap <= 1e-13 * np.abs(parts).sum(axis=0)).all(), column


@pytest.mark.parametrize("offset", [-0.95, -0.4, -1e-3, -1e-6, 1e-6, 1e-3, 0.7, 39.0, 299.0])
def test_closed_form_h_matches_direct_principal_value(offset):
    params = SystemParams(omega_b=1.05)
    a, w_hi = params.omega_a, 400.0
    w = a + offset
    for column, bracket in _columns_and_brackets(params):
        h = _h(column, np.array([w]), np.array([w - a]), w_hi, w_hi - a)[0]
        if offset < 0.0:  # QAWC: PV int g(v)/(v - a) dv with g(v) = (v - a) B(v)/v
            ref, err = quad(lambda v: (v - a) * bracket(v) / v, w, w_hi, weight="cauchy",
                            wvar=a, epsabs=0.0, epsrel=1e-12, limit=400)
        else:  # in s = log(v - a), smooth up to the pole
            ref, err = quad(lambda s: math.exp(s) * bracket(a + math.exp(s)) / (a + math.exp(s)),
                            math.log(w - a), math.log(w_hi - a), epsabs=0.0, epsrel=1e-12,
                            limit=400)
        assert h == pytest.approx(ref, rel=1e-11, abs=10 * err), (column, w)


@pytest.mark.parametrize("t", [2.0**-20, 2.0**-30, 12345 * 2.0**-52])
def test_closed_form_h_is_continuous_across_the_pole(t):
    # H(a - t) - H(a + t) is the principal value over [a - t, a + t], which is
    # 2t times the bracket's regular part at a: O(t).  Closer than a direct
    # integral can check, this needs the distance to the pole kept exact
    # (t sits on the float grid of a in [1, 2), so a - t and a + t are exact).
    params = SystemParams(omega_a=1.3, omega_b=1.35)
    a = params.omega_a
    w = np.array([a - t, a + t])
    for column, _ in _columns_and_brackets(params):
        below, above = _h(column, w, w - a, 400.0, 400.0 - a)
        assert abs(below - above) <= 10.0 * t + 1e-13, column


@pytest.mark.parametrize("x", [0.05, 1.832, 400.0])
def test_contour_route_settles_at_the_rounding_floor(x):
    # the stopping rule accepts a level difference at the rounding size of the
    # sum, so the tightest accepted tolerance cannot stall on noise
    params = SystemParams(separation_l=x, dipole_d=0.01 * x)
    columns = [column for column, _ in _columns_and_brackets(params)]
    for result in epsilon_columns(params, QuadratureConfig(rel_tol=ROUNDING_FLOOR), columns):
        assert result.error_estimate <= 1e-9 * abs(result.value)


@pytest.mark.parametrize("sep_l, delta", [(1.8, 0.002), (2.0, 0.01), (2.196, 0.05)])
def test_panel_order_moves_no_value_and_no_residue(monkeypatch, sep_l, delta):
    # each panel is summed in its own node order and the panel sums exactly
    # (math.fsum), so no value or residue depends on the order of the panels;
    # d/L = 0.1 gives the rectangle a top side, split at the pole for J
    params = SystemParams(separation_l=sep_l, dipole_d=0.1 * sep_l, omega_b=1.0 + delta)
    columns = _report_columns(params)
    in_order = epsilon_columns(params, CONFIG, columns)
    panels, rng = quadrature._contour_panels, np.random.default_rng(7)

    def shuffled_panels(*args):
        sides, tops, height = panels(*args)
        assert height is not None
        return rng.permutation(sides), rng.permutation(tops), height

    monkeypatch.setattr(quadrature, "_contour_panels", shuffled_panels)
    shuffled = epsilon_columns(params, CONFIG, columns)
    for name, a, b in zip(_COLUMN_NAMES, in_order, shuffled):
        assert (a.value, a.residue_imag) == (b.value, b.residue_imag), name


@pytest.mark.parametrize("delta", [0.002, 0.005, 0.01, 0.02, 0.05])
def test_second_order_column_keeps_no_frac_term_off_unit_frequency(delta):
    # its 1/(omega_a + omega) parts cancel exactly only when spelt -k * omega_a;
    # at omega_a = 1 every spelling gives the same float
    params = SystemParams(omega_a=3.0, omega_b=3.0 * (1.0 + delta))
    _, second = series_columns(params)
    assert ("frac", params.omega_a) not in _h_coefficients(second)


@pytest.mark.parametrize("omega_b", [1.01, 1.0 + 2.0**-7])
def test_report_columns_are_invariant_when_frequencies_and_lengths_scale(omega_b):
    # hbar = c = 1: every frequency times 3 and every length over 3 leave each
    # amplitude unchanged; 3 is no power of two, so each input rounds anew.
    # A rounded 3 omega_b moves delta_e by the exact relative amount r below
    # (0 at omega_b = 1 + 2^-7, 7.4e-15 at the default 1.01), and each amplitude,
    # 1/delta_e times a function of omega_b/omega_a, moves with it: no
    # quadrature estimate covers that, so the bound adds r |value|.
    params = SystemParams(omega_b=omega_b)
    scaled = SystemParams(omega_a=3.0 * params.omega_a, omega_b=3.0 * params.omega_b,
                          separation_l=params.separation_l / 3.0, dipole_d=params.dipole_d / 3.0)
    r = abs(float(
        (Fraction(scaled.omega_b) - Fraction(scaled.omega_a))
        / (3 * (Fraction(params.omega_b) - Fraction(params.omega_a))) - 1))
    results = zip(_COLUMN_NAMES, epsilon_columns(params, CONFIG, _report_columns(params)),
                  epsilon_columns(scaled, CONFIG, _report_columns(scaled)))
    for name, a, b in results:
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + r * abs(a.value), name


def test_pole_beyond_the_cutoff_is_rejected():
    # d omega_a / c = 10 puts omega_a/c above K = 8/d
    with pytest.raises(ValidationError):
        epsilon_lorentz(SystemParams(dipole_d=10.0), CONFIG)


# -- every basis function of the oracle's real H, node by node, at 40 digits ------

def _exact_basis(key, w, off, w_hi, off_hi):
    """(value, rounding size) of one basis function at one node: the closed
    form _basis evaluates, at 40 digits on the same float inputs and with the
    same choice of formula.  The rounding size adds up the pieces the float
    formula forms; each is rounded a few times, so the float value lies within
    a few eps of it."""
    kind, shift = key
    s = Decimal(shift)

    def at(x, x_off):  # (F(x), its pieces), as _antiderivative forms F
        series = shift / x < 0.125  # the oracle's own branch, decided in floats
        x, x_off = Decimal(x), Decimal(x_off)
        if kind == "inv2":
            return 1 / x, 1 / x
        if kind == "frac":
            return 1 / (s + x), 1 / (s + x)
        if kind == "pole" and x > 2 * s:  # log1p(-s/x): the quotient enters with gain < 2
            f = (1 - s / x).ln()
            return f, 2 * s / x + abs(f)
        if kind == "pole":  # the log of a quotient, rounded by eps
            f = (abs(x_off) / x).ln()
            return f, 1 + abs(f)
        u = s / x  # "excess": log(1 + u) - u/(1 + u), as a series below u = 1/8
        f = (1 + u).ln() - u / (1 + u)
        return f, (u * u if series else (1 + u).ln() + u / (1 + u))

    with decimal.localcontext(decimal.Context(prec=40)):
        if kind == "log":  # the log of a quotient
            value = (Decimal(w_hi) / Decimal(w)).ln()
            return float(value), float(1 + abs(value))
        (f, pieces), (f_hi, pieces_hi) = at(w, off), at(w_hi, off_hi)
        return float(f - f_hi), float(pieces + pieces_hi + abs(f - f_hi))


@pytest.mark.parametrize("omega_a", [1.0, 3.0])
def test_every_basis_function_matches_40_digits_at_every_node(omega_a):
    # one level of the oracle's own nodes at the default geometry, with 16
    # nodes per panel to keep the 40-digit logs cheap; every panel is there
    params = SystemParams(omega_a=omega_a, omega_b=1.01 * omega_a)
    config = QuadratureConfig(radial_nodes=16)
    c, k_hi, pole = params.c, config.kmax_over_invd / params.dipole_d, params.omega_a / params.c
    panels = kx_oracle._kx_panels(pole, k_hi, params.separation_l / (2.0 * math.pi),
                                  math.ceil(-math.log2(config.rel_tol)))
    work = np.empty((4, panels.shape[0], config.radial_nodes))
    kx, _, off, _ = kx_oracle._kx_nodes(panels, 0, config.radial_nodes, pole, work)
    w, off, w_hi, off_hi = c * kx, c * off, c * k_hi, c * (k_hi - pole)
    keys = {key for column, _ in _columns_and_brackets(params)
            for key in _h_coefficients(column)}
    assert {kind for kind, _ in keys} == {"log", "inv2", "pole", "excess", "frac"}
    worst = {}
    for key in sorted(keys):
        got = kx_oracle._basis(key, w, off, w_hi, off_hi, np.empty_like(w))
        exact = np.array([_exact_basis(key, *node, w_hi, off_hi) for node in zip(w, off)])
        ratio = np.abs(got - exact[:, 0]) / (np.finfo(float).eps * exact[:, 1])
        for side, on_side in _branches(key, w).items():
            assert on_side.any(), (key, side)  # both formulas of the key are checked
            worst[key, side] = float(ratio[on_side].max())
    margins = ", ".join(f"{key} {side}: {r:.2f}" for (key, side), r in worst.items())
    assert max(worst.values()) <= 4.0, f"gap / (eps * rounding size): {margins}"


def _branches(key, w):
    """The nodes each of a key's float formulas serves."""
    kind, shift = key
    if kind == "pole":
        return {"w > 2s": w > 2.0 * shift, "w <= 2s": w <= 2.0 * shift}
    if kind == "excess":
        return {"s/w < 1/8": shift / w < 0.125, "s/w >= 1/8": shift / w >= 0.125}
    return {"all": np.ones(w.size, dtype=bool)}


# -- H continued into the upper half plane: the branch choices -------------------

@pytest.mark.parametrize("omega_a", [1.0, 3.0])
def test_continued_basis_reaches_the_axis_as_the_oracles_real_basis(omega_a):
    # every basis function the contour sides evaluate, taken at w + 0j on one
    # level of the oracle's nodes (both formulas of every key), is the
    # oracle's real one; "pole" adds i pi on 0 < w < s, the axis seen from
    # above, and so H adds i pi c_p there
    params = SystemParams(omega_a=omega_a, omega_b=1.01 * omega_a)
    config = QuadratureConfig(radial_nodes=16)
    c, k_hi, pole = params.c, config.kmax_over_invd / params.dipole_d, params.omega_a / params.c
    panels = kx_oracle._kx_panels(pole, k_hi, params.separation_l / (2.0 * math.pi),
                                  math.ceil(-math.log2(config.rel_tol)))
    work = np.empty((4, panels.shape[0], config.radial_nodes))
    kx, _, off, _ = kx_oracle._kx_nodes(panels, 0, config.radial_nodes, pole, work)
    w, off, w_hi, off_hi = c * kx, c * off, c * k_hi, c * (k_hi - pole)
    eps = np.finfo(float).eps
    continued = {}
    for column, _ in _columns_and_brackets(params):
        coeffs = _h_coefficients(column)
        for key in coeffs:
            real = kx_oracle._basis(key, w, off, w_hi, off_hi, np.empty_like(w))
            continued[key] = quadrature._basis(key, np.append(w, w_hi) + 0j,
                                               np.append(off, off_hi) + 0j)
            jump = np.where((key[0] == "pole") & (w < key[1]), math.pi, 0.0)
            assert (np.abs(continued[key].real - real) <= 8 * eps * (1.0 + np.abs(real))).all(), key
            assert (continued[key].imag == jump).all(), key
        h_a = sum(cf * continued[key] for key, cf in coeffs.items())
        pieces = sum(abs(cf * continued[key]) for key, cf in coeffs.items())
        c_p = sum(cf for kind, _, cf in column if kind == "pole")
        h = _h(column, w, off, w_hi, off_hi)
        assert (np.abs(h_a.real - h) <= 8 * eps * (1.0 + pieces)).all(), column
        assert (np.abs(h_a.imag - np.where(w < omega_a, math.pi * c_p, 0.0))
                <= 8 * eps * abs(math.pi * c_p)).all(), column


def _exact_excess(u):
    """(re, im) of log(1 + u) - u/(1 + u) at 40 digits, from the float u:
    with m = |1 + u|^2, it is ln(m)/2 - (a + a^2 + b^2)/m + i (arg(1 + u) - b/m)."""
    with decimal.localcontext(decimal.Context(prec=40)):
        a, b = Decimal(u.real), Decimal(u.imag)
        m = (1 + a) ** 2 + b * b
        x, arg, n = b / (1 + a), Decimal(0), 0  # arg = atan(x) by its series, |x| < 1/7
        power = x
        while abs(power) > Decimal(10) ** -45:
            arg += (-1) ** n * power / (2 * n + 1)
            power *= x * x
            n += 1
        return float(m.ln() / 2 - (a + a * a + b * b) / m), float(arg - b / m)


def test_complex_excess_series_matches_40_digits():
    # the series branch, |u| < 1/8, at every angle, on both axes and down to
    # |u| = 1e-12, where the closed form would lose every digit
    rng = np.random.default_rng(3)
    radius = 0.125 * np.concatenate([np.sqrt(rng.random(400)), 10.0 ** -rng.uniform(0, 11, 100)])
    angle = np.concatenate([2 * math.pi * rng.random(500), [0.0, math.pi / 2, math.pi, -math.pi / 2]])
    u = np.append(radius, [0.1, 0.1, 0.1, 0.1]) * np.exp(1j * angle)
    u[-4:] = [0.1, 0.1j, -0.1, -0.1j]
    assert (np.abs(u) < 0.125).all()
    got = quadrature._log1p_excess(u)
    eps = np.finfo(float).eps
    for ui, gi in zip(u, got):
        re, im = _exact_excess(ui)
        size = math.hypot(re, im)
        assert abs(gi.real - re) <= 8 * eps * size and abs(gi.imag - im) <= 8 * eps * size, ui


# -- the contour route against the real-axis oracle --------------------------------

@pytest.mark.parametrize("x", [0.05, 0.2, 2.0, 20.0, 100.0, 400.0])
def test_contour_route_matches_the_real_axis_oracle(x):
    # omega_a = c = 1, so omega_a L/c = L.  The two routes share H's partial
    # fractions but no node and no basis function, so every column must lie
    # within the sum of their error estimates.  At x = 400, d/L = 0.04 the
    # pole lies beyond the cutoff K = 8/d, which both routes refuse: 34
    # geometries, 170 columns in all.
    margins = {}
    for dl in (0.001, 0.01, 0.04):
        for delta in (0.01, 0.05):
            params = SystemParams(separation_l=x, dipole_d=dl * x, omega_b=1.0 + delta)
            if params.dipole_d * params.omega_a / params.c >= CONFIG.kmax_over_invd:
                continue
            columns = _report_columns(params)
            contour = epsilon_columns(params, CONFIG, columns)
            oracle = kx_oracle.oracle_columns(params, kx_oracle.ORACLE, columns)
            for name, a, b in zip(_COLUMN_NAMES, contour, oracle):
                margins[f"d/L={dl},delta={delta} {name}"] = (
                    abs(a.value - b.value), a.error_estimate + b.error_estimate)
    assert len(margins) == (20 if x == 400.0 else 30)
    assert all(gap <= bound for gap, bound in margins.values()), _margins_text(margins)


def _oracle_levels(params, config, halvings):
    """The level at which each report column of the real-axis oracle settles,
    on base panels graded `halvings` times toward k_x = 0."""
    base = kx_oracle._kx_panels(params.omega_a / params.c, config.kmax_over_invd / params.dipole_d,
                                params.separation_l / (2.0 * math.pi), halvings).shape[0]
    oracle = kx_oracle.oracle_columns(params, config, _report_columns(params))
    # levels 0 .. n hold (2^(n+1) - 1) times the base panels' nodes
    return [round(math.log2(r.nodes_used / (base * config.radial_nodes) + 1)) - 1 for r in oracle]


@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_oracle_low_bits_let_its_two_levels_agree(delta):
    # omega_a L/c = 400, d/L = 0.001: the oracle runs through K L/2 pi = 1273
    # periods, and every column settles at level 1 only because each node's
    # dropped low bits enter the phase (kx_oracle._kx_nodes, low * slope);
    # without them the Coulomb column's levels disagree past rel_tol to level 4
    params = SystemParams(separation_l=400.0, dipole_d=0.4, omega_b=1.0 + delta)
    oracle = kx_oracle.ORACLE
    assert _oracle_levels(params, oracle, math.ceil(-math.log2(oracle.rel_tol))) == [1] * 5


FLOOR = dataclasses.replace(kx_oracle.ORACLE, rel_tol=ROUNDING_FLOOR)


@pytest.mark.parametrize("x, dl", [(20.0, 0.04), (100.0, 0.01)])
@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_oracle_pole_panels_put_its_first_order_error_below_rounding(monkeypatch, x, dl, delta):
    # Gauss-Legendre misses int log|t| on the innermost panel at the pole by
    # a fixed fraction of its width, an error that only halves per level.
    # The oracle halves its pole panels POLE_HALVINGS more times than the ones
    # at k_x = 0, which puts that error below the rounding size of its sum:
    # held on the default tolerance's panels and stopped at the rounding
    # floor, which accepts two levels within 32 eps of the value plus that
    # size, every column settles at level 1.  With the pole panels halved
    # only as often as the ones at k_x = 0, the order-1 column's two levels
    # differ by the error, 1e-12 of it, and it needs level 7.
    params = SystemParams(separation_l=x, dipole_d=dl * x, omega_b=1.0 + delta)
    halvings = math.ceil(-math.log2(kx_oracle.ORACLE.rel_tol))  # 30; the floor's own 47 would hide the error
    panels = kx_oracle._kx_panels
    monkeypatch.setattr(kx_oracle, "_kx_panels",
                        lambda pole, k_hi, per_unit, _: panels(pole, k_hi, per_unit, halvings))
    assert _oracle_levels(params, FLOOR, halvings) == [1] * 5


@pytest.mark.parametrize("x, dl", [(0.05, 0.001), (100.0, 0.001)])
@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_oracle_rounding_size_counts_the_pieces_of_h(x, dl, delta):
    # Each term w_i f_i = w_i base_i H_i holds H summed from basis values that
    # partly cancel, so it is rounded by eps |w_i base_i| sum_key |c_key basis_key|,
    # not by eps |w_i f_i|.  Stopped at the rounding floor, which accepts two
    # levels within 32 eps of the value plus the rounding size of the sum, the
    # order-1 column settles at level 1 on its own panels; with the size
    # counted as eps sum |w_i f_i| its level difference lies outside it, and
    # it needs level 3 at these K L/2 pi = 1273 periods.
    params = SystemParams(separation_l=x, dipole_d=dl * x, omega_b=1.0 + delta)
    levels = _oracle_levels(params, FLOOR, math.ceil(-math.log2(FLOOR.rel_tol)))
    assert levels[_COLUMN_NAMES.index("order 1")] == 1, levels


@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_top_side_carries_the_integral_at_a_tenth_of_the_separation(monkeypatch, delta):
    # d/L = 0.1, which the CLI warns about but accepts: the rectangle reaches
    # the saddle height L/(2 d^2) before exp(-d^2 k^2 + i L k) underflows,
    # and its top side is integrated there.  With it every column matches
    # the spherical engine, which shares no node with it; without it every
    # column misses by more than a hundred bounds.
    params = SystemParams(dipole_d=0.2, omega_b=1.0 + delta)
    columns = _report_columns(params)
    oracle = spherical_columns(params, ORACLE, columns)
    margins = {name: _gap_and_bound(a, b)
               for name, a, b in zip(_COLUMN_NAMES, epsilon_columns(params, CONFIG, columns), oracle)}
    assert all(gap <= bound for gap, bound in margins.values()), _margins_text(margins)
    panels = quadrature._contour_panels
    monkeypatch.setattr(quadrature, "_contour_panels",
                        lambda *args: (panels(*args)[0], np.empty((0, 2)), None))
    margins = {name: _gap_and_bound(a, b)
               for name, a, b in zip(_COLUMN_NAMES, epsilon_columns(params, CONFIG, columns), oracle)}
    assert all(gap > 100.0 * bound for gap, bound in margins.values()), _margins_text(margins)


def test_top_side_ends_where_its_terms_underflow(tmp_path):
    # at d/L = 0.1 the top side's terms carry exp(-d^2 x^2 - L^2/(4 d^2)),
    # which is exactly 0.0 past x_end = sqrt(746 - L^2/(4 d^2))/d, so its
    # last panel is the one that reaches x_end and a larger cutoff adds no
    # node; a cutoff of 1e100/d runs as 30/d does
    params = SystemParams(dipole_d=0.2)
    d, length, k_pole = params.dipole_d, params.separation_l, params.omega_a / params.c
    columns = _report_columns(params)
    used = [[r.nodes_used for r in epsilon_columns(
                params, QuadratureConfig(kmax_over_invd=kmax), columns)]
            for kmax in (30.0, 1e3, 1e4, 1e100)]
    assert used == [used[0]] * 4
    x_end = math.sqrt(746.0 - (length / (2.0 * d)) ** 2) / d
    for kmax in (30.0, 1e100):
        _, tops, height = quadrature._contour_panels(length, d, k_pole, kmax / d)
        assert tops[-1, 0] < x_end <= tops[-1, 1]
    past = np.nextafter(x_end, math.inf) + 1j * height
    terms, sizes = quadrature._g_terms(np.array([past]), np.ones(1), d, length)
    assert terms[0] == 0.0 and sizes[0] == 0.0
    cfg = tmp_path / "far_cutoff.cfg"
    cfg.write_text("dipole_d = 0.2\nkmax_over_invd = 1e100\n")
    assert cli.main(["--config", str(cfg), "epsilon"]) == cli.EXIT_OK


def test_small_dipoles_meet_the_closed_form_within_a_fixed_node_count():
    # the real-axis route ran through K L/2 pi = 8 L/d periods and gave up at
    # d/L = 1e-6, where they passed its node budget; the three sides hold the
    # same panels at every d/L, and no column takes more than their nodes.
    # The gap to the d -> 0 closed form is the physical 12 (d/L)^2, so it
    # falls by 100 a decade, down to 1.2e-11 at 1e-6.
    results, gaps, full = [], [], set()
    for dl in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        params = SystemParams(dipole_d=dl * PARAMS.separation_l)
        results.append(epsilon_coulomb(params, CONFIG))
        gaps.append(results[-1].value / coulomb_closed_form(params) - 1.0)
        sides, _, _ = quadrature._contour_panels(
            params.separation_l, params.dipole_d, params.omega_a / params.c,
            CONFIG.kmax_over_invd / params.dipole_d)
        full.add(3 * 3 * sides.shape[0] * CONFIG.radial_nodes)
    assert all(r.error_estimate <= 1e-14 * abs(r.value) for r in results)
    assert len(full) == 1 and all(r.nodes_used <= min(full) for r in results)
    assert 0.0 < gaps[-1] <= 1e-10
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse / fine == pytest.approx(100.0, rel=2e-3)


# -- parts of the contour that the sums leave out ---------------------------------

def _full_nodes(params, config):
    """Nodes through level 1 on all three sides and the top: the count of a
    pass that leaves nothing out."""
    sides, tops, _ = quadrature._contour_panels(
        params.separation_l, params.dipole_d, params.omega_a / params.c,
        config.kmax_over_invd / params.dipole_d)
    return 3 * (3 * sides.shape[0] + tops.shape[0]) * config.radial_nodes


def _moduli(params, k_hi, keys, k, weights):
    """(sum of |g| w, {key: sum of |g basis_key| w}) on complex nodes k with
    positive weights w: a fine Gauss-Legendre sum of each modulus."""
    c, k_pole = params.c, params.omega_a / params.c
    terms = np.abs(quadrature._g_terms(k, weights, params.dipole_d, params.separation_l)[0])
    w, off = np.append(c * k, c * k_hi), np.append(c * (k - k_pole), c * (k_hi - k_pole))
    return terms.sum(), {key: (terms * np.abs(quadrature._basis(key, w, off))).sum()
                         for key in keys}


def _fine(panels):
    return quadrature._split(np.asarray(panels, dtype=float).reshape(-1, 2), 3, 32)


@settings(max_examples=40, deadline=None)
@given(st.floats(-4.0, math.log10(0.3)), st.floats(math.log10(0.05), math.log10(400.0)),
       st.floats(6.0, 30.0), st.integers(0, 1 << 16))
def test_each_majorant_covers_the_part_it_stands_for(log_dl, log_x, kmax, pick):
    # on a fine Gauss grid, the integral of |g basis| for each basis key over
    # the far side, over the side k = iy above an edge Y' and over the closing
    # segment k = x + iY' lies within that key's majorant of the part, and
    # over all three within its majorant of them together; what J loses (g
    # over the tails of k = iy and k = omega_a/c + iy and over the whole
    # closing segment) lies within J's.  Rounding aside: the fine sums' own,
    # and below the smallest normal float, where a bound keeps only a
    # subnormal's digits
    params = SystemParams(separation_l=10.0**log_x, dipole_d=10.0**(log_dl + log_x))
    d, length, c = params.dipole_d, params.separation_l, params.c
    k_hi, k_pole = kmax / d, params.omega_a / c
    assume(k_pole < k_hi)
    keys = {key for column in _report_columns(params) for key in _h_coefficients(column)}
    sides, _, _ = quadrature._contour_panels(length, d, k_pole, k_hi)
    edges = np.sort(sides[:, 1])
    y_top, y_cut = edges[-1], edges[pick % (edges.size - 1)]
    parts, lost_j = quadrature._omitted_parts(length, d, c, k_hi, k_pole, y_top, y_cut)
    tail = sides[sides[:, 0] >= y_cut]
    x_edges = np.unique(np.concatenate([np.linspace(0.0, k_hi, 65), [k_pole]]))
    y, wy = _fine(sides)
    yt, wyt = _fine(tail)
    x, wx = _fine(np.column_stack([x_edges[:-1], x_edges[1:]]))
    covered = {
        "far": _moduli(params, k_hi, keys, k_hi + 1j * y, wy),
        "near": _moduli(params, k_hi, keys, 1j * yt, wyt),
        "closing": _moduli(params, k_hi, keys, x + 1j * y_cut, wx),
    }

    def covers(bound, integral):
        return integral <= (1.0 + 1e-9) * bound + np.finfo(float).tiny

    for key in keys:
        for name, (_, per_key) in covered.items():
            bound = quadrature._omitted_bound(key, c * k_hi, [parts[name]])
            assert covers(bound, per_key[key]), (name, key, per_key[key], bound)
        bound = quadrature._omitted_bound(key, c * k_hi, list(parts.values()))
        assert covers(bound, sum(per_key[key] for _, per_key in covered.values())), key
    j_side = _moduli(params, k_hi, (), k_pole + 1j * yt, wyt)[0]
    assert covers(lost_j, covered["near"][0] + j_side + covered["closing"][0])


def _passes(monkeypatch, params, config, columns):
    """(results, nodes of each _g_terms call): one call per batch of levels."""
    seen, real = [], quadrature._g_terms
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_g_terms",
                      lambda k, *args: seen.append(k.size) or real(k, *args))
        return epsilon_columns(params, config, columns), seen


def _assert_as_on_every_node(monkeypatch, params, config, columns, results):
    """Every value, estimate, residue and nodes_used of results equals, bit
    for bit, a pass that takes every node (a fraction of 0 leaves out only
    what is exactly 0.0)."""
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "OMIT_FRACTION", 0.0)
        full = epsilon_columns(params, config, columns)
    assert [r.nodes_used for r in full] == [_full_nodes(params, config)] * len(columns)
    for name, a, b in zip(_COLUMN_NAMES, results, full):
        assert a.nodes_used == b.nodes_used, name
        assert ([a.value.hex(), a.error_estimate.hex(), a.residue_imag.hex()]
                == [b.value.hex(), b.error_estimate.hex(), b.residue_imag.hex()]), name


@pytest.mark.parametrize("params, kmax, cut", [
    (PARAMS, 6.0, None), (SystemParams(separation_l=1e20), 8.0, None),
    *((SystemParams(separation_l=400.0, dipole_d=1.2, omega_b=1.0 + delta), 12.0, 672)
      for delta in (0.002, 0.05)),
], ids=["kmax=6", "L=1e20", "L=400,delta=0.002", "L=400,delta=0.05"])
def test_every_node_is_taken_where_a_bound_fails(monkeypatch, params, kmax, cut):
    # at K = 6/d the far side carries exp(-36); at L = 1e20 the sum it would
    # leave is 1e40 times smaller than at L = 2: no cut is tried.  At
    # omega_a L/c = 400, d/L = 0.003 and K = 12/d the cut that the "log"
    # key's majorant picks fails another key's at level 0, and the batch of
    # levels 0 and 1 on the cut sides is thrown away.  Either way every
    # column equals, bit for bit, a pass that leaves nothing out
    config = QuadratureConfig(kmax_over_invd=kmax)
    columns = _report_columns(params)
    results, seen = _passes(monkeypatch, params, config, columns)
    assert seen == [n for n in (cut, _full_nodes(params, config)) if n is not None]
    _assert_as_on_every_node(monkeypatch, params, config, columns, results)


def test_a_key_whose_majorant_fails_sends_the_pass_to_every_node(monkeypatch):
    # negative control: with the "excess" key's slope bound 2^20 times too
    # large, its majorant lies 12 times above its bound at the default point,
    # and the Lorentz column, which holds that key, rejects the cut at level 0
    # and runs again on every node.  The column's own weighted majorant would
    # still pass, 370 times below its bound: the test is per key.  The
    # Coulomb column alone holds only "log" and keeps its cut
    columns = [COULOMB, lorentz_column(PARAMS)]
    coulomb = epsilon_coulomb(PARAMS, CONFIG)
    real = quadrature._slope_bound
    monkeypatch.setattr(quadrature, "_slope_bound", lambda key, *args:
                        real(key, *args) * (2.0**20 if key[0] == "excess" else 1.0))
    assert epsilon_coulomb(PARAMS, CONFIG) == coulomb
    results, seen = _passes(monkeypatch, PARAMS, CONFIG, columns)
    assert seen == [coulomb.nodes_used, _full_nodes(PARAMS, CONFIG)]
    _assert_as_on_every_node(monkeypatch, PARAMS, CONFIG, columns, results)


@pytest.mark.parametrize("params", [
    SystemParams(separation_l=sep_l, dipole_d=dl * sep_l, omega_b=1.0 + delta)
    for sep_l in (1.8, 2.196) for delta in (0.002, 0.05) for dl in (0.01, 0.1)
], ids=lambda p: f"L={p.separation_l},d={p.dipole_d},omega_b={p.omega_b}")
def test_leaving_parts_out_moves_no_value_at_the_report_grid_corners(monkeypatch, params):
    # the parts left out lie below 2^-10 of each sum's rounding size, so every
    # value and residue equals, bit for bit, a pass that takes every node
    # (a fraction of 0 leaves out only what is exactly 0.0)
    columns = _report_columns(params)
    cut = epsilon_columns(params, CONFIG, columns)
    monkeypatch.setattr(quadrature, "OMIT_FRACTION", 0.0)
    full = epsilon_columns(params, CONFIG, columns)
    assert [r.nodes_used for r in full] == [_full_nodes(params, CONFIG)] * len(columns)
    for name, a, b in zip(_COLUMN_NAMES, cut, full):
        assert (a.value.hex(), a.residue_imag.hex()) == (b.value.hex(), b.residue_imag.hex()), name
        assert a.nodes_used < b.nodes_used, name


def test_leaving_the_far_side_out_regardless_moves_the_coulomb_value(monkeypatch):
    # negative control: with every bound taken as passed (a fraction of inf),
    # the far side at K = 6/d is left out and the Coulomb column moves by
    # more than its own estimate (about 13 of them)
    config = QuadratureConfig(kmax_over_invd=6.0)
    taken = epsilon_coulomb(PARAMS, config)
    monkeypatch.setattr(quadrature, "OMIT_FRACTION", math.inf)
    omitted = epsilon_coulomb(PARAMS, config)
    assert omitted.nodes_used < taken.nodes_used
    assert abs(omitted.value - taken.value) > taken.error_estimate


# -- the k_x route against the spherical oracle -----------------------------------

def _gap_and_bound(kx, oracle):
    """(gap, bound) of one column: both error estimates and a rounding floor."""
    return (abs(kx.value - oracle.value),
            kx.error_estimate + oracle.error_estimate + ROUNDING_FLOOR * abs(oracle.value))


def _margins_text(margins):
    return "gap / bound: " + ", ".join(f"{name} {gap:.3g} / {bound:.3g} = {gap / bound:.2f}"
                                       for name, (gap, bound) in margins.items())


@pytest.mark.parametrize("x", [0.05, 2.0, 100.0, 400.0])
def test_kx_route_matches_spherical_oracle(x):
    # omega_a = c = 1, so omega_a L/c = L; d/L = 0.01; delta = 0.01 and 0.05.
    # The two reductions share no node: the bound is their two error
    # estimates and a rounding floor.  The splittings share L, d and the
    # pole, so one spherical pass takes both splittings' columns.
    points = {delta: SystemParams(separation_l=x, dipole_d=0.01 * x, omega_b=1.0 + delta)
              for delta in (0.01, 0.05)}
    pairs = {delta: _columns_and_brackets(params) for delta, params in points.items()}
    oracle = iter(spherical_columns([points[delta] for delta in pairs for _ in pairs[delta]],
                                    ORACLE, [column for cb in pairs.values() for column, _ in cb]))
    kx, spherical, margins = {}, {}, {}
    for delta, params in points.items():
        kx[delta] = epsilon_columns(params, CONFIG, [column for column, _ in pairs[delta]])
        spherical[delta] = [next(oracle) for _ in pairs[delta]]
        margins[delta] = {name: _gap_and_bound(a, b)
                          for name, a, b in zip(_COLUMN_NAMES, kx[delta], spherical[delta])}
    assert all(gap <= bound for m in margins.values() for gap, bound in m.values()), "; ".join(
        f"delta {delta}: {_margins_text(m)}" for delta, m in margins.items())
    # residue: -pi * prefactor * lim (p - k) k^2 G(k) B(ck), with the oracle's
    # G at the pole and the limit of (p - k) B(ck) by a central difference of
    # the bracket alone; the oracle's own residue, a central difference of the
    # whole integrand, must agree with the k_x route's closed form
    shared = points[0.01]  # L, d and the pole
    p, h = shared.omega_a / shared.c, 1e-7
    g_pole = float(_g_batch(np.array([p]), x, shared.dipole_d, ORACLE.angular_nodes)[0])
    for delta, params in points.items():
        prefactor = -(params.charge_q * params.dipole_d) ** 2 / (
            params.eps0 * params.delta_e * (2.0 * math.pi) ** 3)
        for (column, bracket), result, oracle_result in zip(pairs[delta], kx[delta],
                                                            spherical[delta]):
            strength = 0.5 * h * (bracket(params.c * (p - h)) - bracket(params.c * (p + h)))
            expected = -math.pi * prefactor * p * p * g_pole * strength if has_pole(column) else 0.0
            assert result.residue_imag == pytest.approx(expected, rel=1e-6), (delta, column)
            assert oracle_result.residue_imag == pytest.approx(result.residue_imag, rel=1e-6), (
                delta, column)


def test_kx_route_with_the_pole_beyond_the_cutoff_matches_spherical_oracle():
    # d omega_a / c = 10 puts omega_a/c beyond K = 8/d, so only a pole-free
    # pass runs: its panels are graded toward k_x = 0 alone
    params = SystemParams(separation_l=1000.0, dipole_d=10.0)
    (a,) = epsilon_columns(params, CONFIG, [COULOMB])
    (b,) = spherical_columns(params, ORACLE, [COULOMB])
    assert a.residue_imag == 0.0
    gap, bound = _gap_and_bound(a, b)
    assert gap <= bound, _margins_text({"coulomb": (gap, bound)})


# -- configuration ----------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(radial_nodes=1),
        dict(angular_nodes=0),
        dict(kmax_over_invd=5.0),
        dict(rel_tol=0.0),
        dict(rel_tol=1e-18),  # below the rounding floor
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(ValidationError):
        QuadratureConfig(**kwargs)


def test_config_accepts_the_rounding_floor():
    floor = quadrature.ROUNDING_FLOOR
    assert QuadratureConfig(rel_tol=floor).rel_tol == floor


def test_config_from_mapping_ignores_foreign_keys():
    cfg = config_from_mapping({"radial_nodes": 32, "omega_a": 3.0})
    assert cfg.radial_nodes == 32
    assert cfg.angular_nodes == 64  # default survives


def test_integral_result_rejects_negative_error():
    with pytest.raises(ValueError):
        IntegralResult(1.0, -1.0, 0.0, 10)


# -- the amplitudes ----------------------------------------------------------------

def test_coulomb_amplitude_near_closed_form():
    res = epsilon_coulomb(PARAMS, CONFIG)
    closed = coulomb_closed_form(PARAMS)
    assert closed == pytest.approx(7.9577e-4, rel=1e-4)
    assert res.value == pytest.approx(closed, rel=5e-3)  # O((d/L)^2) away
    assert res.residue_imag == 0.0


def test_coulomb_deviation_shrinks_with_dipole():
    def deviation(d):
        p = SystemParams(dipole_d=d)
        return abs(epsilon_coulomb(p, COARSE).value / coulomb_closed_form(p) - 1.0)

    assert deviation(0.02) < deviation(0.04) < 0.02


def test_lorentz_amplitude_is_suppressed_and_regular():
    eps_c = epsilon_coulomb(PARAMS, CONFIG)
    eps_l = epsilon_lorentz(PARAMS, CONFIG)
    ratio = eps_l.value / eps_c.value
    assert 0.97 < ratio < 1.0  # detuning bracket suppresses the amplitude
    assert eps_l.residue_imag != 0.0  # on-shell part reported, not discarded


def test_series_coefficients_regression():
    coeffs = series_coefficients(PARAMS, COARSE)
    # faithful values at omega_a L / c = 2, pinned for regression
    assert coeffs.c0.value == pytest.approx(1.0012018, rel=1e-5)
    assert coeffs.c1.value == pytest.approx(-0.674817869, rel=1e-5)
    assert coeffs.c2.value == pytest.approx(0.0824440529, rel=1e-5)


# -- the point-dipole limits behind acceptance criteria 2 and 3 ------------------
# The quoted c1 = -1/2pi is the small-(omega_a L/c) limit and c2 = 1/2 the
# large one.  These tests show the engine approaching each limit from where
# it is evaluated, at d/L = 0.01 and omega_a = c = 1, so x = L.

C1_LIMIT = -1.0 / (2.0 * math.pi)
C2_LIMIT = 0.5


@lru_cache(maxsize=None)
def _coeffs_at(x):
    return series_coefficients(SystemParams(separation_l=x, dipole_d=0.01 * x), COARSE)


def test_dipole_limit_reproduces_both_limits():
    assert c1_limit(0.02) == pytest.approx(-0.1589993, abs=1e-7)
    assert c2_limit(200.0) == pytest.approx(0.4904539, abs=1e-7)
    assert abs(c1_limit(0.02) / C1_LIMIT - 1.0) < 1e-3
    assert abs(c2_limit(200.0) / C2_LIMIT - 1.0) < 0.02


def test_engine_matches_dipole_limit_at_default_point():
    # the finite-d correction |c0 - 1| bounds the gap to the d -> 0 values
    coeffs = _coeffs_at(PARAMS.separation_l)
    c0, c1, c2 = coeffs.c0.value, coeffs.c1.value, coeffs.c2.value
    finite_d = abs(c0 - 1.0)
    assert abs(c1 / c1_limit(2.0) - 1.0) < finite_d
    assert abs(c2 / c2_limit(2.0) - 1.0) < finite_d


def test_c1_approaches_its_small_separation_limit():
    # quadratic approach: each halving of x shrinks the gap by more than 2.5x
    # (c1 is not compared at large x, where d omega_a / c = 0.01 x is not small)
    gaps = [abs(_coeffs_at(x).c1.value / C1_LIMIT - 1.0) for x in (0.2, 0.1, 0.05)]
    assert gaps[0] > 2.5 * gaps[1] and gaps[1] > 2.5 * gaps[2]
    assert gaps[2] < 0.03


def test_c2_approaches_its_large_separation_limit_as_one_over_x():
    for x in (20.0, 50.0, 100.0):
        gap = abs(_coeffs_at(x).c2.value / C2_LIMIT - 1.0)
        assert 3.0 <= gap * x <= 4.5, (x, gap)
