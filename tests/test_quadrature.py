"""Angular reduction, the principal-value radial engine, and the amplitudes."""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from gaugepair import cli, quadrature
from gaugepair.core import SystemParams, ValidationError
from gaugepair.gauge import mapped_column
from gaugepair.matelem import ConvergenceError
from gaugepair.quadrature import (
    COULOMB,
    Column,
    IntegralResult,
    QuadratureConfig,
    config_from_mapping,
    coulomb_closed_form,
    epsilon_columns,
    epsilon_coulomb,
    epsilon_lorentz,
    g_of_k,
    angular_reduce,
    lorentz_column,
    pv_radial,
    radial_columns,
    series_coefficients,
    series_columns,
)

from dipole_limit import c1_limit, c2_limit

PARAMS = SystemParams()
CONFIG = QuadratureConfig()
COARSE = QuadratureConfig(radial_nodes=32, angular_nodes=32)


# -- angular reduction -----------------------------------------------------------

def test_g_at_zero_is_full_solid_angle_moment():
    assert g_of_k(0.0, 2.0, 0.02) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


@pytest.mark.parametrize("k", [0.3, 2.0, 17.0, 190.0])
def test_angular_reduce_matches_reference_quadrature(k):
    d, length = PARAMS.dipole_d, PARAMS.separation_l

    def envelope(u):
        return u * u * math.exp(-((k * d * u) ** 2))

    # QUADPACK's cosine-weighted rule (QAWO) resolves cos(k L u) itself; plain
    # quad reports an error estimate larger than |G| once k L is large.  The
    # absolute target sits below |G(190)| = 3.6e-9, as the default 1.5e-8 does not.
    ref, err = quad(envelope, -1.0, 1.0, weight="cos", wvar=k * length, epsabs=1e-17, limit=200)
    assert angular_reduce(PARAMS, k) == pytest.approx(2.0 * math.pi * ref, abs=10 * err + 1e-13)


def test_angular_reduce_settles_across_the_radial_domain():
    # k up to the radial cutoff 8/d; past k ~ 119 |G| falls below 1e-6 and the
    # levels agree only to the rounding size of the sum, not to 1e-10 |G|
    for k in np.linspace(0.01, 8.0 / PARAMS.dipole_d, 4001):
        angular_reduce(PARAMS, float(k))


@pytest.mark.parametrize("k", [17.0, 190.0])
def test_angular_reduce_rejects_under_resolved_levels(k):
    with pytest.raises(ConvergenceError):
        angular_reduce(PARAMS, k, nodes=4)


# -- principal value -------------------------------------------------------------

def closed_pv(p, b):
    # PV int_0^b dk / (p^2 - k^2) for b > p
    return math.log((b + p) / (b - p)) / (2.0 * p)


def test_pv_radial_reproduces_analytic_pole_integral():
    p, b = 1.0, 4.0
    res = pv_radial(lambda k: 1.0 / (1.0 - k**2), p, CONFIG, (0.0, b))
    assert res.value == pytest.approx(closed_pv(p, b), rel=1e-10)
    # the residue estimator is O(h^2) finite differencing; it is reported
    # diagnostics, never part of the principal value itself
    assert res.residue_imag == pytest.approx(-math.pi / (2.0 * p), rel=1e-5)
    assert res.nodes_used > 0


def test_pv_window_clamps_near_domain_edge():
    # pole at 0.1 sits close to the lower limit; the window must shrink to fit
    p, b = 0.1, 4.0
    res = pv_radial(lambda k: 1.0 / (p * p - k**2), p, CONFIG, (0.0, b))
    assert res.value == pytest.approx(closed_pv(p, b), rel=1e-9)


def test_pv_radial_without_pole_is_plain_quadrature():
    res = pv_radial(lambda k: k * k, None, CONFIG, (0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert res.residue_imag == 0.0
    assert res.error_estimate <= 1e-12


def test_unreachable_tolerance_raises():
    # a kink inside a panel converges only algebraically under panel doubling
    cfg = QuadratureConfig(rel_tol=1e-12)
    with pytest.raises(ConvergenceError):
        pv_radial(lambda k: np.abs(k - 1.0 / 3.0), None, cfg, (0.0, 1.0))


def test_empty_domain_rejected():
    with pytest.raises(ValidationError):
        pv_radial(lambda k: k, None, CONFIG, (1.0, 1.0))


# -- one pass, many columns --------------------------------------------------------

def _report_columns(params):
    return (COULOMB, lorentz_column(params), mapped_column(params), *series_columns(params))


def test_every_column_of_a_pass_equals_its_one_column_pass():
    columns = _report_columns(PARAMS)
    together = epsilon_columns(PARAMS, COARSE, columns)
    for column, result in zip(columns, together):
        alone = epsilon_columns(PARAMS, COARSE, [column])[0]
        assert result == alone  # value, error estimate, residue and nodes, exactly
        if column.pole:
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


def test_each_report_verb_evaluates_the_kernel_once_per_node(monkeypatch, capsys):
    # one pass at the default point: 24,768 radial nodes (the window's two
    # halves count twice) plus 2 residue samples; the separate passes it
    # replaced evaluated 148,614 k for `epsilon` and 74,114 for `expand`
    kernel = quadrature._g_batch
    evaluated = []

    def counting(ks, *args, **kwargs):
        evaluated.append(np.size(ks))
        return kernel(ks, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_g_batch", counting)
    for verb in ("epsilon", "expand"):
        evaluated.clear()
        assert cli.main([verb, "--json"]) == cli.EXIT_OK
        assert sum(evaluated) <= 24_962, verb
    capsys.readouterr()


def test_segment_holding_almost_nothing_settles_against_the_whole_integral():
    # omega_a L/c = 400, d/L = 0.01: the segment right of the pole window holds
    # about 1e-15 of the total and, judged against itself, never settles
    # because of G's own rounding.  At 32 angular nodes G is under-resolved
    # here (1e-5 relative near k = omega_a/c), so this runs at the default.
    cfg = QuadratureConfig()
    coeffs = series_coefficients(SystemParams(separation_l=400.0, dipole_d=4.0), cfg)
    for result in (coeffs.c0, coeffs.c1, coeffs.c2):
        assert result.error_estimate <= 3.0 * cfg.rel_tol * abs(result.value)


# -- configuration ----------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(radial_nodes=1),
        dict(angular_nodes=0),
        dict(kmax_over_invd=5.0),
        dict(pole_window=0.0),
        dict(pole_window=1.0),
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
    c0, c1, c2 = _coeffs_at(PARAMS.separation_l).as_tuple()
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
