import math

import numpy as np
import pytest

from centroaffine import chart_metric, classify, completeness_verdict, regularity_report
from centroaffine.catalog import (
    QUARTIC_Q,
    analytic_example,
    analytic_map,
    catalog_cubics,
    cubic_curves,
    entries,
    get,
    quartic_P,
    quartic_claims,
    quartic_eta,
    quartic_ratio,
    quartic_x0,
)
from centroaffine.completeness import AnalysisConfig

from conftest import fd_gradient, fd_hessian, fd_third

Polynomial = np.polynomial.Polynomial

FAST = AnalysisConfig(boundary_dirs=40, segment_lines=200, concavity_samples=120)


# -- quartic obstruction family ----------------------------------------------------


def test_eta_vanishes_at_interval_ends():
    eta = quartic_eta(0.0)
    assert eta(0.0) == 0.0 and abs(eta(1.0)) < 1e-16


def test_eta_midpoint_value():
    # 1/2 * 1/2 * ((1/2 - 3/20)^2 + 51/400) = 1/16
    assert abs(quartic_eta(0.0)(0.5) - 1.0 / 16.0) < 1e-16


def test_eta_positive_inside():
    xs = np.linspace(1e-4, 1 - 1e-4, 1001)
    for a in (0.0, 1e-3, 1.0):
        assert np.all(quartic_eta(a)(xs) > 0.0)


def _displayed_expansion(a):
    # reference expansion of the obstruction polynomial, written independently
    base = 3.0 * Polynomial([-3.0, 6.0, 14.0]) ** 2 / 1600.0
    linear = Polynomial([9.0, -24.0, -42.0, 188.0, -80.0]) / 40.0
    quadratic = Polynomial([3.0, -4.0, 4.0]) / 4.0
    return base + a * linear + a * a * quadratic


def test_P_matches_displayed_expansion():
    xs = np.linspace(0.0, 1.0, 100)
    for a in (0.0, 1.0):
        direct = quartic_P(a)(xs)
        reference = _displayed_expansion(a)(xs)
        assert np.abs(direct - reference).max() <= 1e-10


def test_P0_nonnegative_and_vanishing_only_at_x0():
    p0 = quartic_P(0.0)
    xs = np.linspace(0.0, 1.0, 2001)
    vals = p0(xs)
    assert vals.min() >= -1e-15
    x0, _ = quartic_x0()
    assert abs(p0(x0)) <= 1e-15
    away = xs[np.abs(xs - x0) > 0.01]
    assert p0(away).min() > 1e-7


def test_quartic_claim_numbers():
    claims = quartic_claims()
    assert abs(claims["x0_closed"] - claims["x0_solved"]) <= 1e-12
    assert abs(claims["x0_closed"] - 0.2958) <= 5e-5
    assert abs(claims["Q_at_x0"] - 2.479) <= 5e-3
    assert abs(claims["eta0_prime_at_x0"] - 0.1215) <= 5e-4
    assert abs(claims["P0_at_x0"]) <= 1e-9
    assert claims["ratios"][1e-4] > 0.749


def test_quartic_ratio_increases_toward_three_quarters():
    r2, r3, r4 = quartic_ratio(1e-2), quartic_ratio(1e-3), quartic_ratio(1e-4)
    assert r2 < r3 < r4 < 0.75


def test_quartic_Q_positive_on_interval():
    xs = np.linspace(0.0, 1.0, 1001)
    assert QUARTIC_Q(xs).min() > 0.0


def test_root_concavity_fails_at_x0_for_small_a():
    # eta eta'' > (2/3) eta'^2 near x0 means the cube root is not concave there
    x0, _ = quartic_x0()
    for a in (1e-3, 1e-4):
        eta = quartic_eta(a)
        assert eta(x0) * eta.deriv(2)(x0) > (2.0 / 3.0) * eta.deriv()(x0) ** 2


# -- analytic counterexample ---------------------------------------------------------


def test_analytic_map_derivatives_match_central_differences():
    for k in (2.0, 3.0, 2.5):
        amap = analytic_map(k)
        for p in ([1.0, 1.0], [0.7, 2.1], [3.0, 0.4]):
            p = np.array(p)
            assert np.abs(amap.gradient(p) - fd_gradient(amap, p)).max() < 1e-7
            assert np.abs(amap.hessian(p) - fd_hessian(amap, p)).max() < 1e-5
            assert np.abs(amap.third_tensor(p) - fd_third(amap, p)).max() < 1e-6


def test_analytic_chart_values():
    _, frame = analytic_example(2.0)
    assert abs(frame.hval([0.0]) ** 0.5 - 0.25) < 1e-15  # u(1/2) = 1/4
    g_mid = chart_metric(frame, [0.0]).matrix[0, 0]
    assert abs(g_mid - 8.0) < 1e-12
    g_quarter = chart_metric(frame, [-0.25]).matrix[0, 0]
    assert abs(g_quarter - 32.0 / 3.0) < 1e-12


def test_analytic_metric_coefficient_on_grid():
    _, frame = analytic_example(2.0)
    for x in np.linspace(0.05, 0.95, 19):
        g = chart_metric(frame, [x - 0.5]).matrix[0, 0]
        expected = 2.0 / (x * (1.0 - x))
        assert abs(g - expected) <= 1e-10 * expected


def test_analytic_pipeline_matches_closed_form_length():
    entry = get("analytic", k=2.0)
    func, frame = entry.build()
    verdict = completeness_verdict(frame, FAST)
    assert verdict.status == "incomplete"
    assert abs(verdict.evidence["witness_length"] - math.sqrt(2) * math.pi) <= 1e-5


def test_analytic_any_degree():
    for k in (1.5, 3.0):
        func, frame = analytic_example(k)
        assert abs(func([2.0, 2.0]) - 1.0) < 1e-14
        assert classify(frame, 12).aggregate == "hyperbolic"


# -- curve pair and entries ------------------------------------------------------------


def test_cubic_curve_expectations_via_pipeline():
    for entry in cubic_curves():
        poly, frame = entry.build()
        assert classify(frame, 30).aggregate == entry.expected["classification"]
        report = regularity_report(frame, count=40)
        assert report.regular == entry.expected["regular"]
        verdict = completeness_verdict(frame, FAST)
        assert verdict.status == entry.expected["status"]
        assert verdict.route == entry.expected["route"]


def test_catalog_has_three_cubics():
    idents = [e.identifier for e in catalog_cubics()]
    assert idents == ["curve-regular", "curve-nonregular", "triple-product"]


def test_entry_lookup():
    assert get("curve-regular").identifier == "curve-regular"
    assert get("analytic", k=3.0).parameter == 3.0
    with pytest.raises(KeyError):
        get("no-such-entry")
    assert {e.identifier for e in entries()} >= {
        "curve-regular",
        "curve-nonregular",
        "triple-product",
        "analytic",
        "nonclosed-piece",
    }


def test_quartic_eta_rejects_negative_parameter():
    with pytest.raises(ValueError):
        quartic_eta(-0.1)
