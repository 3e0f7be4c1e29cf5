"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` or ``-v`` to see
them inline) and then asserts, so the suite both reports and gates.
"""

import math

import numpy as np
import pytest

from centroaffine import (
    HomogeneousPolynomial,
    chart_metric,
    completeness_verdict,
    cubic_form,
    cubic_segment_test,
    curvature_residual,
    curve_length_with_error,
    fund_equation_residual,
    gen_perturb,
    geodesic_shoot,
    lorentz_metric,
    make_chart,
    regularity_report,
    volume_parallel_residual,
)
from centroaffine.catalog import analytic_example, catalog_cubics, nonclosed_example, quartic_P, quartic_claims
from centroaffine.chart import chart_metric_consistency_rows, cone_identity_residual_rows, lorentz_identity_residual_rows
from centroaffine.homogeneous import euler_residual_rows, position_identity_residual_rows
from centroaffine.completeness import AnalysisConfig
from centroaffine.cli import RunConfig, cmd_analyze, dumps, render_plot

from conftest import random_hyperbolic_cubics, segment_f0

VERDICT_CONFIG = AnalysisConfig(boundary_dirs=80, segment_lines=500, concavity_samples=150)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({description}): {status}  {detail}")
    return ok


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_quartic_counterexample_numbers():
    claims = quartic_claims()
    checks = {
        "x0 solver vs closed form": abs(claims["x0_closed"] - claims["x0_solved"]) <= 1e-12,
        "x0 four digits": abs(claims["x0_closed"] - 0.2958) <= 5e-5,
        "Q(x0)": abs(claims["Q_at_x0"] - 2.479) <= 5e-3,
        "eta0'(x0)": abs(claims["eta0_prime_at_x0"] - 0.1215) <= 5e-4,
        "P0(x0)": abs(claims["P0_at_x0"]) <= 1e-9,
        "ratio(1e-4) > 0.749": claims["ratios"][1e-4] > 0.749,
    }
    grid = np.linspace(0.0, 1.0, 10_000)
    for a in (1e-2, 1e-3, 1e-4):
        checks[f"P_{a:g} > 0 on grid"] = bool(quartic_P(a)(grid).min() > 0.0)
    ok = all(checks.values())
    detail = "; ".join(k for k, v in checks.items() if not v) or f"x0={claims['x0_closed']:.12f}"
    assert report(1, "quartic counterexample numbers", ok, detail)


# -- criterion 2 -----------------------------------------------------------------


def test_criterion_2_analytic_counterexample():
    func, frame = analytic_example(2.0)
    worst = 0.0
    for x in np.linspace(0.02, 0.98, 49):
        g = chart_metric(frame, [x - 0.5]).matrix[0, 0]
        expected = 2.0 / (x * (1.0 - x))
        worst = max(worst, abs(g - expected) / expected)
    metric_ok = worst <= 1e-10

    t_plus = frame.boundary_distance([0.0], [1.0])
    t_minus = frame.boundary_distance([0.0], [-1.0])
    total = curve_length_with_error(frame, [0.0], [1.0], t0=-t_minus, t1=t_plus)[0]
    length_ok = abs(total - math.sqrt(2) * math.pi) <= 1e-6

    verdict = completeness_verdict(frame, VERDICT_CONFIG)
    verdict_ok = (
        verdict.status == "incomplete"
        and abs(verdict.evidence["witness_length"] - math.sqrt(2) * math.pi) <= 1e-5
    )
    ok = metric_ok and length_ok and verdict_ok
    assert report(
        2,
        "analytic counterexample",
        ok,
        f"metric rel dev {worst:.2e}; length {total:.9f}; verdict {verdict.status}"
        f" witness {verdict.evidence.get('witness_length', float('nan')):.9f}",
    )


# -- criterion 3 -----------------------------------------------------------------


def test_criterion_3_curve_pair():
    results = {}
    for ident in ("curve-regular", "curve-nonregular"):
        entry = next(e for e in catalog_cubics() if e.identifier == ident)
        poly, frame = entry.build()
        rep = regularity_report(frame, count=120)
        verdict = completeness_verdict(frame, VERDICT_CONFIG)
        results[ident] = (rep, verdict)
    reg_rep, reg_verdict = results["curve-regular"]
    non_rep, non_verdict = results["curve-nonregular"]
    zero_gradient_face = any(not e.condition_i for e in non_rep.entries)
    ok = (
        reg_rep.regular
        and reg_verdict.status == "complete"
        and reg_verdict.route == "cubic-criterion"
        and not non_rep.regular
        and zero_gradient_face
        and non_verdict.status == "complete"
        and non_verdict.route == "cubic-criterion"
    )
    assert report(
        3,
        "planar cubic pair",
        ok,
        f"regular: {reg_rep.regular}/{reg_verdict.route}; "
        f"nonregular: {non_rep.regular} zero-grad-face={zero_gradient_face}/{non_verdict.route}",
    )


# -- criterion 4 -----------------------------------------------------------------


def _cone_draws(poly, frame, rng, count):
    """The first ``count`` draws origin + 0.25 z (z standard normal) with
    h above 1e-8, in draw order, and h there.  Each pass draws as many
    points as are still missing, so the generator stops where a loop of
    one draw at a time stops."""
    points, values = [], []
    while count:
        x = frame.origin + 0.25 * rng.standard_normal((count, poly.dimension))
        hx = poly.derivative_rows(x, 0)
        keep = ~(hx <= 1e-8)
        points.append(x[keep])
        values.append(hx[keep])
        count -= int(keep.sum())
    return np.concatenate(points), np.concatenate(values)


def test_criterion_4_identity_suites():
    fixtures = [e.build() for e in catalog_cubics()]
    fixtures += random_hyperbolic_cubics(20)
    rng = np.random.default_rng(104)
    worst = {"euler": 0.0, "position": 0.0, "metric": 0.0, "lorentz": 0.0, "cone": 0.0}

    def update(name, values):
        worst[name] = max(worst[name], float(values.max()))

    for poly, frame in fixtures:
        k = poly.degree
        x, hx = _cone_draws(poly, frame, rng, 1000)
        grads, hessians = poly.derivative_rows(x, 1), poly.derivative_rows(x, 2)
        update("euler", np.abs(euler_residual_rows(k, x, hx, grads)) / (1.0 + np.abs(hx)))
        scale = 1.0 + (k - 1.0) * np.abs(grads).max(axis=1)
        update("position", position_identity_residual_rows(k, x, grads, hessians) / scale)
        radial, _ = lorentz_identity_residual_rows(k, x, hx, grads, hessians)
        update("lorentz", radial / (1.0 + (k - 1.0) * np.abs(hx)))
        coords = frame.sample_coords(100, max_frac=0.85, seed=9)
        update("metric", chart_metric_consistency_rows(frame, coords, tol=1.0))
        points = frame.point(frame.sample_coords(10, max_frac=0.7, seed=10))
        for lam in (1.0, 2.0):
            x = lam * points
            scale = [max(1.0, float(np.abs(lorentz_metric(poly, p, validate=False).matrix).max())) for p in x]
            update("cone", cone_identity_residual_rows(frame, x) / scale)
    ok = (
        worst["euler"] <= 1e-12
        and worst["position"] <= 1e-10
        and worst["metric"] <= 1e-8
        and worst["lorentz"] <= 1e-10
        and worst["cone"] <= 1e-6
    )
    assert report(
        4,
        "identity suites on 3 catalog + 20 random cubics",
        ok,
        "; ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_5_intrinsic_verification():
    worst_fund = worst_cubic = worst_curv = worst_vol = 0.0
    slopes = []
    for entry in catalog_cubics():
        poly, frame = entry.build()
        coords = frame.sample_coords(20, max_frac=0.6, seed=11)
        for c in coords:
            g = chart_metric(frame, c).matrix
            scale = max(1.0, 3.0 * float(np.abs(g).max()) ** 2)
            worst_fund = max(worst_fund, fund_equation_residual(frame, c) / scale)
            fd = cubic_form(frame, c, "nabla_g").tensor
            exact = cubic_form(frame, c, "polarization").tensor
            cubic_scale = max(1.0, float(np.abs(exact).max()))
            worst_cubic = max(worst_cubic, float(np.abs(fd - exact).max()) / cubic_scale)
        probe = coords[0]
        res = [fund_equation_residual(frame, probe, fd_step=s) for s in (4e-2, 2e-2, 1e-2)]
        slopes.extend(math.log2(res[i] / res[i + 1]) for i in range(2))
        for c in coords[:5]:
            worst_curv = max(worst_curv, curvature_residual(frame, c))
            worst_vol = max(worst_vol, volume_parallel_residual(frame, c))
    second_order = all(1.5 <= s <= 2.6 for s in slopes)
    ok = (
        worst_fund <= 1e-4
        and worst_cubic <= 1e-5
        and worst_curv <= 1e-4
        and worst_vol <= 1e-4
        and second_order
    )
    assert report(
        5,
        "intrinsic quartic identity and structure residuals",
        ok,
        f"fund={worst_fund:.2e} cubic={worst_cubic:.2e} curv={worst_curv:.2e} "
        f"vol={worst_vol:.2e} slopes={['%.2f' % s for s in slopes]}",
    )


# -- criterion 6 -----------------------------------------------------------------


def test_criterion_6_segment_test():
    # f0 = 2 h0 h0'' - h0'^2 on each bounded line, computed here (segment_f0):
    # its maximum over both ends and a grid, and each end
    ok = True
    details = []
    for entry in catalog_cubics():
        poly, frame = entry.build()
        result = cubic_segment_test(frame, n_lines=2000, seed=6)
        worst = -math.inf
        lines = segment_f0(frame, result)
        for h0, _, _, f0, _ in lines:
            scale = float(np.abs(h0).max())
            worst = max(worst, f0.max() / max(scale, 1e-300))
            if f0.max() > 1e-9 * scale or f0[0] > 1e-9 or f0[1] > 1e-9:
                ok = False
        details.append(f"{entry.identifier}: lines={len(lines)} max_f0/scale={worst:.2e}")
        ok = ok and len(lines) == result.line_count == 2000 and not result.closedness_failures
    poly, frame = nonclosed_example().build()
    nonclosed = cubic_segment_test(frame, n_lines=100, seed=6)
    witness_found = bool(nonclosed.closedness_failures)
    ok = ok and witness_found
    assert report(
        6,
        "cubic segment test, 2e3 lines per catalog cubic",
        ok,
        "; ".join(details) + f"; nonclosed witness={witness_found}",
    )


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_7_perturbation_regularity():
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y"), [1, 1])
    ok = True
    details = []
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        _, new_frame = gen_perturb(frame, eps)
        rep = regularity_report(new_frame, count=500)
        ok = ok and rep.regular and len(rep.entries) == 500
        details.append(f"eps={eps}: {sum(e.regular for e in rep.entries)}/{len(rep.entries)}")
    assert report(7, "perturbed monomial regular at 500 boundary points", ok, "; ".join(details))


# -- criterion 8 -----------------------------------------------------------------


def criterion_8_length(h):
    """Closed-form chart length from c = 0 to h = 1 - c^2 on x(x^2 - y^2) = 1.

    On the chart [1, c] at seed (1, 0) the metric is
    g = (6 + 2c^2) / (9 (1 - c^2)^2), the ``psi_formula`` with k = 3; its arc
    length is (sqrt(2)/3) [ln((1+u)/(1-u)) - asinh(sqrt((1-h)/3))] with
    u = 2 sqrt(1-h) / sqrt(4-h), written in h so that 1 - u does not cancel.
    """
    r4, r1 = math.sqrt(4.0 - h), math.sqrt(1.0 - h)
    u = 2.0 * r1 / r4
    one_minus_u = 3.0 * h / (r4 * (r4 + 2.0 * r1))
    log_term = math.log((1.0 + u) / one_minus_u)
    return (math.sqrt(2.0) / 3.0) * (log_term - math.asinh(math.sqrt((1.0 - h) / 3.0)))


def test_criterion_8_geodesic_length_evidence():
    frame = make_chart(HomogeneousPolynomial.parse("x^3 - x*y^2"), [1, 0])
    trace = geodesic_shoot(
        frame, [0.0], [1.0], max_len=50.0, min_h=1e-20, boundary_frac=0.0
    )
    bound_const = (1.0 / 3.0) * math.sqrt(0.5)
    bound_ok = all(
        trace.cumulative_length[i] >= bound_const * abs(math.log(trace.hvals[i])) - 1e-9
        for i in range(1, len(trace.hvals))
    )
    # the length grows as (sqrt(2)/3) ln(1/h) + O(1): about 22.239 at
    # h = 1e-20, while 50 units would need h ~ 2.7e-46.  So the trace must
    # reach the floor and follow the closed form at every checkpoint.
    closed_err = max(
        abs(trace.cumulative_length[i] - criterion_8_length(trace.hvals[i]))
        / max(1.0, criterion_8_length(trace.hvals[i]))
        for i in range(len(trace.hvals))
    )
    floor_ok = trace.stop_reason == "h_floor" and trace.hvals[-1] <= 1e-20
    milestone_ok = floor_ok and closed_err <= 1e-6
    drift_ok = trace.unit_speed_drift <= 1e-6 * max(1.0, trace.length)
    ok = bound_ok and milestone_ok and drift_ok
    report(
        8,
        "geodesic length evidence",
        ok,
        f"log-bound at checkpoints={bound_ok}; length={trace.length:.6f} "
        f"at h_end={trace.hvals[-1]:.3e} (stop={trace.stop_reason}, needs h_floor at "
        f"h <= 1e-20; L(1e-20)={criterion_8_length(1e-20):.6f}); "
        f"max rel. deviation from L(h)={closed_err:.2e} (needs <= 1e-6); "
        f"drift/len={trace.unit_speed_drift / max(1.0, trace.length):.2e} (needs <= 1e-6)",
    )
    assert bound_ok, "log bound violated at a checkpoint"
    assert drift_ok, "unit-speed drift exceeds 1e-6 per unit length"
    assert floor_ok, (
        f"geodesic stopped on {trace.stop_reason} at h = {trace.hvals[-1]:.3e} after "
        f"{trace.length:.4f} units, before reaching h = 1e-20"
    )
    assert closed_err <= 1e-6, f"length deviates from L(h) by {closed_err:.2e} (relative)"


def test_criterion_8_closed_form_matches_quadrature():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def integrand(c):
        # the metric g of the chart [1, c], written out by hand
        return mpmath.sqrt((6 + 2 * c**2) / (9 * (1 - c**2) ** 2))

    for h in (0.5, 1.615e-10, 1e-20):
        c_end = mpmath.sqrt(1 - mpmath.mpf(h))
        # breakpoints at 1 - 10^-j let the rule resolve the log singularity
        nodes = [mpmath.mpf(0), mpmath.mpf("0.5")]
        j = 1
        while 1 - c_end < mpmath.mpf(10) ** (-j):
            nodes.append(1 - mpmath.mpf(10) ** (-j))
            j += 1
        nodes.append(c_end)
        reference = float(mpmath.quad(integrand, nodes))
        assert abs(criterion_8_length(h) - reference) <= 1e-12 * max(1.0, reference), h
    assert abs(criterion_8_length(1.615e-10) - 11.158704) <= 1e-6
    assert abs(criterion_8_length(1e-20) - 22.2391551) <= 1e-7


# -- criterion 9 -----------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    config = RunConfig(poly="x^3 - x*y^2", seed=(1.0, 0.0), samples=200, rng_seed=11)
    report1, code1 = cmd_analyze(config)
    report2, code2 = cmd_analyze(config)
    bytes1, bytes2 = dumps(report1).encode(), dumps(report2).encode()
    json_ok = bytes1 == bytes2 and code1 == code2 == 0

    frame = make_chart(HomogeneousPolynomial.parse("x^3 - x*y^2"), [1, 0])
    svg_ok = render_plot(frame) == render_plot(frame)
    trace1 = geodesic_shoot(frame, [0.0], [1.0], max_len=2.0).to_csv()
    trace2 = geodesic_shoot(frame, [0.0], [1.0], max_len=2.0).to_csv()
    csv_ok = trace1 == trace2
    ok = json_ok and svg_ok and csv_ok
    assert report(
        9,
        "byte-identical reports under a fixed sampling seed",
        ok,
        f"json={json_ok} svg={svg_ok} csv={csv_ok}",
    )
