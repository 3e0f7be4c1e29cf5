import math
import os
import pickle
import signal
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from centroaffine import (
    AnalysisConfig,
    CurveTrace,
    DegenerateFrameError,
    DomainError,
    HomogeneousPolynomial,
    completeness_verdict,
    concavity_test,
    cubic_segment_test,
    curve_length_with_error,
    geodesic_shoot,
    make_chart,
    n1_monomial_test,
    regularity_report,
    slice_chart,
)
from centroaffine import completeness, homogeneous
from centroaffine.catalog import analytic_example, nonclosed_example
from centroaffine.chart import chart_metric_rows
from centroaffine.completeness import WITNESS_MAX_LEN, monomial_face_check
from centroaffine.homogeneous import _mul_terms, first_positive_zero, restrict_to_line
from conftest import (
    FIXTURES,
    _counted_forks,
    _no_child_left,
    cubic_exponents,
    linear_copies,
    random_hyperbolic_cubics,
    scaled,
    segment_f0,
)

CURVE = HomogeneousPolynomial.parse("x^3 - x*y^2")
MONOMIAL = HomogeneousPolynomial.parse("x^2*y")

FAST = AnalysisConfig(boundary_dirs=40, segment_lines=200, concavity_samples=120)


# -- segment test -----------------------------------------------------------------


def test_segment_line_constant_f0():
    frame = make_chart(CURVE, [1, 0])
    result = cubic_segment_test(frame, n_lines=2, seed=0)
    assert result.passed and result.line_count == 2
    [(h0, a, b, f0, _), _] = segment_f0(frame, result)
    # restriction 1 - t^2 gives f0 = 2 (1 - t^2)(-2) - 4 t^2 = -4 identically
    assert np.allclose(h0, [1.0, 0.0, -1.0, 0.0], rtol=0.0, atol=1e-15)
    assert (a, b) == (-1.0, 1.0)
    assert np.abs(f0 + 4.0).max() < 1e-12


def test_segment_catalog_pass(catalog_frames):
    for poly, frame in catalog_frames.values():
        result = cubic_segment_test(frame, n_lines=300, seed=1)
        assert result.passed and not result.closedness_failures and result.line_count == 300
        for _, _, _, f0, bound in segment_f0(frame, result):
            assert f0.max() <= bound and f0[:2].max() <= 1e-9


def test_segment_structural_identity(catalog_frames):
    # the derivative of f0 equals 2 h0 h0''' = 12 c3 h0 as coefficient algebra
    P = np.polynomial.polynomial
    for poly, frame in catalog_frames.values():
        for h0, *_ in segment_f0(frame, cubic_segment_test(frame, n_lines=60, seed=2)):
            f0 = P.polysub(2.0 * P.polymul(h0, P.polyder(h0, 2)), P.polymul(P.polyder(h0), P.polyder(h0)))
            assert np.abs(P.polyder(f0) - 2.0 * P.polymul(h0, P.polyder(h0, 3))).max() <= 1e-10


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_segment_test_fails_only_on_closedness(dim, hyperbolic, seed):
    # a random cubic, near the hyperbolic x0^3 - x0 (x1^2 + ...) or not, under
    # a random linear map: a bounded line always meets the f0 bound
    rng = np.random.default_rng(seed)
    terms = {e: (0.15 if hyperbolic else 1.0) * rng.uniform(-1.0, 1.0) for e in cubic_exponents(dim)}
    if hyperbolic:
        terms[(3,) + (0,) * (dim - 1)] += 1.0
        for i in range(1, dim):
            terms[tuple(1 if j == 0 else 2 if j == i else 0 for j in range(dim))] -= 1.0
    [(poly, point)] = linear_copies(HomogeneousPolynomial(terms), np.eye(dim)[0] + 0.1 * rng.standard_normal(dim), rng, 1)
    value = poly(point)
    assume(abs(value) > 1e-3)
    try:
        frame = make_chart(poly, math.copysign(1.0, value) * point)
    except (DomainError, DegenerateFrameError):
        assume(False)
    result = cubic_segment_test(frame, n_lines=500, seed=seed % 5)
    assert result.passed == (not result.closedness_failures)
    for h0, a, b, f0, bound in segment_f0(frame, result):
        assert f0.max() <= bound, (h0, a, b)


def test_segment_nonclosed_piece_reports_witness():
    entry = nonclosed_example()
    poly, frame = entry.build()
    result = cubic_segment_test(frame, n_lines=40, seed=0)
    assert result.closedness_failures and not result.passed


def test_segment_block_solves_each_line_once(monkeypatch):
    # f0 needs no solve of its own: the zeros of h0 decide each line
    solve, calls = homogeneous.companion_roots, []

    def counted(*args):
        calls.append(len(args[0]))
        return solve(*args)

    frame = make_chart(HomogeneousPolynomial.parse("x*y*z"), [1.0, 2.0, 0.5])
    monkeypatch.setattr(homogeneous, "companion_roots", counted)
    assert cubic_segment_test(frame, n_lines=40, seed=0).passed
    assert calls == [40]


def test_segment_rejects_non_cubic():
    quartic = HomogeneousPolynomial.parse("x^2*y*z")
    frame = make_chart(quartic, [1, 1, 1])
    with pytest.raises(ValueError):
        cubic_segment_test(frame, n_lines=10)


def test_segment_root_concave_on_grid(catalog_frames):
    # on every bounded line the square root of the restriction has
    # nonpositive second differences across the positivity interval
    for poly, frame in catalog_frames.values():
        for h0, a, b, *_ in segment_f0(frame, cubic_segment_test(frame, n_lines=8, seed=3)):
            ts = np.linspace(a, b, 1002)[1:-1]
            vals = np.sqrt(np.maximum(np.polynomial.polynomial.polyval(ts, h0), 0.0))
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert second.max() <= 1e-10


# -- concavity --------------------------------------------------------------------


def test_concavity_pass_on_curve():
    frame = make_chart(CURVE, [1, 0])
    result = concavity_test(frame, eps=1.0, n_samples=150)
    assert result.passed


def test_concavity_hessian_matches_closed_form():
    # for the square-root exponent the chart Hessian is -(1 - t^2)^(-3/2)
    frame = make_chart(CURVE, [1, 0])
    k, eps = 3.0, 1.0
    m = 1.0 / (k - eps)
    t = 0.37
    x = frame.point([t])
    grad = frame.basis @ CURVE.gradient(x)
    hess = frame.basis @ CURVE.hessian(x) @ frame.basis.T
    hx = CURVE(x)
    val = m * hx ** (m - 1) * hess[0, 0] + m * (m - 1) * hx ** (m - 2) * grad[0] ** 2
    assert abs(val + (1 - t * t) ** (-1.5)) < 1e-12


def test_concavity_fails_on_analytic_example_for_every_grid_eps():
    _, frame = analytic_example(2.0)
    k = 2.0
    for eps in (k / 8, k / 4, k / 2, 3 * k / 4, k - k / 8):
        result = concavity_test(frame, eps, n_samples=150)
        assert not result.passed
        assert result.witness_eigenvalue > 0


def test_concavity_rejects_bad_eps():
    frame = make_chart(CURVE, [1, 0])
    with pytest.raises(ValueError):
        concavity_test(frame, eps=3.0)


# -- lengths -------------------------------------------------------------------------


def test_curve_length_analytic_example():
    _, frame = analytic_example(2.0)
    t_plus = frame.boundary_distance([0.0], [1.0])
    t_minus = frame.boundary_distance([0.0], [-1.0])
    total = curve_length_with_error(frame, [0.0], [1.0], t0=-t_minus, t1=t_plus)[0]
    assert abs(total - math.sqrt(2) * math.pi) < 1e-6
    half = curve_length_with_error(frame, [0.0], [1.0], t0=-t_minus, t1=0.0)[0]
    assert abs(half - math.sqrt(2) * math.pi / 2) < 1e-6


def test_curve_length_degenerate_path():
    frame = make_chart(CURVE, [1, 0])
    assert curve_length_with_error(frame, [0.1], [1.0], t0=0.3, t1=0.3) == (0.0, 0.0)


def test_log_bound_below_measured_length_on_traces():
    frame = make_chart(CURVE, [1, 0])
    trace = geodesic_shoot(frame, [0.0], [1.0], max_len=6.0, refinements=1)
    for i in range(1, len(trace.hvals)):
        bound = (1.0 / 3.0) * math.sqrt(0.5) * abs(math.log(trace.hvals[i]))
        assert trace.cumulative_length[i] >= bound - 1e-9


# -- geodesics ---------------------------------------------------------------------------


def test_geodesic_rejects_zero_direction():
    frame = make_chart(CURVE, [1, 0])
    with pytest.raises(ValueError):
        geodesic_shoot(frame, [0.0], [0.0])


def test_geodesic_unit_speed_conservation():
    frame = make_chart(CURVE, [1, 0])
    trace = geodesic_shoot(frame, [0.0], [1.0], max_len=5.0)
    assert trace.unit_speed_drift <= 1e-6 * max(1.0, trace.length)


def test_geodesic_analytic_reaches_boundary():
    _, frame = analytic_example(2.0)
    trace = geodesic_shoot(frame, [0.0], [1.0], max_len=30.0)
    half = math.sqrt(2) * math.pi / 2
    assert trace.stop_reason in ("boundary", "drift", "step_underflow")
    assert trace.length <= half + 1e-3
    assert trace.length >= half - 0.05  # truncated just short of the boundary


def test_geodesic_boundary_layer_on_a_surface():
    # x*y*z = 1 is flat in log coordinates u_i = ln x_i, metric (1/3) sum du_i^2;
    # the geodesic along (1, 1, -2) in u meets the slice boundary inside the
    # edge z = 0, with x = y = e^s, z = e^(-2s), length sqrt(2) s and chart
    # value h = 27 / (2 e^s + e^(-2s))^3.
    frame = make_chart(HomogeneousPolynomial.parse("x*y*z"), [1, 1, 1])
    direction = np.array([1.0, math.sqrt(3.0)]) / 2.0
    hit = frame.point(frame.boundary_distance(np.zeros(2), direction) * direction)
    assert abs(hit[2]) <= 1e-12 and min(hit[0], hit[1]) >= 1.0  # interior of the edge z = 0
    trace = geodesic_shoot(
        frame, [0.0, 0.0], direction, max_len=50.0, min_h=1e-20, boundary_frac=0.0
    )
    assert trace.stop_reason == "h_floor"
    assert trace.hvals[-1] <= 1e-20
    assert trace.unit_speed_drift <= 1e-6 * max(1.0, trace.length)
    bound_const = (1.0 / 3.0) * math.sqrt(0.5)
    for i in range(1, len(trace.hvals)):
        assert trace.cumulative_length[i] >= bound_const * abs(math.log(trace.hvals[i])) - 1e-9

    def edge_length(h):
        # e^s is the root q > 1 of 2 q^3 - 3 h^(-1/3) q^2 + 1 = 0
        roots = np.roots([2.0, -3.0 * h ** (-1.0 / 3.0), 0.0, 1.0])
        return math.sqrt(2.0) * math.log(max(r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r)))

    for i in range(1, len(trace.hvals), 50):
        expected = edge_length(trace.hvals[i])
        assert abs(trace.cumulative_length[i] - expected) <= 1e-6 * max(1.0, expected)


def test_geodesic_final_velocity_is_the_chart_velocity():
    # The edge-bound x*y*z geodesic of the layer test above is the chart line
    # along its start direction, so its final chart velocity, rotated back
    # from the boundary layer's axes (whose first axis is the normal), points
    # along that direction.  Near the edge unit speed allows a tangential
    # velocity of order sqrt(h) against a normal one of order h, so a
    # tangential error of 1e-8 in the metric turns the direction by about
    # 1e-8 / sqrt(h): 2e-5 at the stop, where h = 7e-8.
    frame = make_chart(HomogeneousPolynomial.parse("x*y*z"), [1, 1, 1])
    direction = np.array([1.0, math.sqrt(3.0)]) / 2.0
    trace = geodesic_shoot(frame, [0.0, 0.0], direction, max_len=12.0)
    assert trace.stop_reason == "boundary" and trace.hvals[-1] < 1e-7
    v = trace.final_velocity
    assert np.linalg.norm(v / np.linalg.norm(v) - direction) <= 1e-4


def test_geodesic_trace_invariants():
    frame = make_chart(CURVE, [1, 0])
    trace = geodesic_shoot(frame, [0.0], [1.0], max_len=3.0, refinements=0)
    assert np.all(np.diff(trace.cumulative_length) >= 0)
    assert np.all(trace.hvals > 0)
    assert trace.ambient.shape[1] == 2


def test_trace_csv_columns():
    frame = make_chart(CURVE, [1, 0])
    trace = geodesic_shoot(frame, [0.0], [1.0], max_len=0.5, refinements=0)
    text = trace.to_csv()
    header = text.splitlines()[0].split(",")
    assert header == ["t", "c_1", "x_0", "x_1", "h", "cum_length"]
    assert len(text.splitlines()) == len(trace.params) + 1


# -- bivariate monomial criterion -----------------------------------------------------


def test_monomial_test_catalog_curves():
    frame = make_chart(MONOMIAL, [1, 1])
    result = n1_monomial_test(MONOMIAL, regularity_report(frame))
    assert result.passed and not result.skipped
    powers = sorted(f.min_power for f in result.faces)
    assert powers == [1, 2]

    quartic = HomogeneousPolynomial.parse("x*y^3")
    frame4 = make_chart(quartic, [1, 1])
    result4 = n1_monomial_test(quartic, regularity_report(frame4))
    assert result4.passed
    assert {f.min_power for f in result4.faces} == {1, 3}
    assert {f.sign_value for f in result4.faces} == {-2.0, 0.0}

    frame_c = make_chart(CURVE, [1, 0])
    assert n1_monomial_test(CURVE, regularity_report(frame_c)).passed


def test_monomial_face_check_axis_violation():
    bad = HomogeneousPolynomial.parse("y^3 + x^2*y")  # nonzero on the y-axis
    result = monomial_face_check(bad)
    assert not result.passed
    assert any("axis" in f.reason for f in result.faces)


def test_monomial_test_skips_unbounded_cone():
    entry = nonclosed_example()
    poly, frame = entry.build()
    result = n1_monomial_test(poly, regularity_report(frame))
    assert result.skipped


# -- verdicts ----------------------------------------------------------------------------


def test_verdict_catalog_cubics(catalog_frames):
    for ident, (poly, frame) in catalog_frames.items():
        verdict = completeness_verdict(frame, FAST)
        assert verdict.status == "complete"
        assert verdict.route == "cubic-criterion"


def test_verdict_quadric():
    quadric = HomogeneousPolynomial.parse("x^2 - y^2")
    frame = make_chart(quadric, [2.0, 0.5])
    verdict = completeness_verdict(frame, FAST)
    assert verdict.status == "complete" and verdict.route == "quadric"


def test_verdict_analytic_incomplete():
    _, frame = analytic_example(2.0)
    verdict = completeness_verdict(frame, FAST)
    assert verdict.status == "incomplete"
    assert verdict.route == "finite-length-witness"
    assert abs(verdict.evidence["witness_length"] - math.sqrt(2) * math.pi) < 1e-5


def test_verdict_nonclosed_piece_reports_failure():
    poly, frame = nonclosed_example().build()
    verdict = completeness_verdict(frame, FAST)
    assert "closedness_failure" in verdict.evidence
    assert verdict.status in ("incomplete", "inconclusive")
    if verdict.status == "incomplete":
        assert math.isfinite(verdict.evidence["witness_length"])


def test_verdict_n1_route_for_quartic_curve():
    quartic = HomogeneousPolynomial.parse("x*y^3")
    frame = make_chart(quartic, [1, 1])
    verdict = completeness_verdict(frame, FAST)
    assert verdict.status == "complete" and verdict.route == "n1-monomial"


def test_verdict_monotone_under_route_removal():
    # disabling the segment test must not flip the decision, only the route
    frame = make_chart(CURVE, [1, 0])
    with_seg = completeness_verdict(frame, FAST)
    without = completeness_verdict(
        frame,
        AnalysisConfig(boundary_dirs=40, segment_lines=0, concavity_samples=120),
    )
    assert with_seg.status == without.status == "complete"
    assert without.route == "regular-boundary"


def test_verdict_deterministic():
    _, frame = analytic_example(2.0)
    v1 = completeness_verdict(frame, FAST)
    v2 = completeness_verdict(frame, FAST)
    assert v1.status == v2.status and v1.route == v2.route
    assert v1.evidence == v2.evidence


# -- curve witnesses ------------------------------------------------------------------

# x^3 + y^3 = 1 over the slice line (1, s) (or (s, 1), by symmetry): h = 1 + s^3
# and k = 3, so g = N / (3h)^2 with N = 2 h'^2 - 3 h h'' = -18 s, that is
# g = -2 s / (1 + s^3)^2.  It is positive for -1 < s < 0 and vanishes at the
# inflection s = 0.  The arc from s = -q to the inflection is
# (2 sqrt(2) / 3) artanh(q^(3/2)) (substitute s = -w^2, then z = w^3).
# mpmath at 30 digits, by the closed form and by quad of sqrt(g), gives:
NONCLOSED_ARC = 0.830966986853640684525  # nonclosed-piece, seed (2^(1/3), -1): q = 2^(-1/3)
X3Y3_ARC = 0.575386727490154660754  # x^3 + y^3 at (-1, 1.5), slice (s, 1): q = 2/3
# x^4 + x^2 y^2 = x^2 (x^2 + y^2) over (1, s): h = 1 + s^2, k = 4, N = 4 s^2 - 8,
# so sqrt(g) = sqrt(s^2 - 2) / (2 (1 + s^2)).  From the seed (-1, 5), the
# mirror image of s = -5 (h is even), one side ends at the inflection
# s = -sqrt(2); the other runs into the double zero x = 0, where g ~ 1 / (4 s^2)
# and the length diverges.  mpmath.quad of sqrt(g) from -5 to -sqrt(2) at
# 30 digits gives:
DOUBLE_ZERO_ARC = 0.427456712175659061118


def _count_shots(monkeypatch) -> list:
    calls = []
    shoot = completeness.geodesic_shoot

    def counting(*args, **kwargs):
        calls.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(completeness, "geodesic_shoot", counting)
    return calls


def test_curve_witness_references():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for q, reference in ((mpmath.cbrt(mpmath.mpf(1) / 2), NONCLOSED_ARC), (mpmath.mpf(2) / 3, X3Y3_ARC)):
        arc = mpmath.quad(lambda s: mpmath.sqrt(-2 * s) / (1 + s**3), [-q, 0])
        closed = 2 * mpmath.sqrt(2) / 3 * mpmath.atanh(q**1.5)
        assert abs(arc - closed) <= 1e-25
        assert abs(float(closed) - reference) <= 1e-16
    arc = mpmath.quad(lambda s: mpmath.sqrt(s**2 - 2) / (2 * (1 + s**2)), [-5, -mpmath.sqrt(2)])
    assert abs(float(arc) - DOUBLE_ZERO_ARC) <= 1e-16


@pytest.mark.parametrize(
    "frame, reference, stops",
    [
        (nonclosed_example().build()[1], NONCLOSED_ARC, ("boundary", "degenerate_metric")),
        (
            make_chart(HomogeneousPolynomial.parse("x^3 + y^3"), [-1.0, 1.5]),
            X3Y3_ARC,
            ("degenerate_metric", "boundary"),
        ),
        (
            make_chart(HomogeneousPolynomial.parse("x^4 + x^2*y^2"), [-1.0, 5.0]),
            DOUBLE_ZERO_ARC,
            ("boundary", "degenerate_metric"),
        ),
    ],
    ids=["nonclosed-piece", "x3+y3", "x4+x2y2"],
)
def test_curve_witness_ends_at_the_inflection(monkeypatch, frame, reference, stops):
    shots = _count_shots(monkeypatch)
    verdict = completeness_verdict(frame, FAST)
    assert verdict.route == "finite-length-witness"
    assert abs(verdict.evidence["witness_length"] - reference) <= 1e-10
    assert verdict.evidence["witness_stop"] == stops
    sides = verdict.evidence["witness_sides"]
    assert sorted(sides) == [verdict.evidence["witness_length"], math.inf]
    assert shots == []


def test_curve_witness_sides_of_the_analytic_curve(monkeypatch):
    shots = _count_shots(monkeypatch)
    _, frame = analytic_example(2.0)
    verdict = completeness_verdict(frame, FAST)
    assert verdict.evidence["witness_stop"] == ("boundary", "boundary")
    for side in verdict.evidence["witness_sides"]:
        assert abs(side - math.sqrt(2) * math.pi / 2) <= 1e-9
    assert shots == []


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 24.0, 25.0, 30.0, 40.0, 45.0])
def test_analytic_sides_have_one_length_at_every_degree(k):
    # the metric of h = q^k is that of q = x y / (x + y) for every k, so each
    # side of the chart interval has length pi / sqrt(2), though h itself
    # underflows toward the ends once k is large
    _, frame = analytic_example(k)
    for sign in (1.0, -1.0):
        length, end = completeness.curve_side(frame, sign)
        assert end == "boundary" and abs(length - math.pi / math.sqrt(2.0)) <= 1e-9, (k, sign)


def test_curve_length_refuses_a_segment_across_a_zero_of_the_metric():
    # nonclosed-piece's witness side ends at the first zero of
    # N = (k-1) h'^2 - k h h''; beyond it g(v, v) = N / (k h)^2 is negative
    frame = nonclosed_example().build()[1]
    direction = np.array([-1.0])
    h = restrict_to_line(frame.func, frame.origin, direction @ frame.basis)
    t_end = float(first_positive_zero(completeness._speed_numerator(h, 3)[0][:4])[0])
    length, _ = curve_length_with_error(frame, [0.0], direction, 0.0, t_end)
    assert abs(length - NONCLOSED_ARC) <= 1e-10
    with pytest.raises(DomainError):
        curve_length_with_error(frame, [0.0], direction, 0.0, 2.0 * t_end)


def test_curve_length_of_a_divergent_side_is_infinite():
    # x^4 + x^2 y^2 = x^2 (x^2 + y^2): the side from (-1, 5) along +1 runs into
    # the double zero x = 0, where the speed goes as 1 / (t_end - t)
    frame = make_chart(HomogeneousPolynomial.parse("x^4 + x^2*y^2"), [-1.0, 5.0])
    direction = np.array([1.0])
    t_end, order = _ray_end(frame, np.zeros(1), direction)
    assert order == 2
    length, err = curve_length_with_error(frame, [0.0], direction, 0.0, t_end)
    assert length == math.inf and err > 1e-10


# -- work counts of the witness probes ------------------------------------------------

# Christoffel evaluations of one fixed-step RK4 pass (step 1e-2) over these
# probes: the budget of one adaptive pass
RK4_PASS_EVALS = 3580


@pytest.fixture(scope="module")
def x2yz_probes():
    """x^2*y*z at (1, 1, 1) with a concavity grid that fails, so that all four
    chart-axis probes run, in process: each shot with its trace and the chart
    points of its Christoffel evaluations; and the number of full ray solves
    each shot made (:func:`_counted_solves`)."""
    patch = pytest.MonkeyPatch()
    points = []
    shots = []
    solves = _counted_solves(patch)
    per_shot = []
    gamma = completeness.levi_civita_gamma
    shoot = completeness.geodesic_shoot

    def counting_gamma(frame, coords):
        points[-1].append(np.array(coords, dtype=float))
        return gamma(frame, coords)

    def recording_shoot(frame, start, direction, **kwargs):
        points.append([])
        before = len(solves)
        trace = shoot(frame, start, direction, **kwargs)
        shots.append((np.asarray(direction, dtype=float), trace, points[-1]))
        per_shot.append(len(solves) - before)
        return trace

    patch.setattr(completeness, "levi_civita_gamma", counting_gamma)
    patch.setattr(completeness, "geodesic_shoot", recording_shoot)
    # in process: a forked forward shot would record into the child
    patch.setattr(completeness, "_fork_helps", lambda: False)
    try:
        frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
        verdict = completeness_verdict(frame, AnalysisConfig(eps_grid=(3.9,)))
    finally:
        patch.undo()
    return verdict, shots, per_shot


def test_x2yz_axis_0_shot_is_one_adaptive_pass(x2yz_probes):
    _, shots, _ = x2yz_probes
    axis0 = [(trace, pts) for d, trace, pts in shots if d[0] != 0.0]
    assert len(axis0) == 2
    for trace, pts in axis0:
        # every pass starts with an evaluation at the start point
        assert sum(1 for c in pts if not np.any(c)) == 1
        assert len(pts) <= RK4_PASS_EVALS
        assert trace.stop_reason == "boundary"


def test_x2yz_axis_1_probes_end_within_budget(x2yz_probes):
    verdict, shots, _ = x2yz_probes
    axis1 = [(trace, pts) for d, trace, pts in shots if d[1] != 0.0]
    assert len(axis1) == 2
    for trace, pts in axis1:
        # the rounding floor of chart coordinates ends the run, not a crawl
        assert trace.stop_reason in ("drift", "boundary")
        assert len(pts) <= RK4_PASS_EVALS
    assert verdict.status == "inconclusive"
    probes = verdict.evidence["geodesic_probes"]
    # each pair shoots backward, then takes its forward shot
    traces = {tuple(d): trace for d, trace, _ in shots}
    entries = [
        (probe[side], sign * np.array(probe["direction"]))
        for probe in probes
        for side, sign in (("forward", 1.0), ("backward", -1.0))
    ]
    assert len(entries) == len(traces) == len(shots) == 4
    for entry, direction in entries:
        trace = traces[tuple(direction)]
        assert entry["stop"] == trace.stop_reason
        assert entry["rejected_steps"] == trace.rejected_steps
        assert 0.0 < entry["error_estimate"] == trace.error_estimate < 1e-4


def _counted_solves(patch) -> list:
    """A list that records each full ray solve of the shot loop, the solve
    that runs where the certificate does not hold."""
    calls = []
    for name in ("first_positive_zero_rows", "first_positive_zero"):
        solve = getattr(completeness, name)
        patch.setattr(completeness, name, lambda *a, _solve=solve: calls.append(a) or _solve(*a))
    return calls


def _shot_bytes(trace) -> tuple:
    return (
        trace.to_csv(),
        trace.stop_reason,
        trace.rejected_steps,
        float(trace.error_estimate).hex(),
        float(trace.unit_speed_drift).hex(),
        np.asarray(trace.final_velocity).tobytes(),
    )


def test_certified_ray_checks_leave_every_shot_unchanged(monkeypatch, x2yz_probes):
    # the shot loop's ray checks (the boundary stop, the layer entry, the
    # re-anchoring) each compare a distance with a threshold, and solve the
    # ray only where the Bernstein certificate does not prove it beyond.
    # With the certificate failing everywhere, every shot must come out the
    # same, bit for bit.  With it, a shot that reaches the boundary solves a
    # few rays, not one per step of its last ~70.
    _, probes, probe_solves = x2yz_probes
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    shots = [(frame, d, trace) for d, trace, _ in probes]
    for (d, trace, _), n in zip(probes, probe_solves):
        assert trace.stop_reason != "boundary" or n <= 4, (d, n)
    solves = _counted_solves(monkeypatch)
    for expr, seed, axis, most in (
        ("x*y*z*w", [1, 1, 1, 1], 0, 4),  # the trace shot of x*y*z*w
        ("x*y*z", [1, 1, 1], 0, 4),  # and of triple-product
        ("x^2*y*z*w", [1, 1, 1, 1], 1, 80),  # re-anchors 51 times in the layer
    ):
        frame = make_chart(HomogeneousPolynomial.parse(expr), seed)
        direction = np.eye(frame.chart_dim)[axis]
        del solves[:]
        trace = geodesic_shoot(frame, np.zeros(frame.chart_dim), direction, max_len=WITNESS_MAX_LEN)
        assert trace.stop_reason == "boundary" and len(solves) <= most, (expr, len(solves))
        shots.append((frame, direction, trace))
    monkeypatch.setattr(completeness, "no_zero_below", lambda coeffs, r: False)
    for frame, direction, trace in shots:
        again = geodesic_shoot(frame, np.zeros(frame.chart_dim), direction, max_len=WITNESS_MAX_LEN)
        assert _shot_bytes(again) == _shot_bytes(trace), direction


def test_surface_witness_reports_integrator_health(monkeypatch):
    # a finite tail for every shot turns the first axis pair into a witness
    monkeypatch.setattr(completeness, "_shot_length", lambda frame, trace, quad_tol: trace.length)
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    verdict = completeness_verdict(frame, AnalysisConfig(eps_grid=(3.9,)))
    evidence = verdict.evidence
    assert verdict.route == "finite-length-witness"
    assert evidence["witness_stop"] == ("boundary", "boundary")
    assert isinstance(evidence["witness_rejected_steps"], int)
    assert 0.0 < evidence["witness_error_estimate"] < 1e-4
    assert 0.0 < evidence["witness_drift"] < 1e-6


# the axis-1 backward shot of x^2*y*z*w at (1, 1, 1, 1) stops on a collapse
# of the metric that is rounding: h = 3.9e-8 there, where chart coordinates
# leave the metric uncertain by far more than its smallest eigenvalue
@pytest.mark.parametrize("expr", ["x^2*y*z", "x^3*y*z", "x^2*y*z*w"])
def test_monomial_surfaces_never_get_a_witness(monkeypatch, expr):
    # h = 1 on the positive orthant is an orbit of the diagonal linear maps
    # that preserve h: a homogeneous Riemannian manifold, hence complete.  With
    # the concavity grid failing, the witness search must find no finite
    # probe and end inconclusive, never incomplete.
    lengths = []
    shot_length = completeness._shot_length
    monkeypatch.setattr(completeness, "_shot_length", lambda *a: lengths.append(shot_length(*a)) or lengths[-1])
    poly = HomogeneousPolynomial.parse(expr)
    seeds = [(1.0,) * poly.dimension, (2.0, 1.0, 0.5, 1.5)[: poly.dimension]]
    for seed in seeds:
        frame = make_chart(poly, seed)
        verdict = completeness_verdict(frame, AnalysisConfig(eps_grid=(3.9,)))
        assert (verdict.status, verdict.route) == ("inconclusive", "none"), seed
    # two shots per chart axis at each seed, none of them finite
    assert len(lengths) == 2 * frame.chart_dim * len(seeds), lengths
    assert all(math.isinf(v) for v in lengths), lengths


def test_an_estimate_above_its_truncation_prediction_ends_the_shot(monkeypatch):
    # x^2*y*z at (1, 1, 1): the axis-1 probes reach the rounding floor of chart
    # coordinates after about 80 steps.  There a second rejection's error
    # estimate no longer falls as (trial ratio)^5 from the first's, and the
    # run ends on it rather than creeping on until _MIN_STEP_FRAC
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])

    def shoot(sign):
        return geodesic_shoot(frame, np.zeros(2), np.array([0.0, sign]), max_len=WITNESS_MAX_LEN)

    for sign in (1.0, -1.0):
        trace = shoot(sign)
        assert (trace.stop_reason, trace.rejected_steps <= 25) == ("drift", True), sign
    monkeypatch.setattr(completeness, "_ROUNDING_GAP", math.inf)
    trace = shoot(1.0)
    assert (trace.stop_reason, trace.rejected_steps > 80) == ("drift", True)


def test_the_step_fraction_backstop_ends_a_creeping_shot(monkeypatch):
    # x^3 + y^3 + z^3 at (1.5, -1, -1), axis 0 backward, near its parabolic
    # points: the estimate falls with the trial as truncation predicts, but
    # accepted and rejected steps mostly alternate, so the step creeps down
    # with few rejections from one state; only _MIN_STEP_FRAC ends that creep
    frame = make_chart(HomogeneousPolynomial.parse("x^3+y^3+z^3"), [1.5, -1.0, -1.0])

    def shoot():
        return geodesic_shoot(frame, np.zeros(2), np.array([-1.0, 0.0]), max_len=WITNESS_MAX_LEN)

    trace = shoot()
    assert (trace.stop_reason, trace.rejected_steps <= 40) == ("degenerate_metric", True)
    monkeypatch.setattr(completeness, "_MIN_STEP_FRAC", 0.0)
    trace = shoot()
    assert (trace.stop_reason, trace.rejected_steps > 150) == ("degenerate_metric", True)


def test_resolved_metric_collapse_ends_a_witness_shot():
    # x^3 + y^3 + z^3 at (1.5, -1, -1): the backward axis-0 geodesic reaches
    # parabolic points, where the metric degenerates, with h near 0.17, far
    # from the boundary; the collapse is resolved and the shot ends there
    frame = make_chart(HomogeneousPolynomial.parse("x^3+y^3+z^3"), [1.5, -1.0, -1.0])
    trace = geodesic_shoot(frame, np.zeros(2), np.array([-1.0, 0.0]), max_len=WITNESS_MAX_LEN)
    assert trace.stop_reason == "degenerate_metric"
    assert trace.hvals[-1] > 0.1
    assert 0.0 < completeness._shot_length(frame, trace, 1e-10) == trace.length < 1.0


def test_a_shot_tail_ends_at_a_zero_of_the_metric_as_a_curve_side_does():
    # the same chart: the ray from the origin along -e0 never meets the
    # boundary, but N = (k-1) h'^2 - k h h'' has a zero on it, where the
    # metric degenerates; a shot stopped at the origin ends its tail there
    frame = make_chart(HomogeneousPolynomial.parse("x^3+y^3+z^3"), [1.5, -1.0, -1.0])
    origin, back = np.zeros(2), np.array([-1.0, 0.0])
    assert math.isinf(frame.boundary_distances(origin, back[None])[0])
    P = np.polynomial.polynomial
    h = restrict_to_line(frame.func, frame.point(origin), frame.vectors(back[None])[0])
    numer = 2.0 * P.polypow(P.polyder(h), 2) - 3.0 * P.polymul(h, P.polyder(h, 2))
    roots = P.polyroots(numer[:4])  # the t^4 terms cancel
    t_flat = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0.0)
    stub = CurveTrace(
        params=np.zeros(1),
        coords=origin[None],
        ambient=frame.point(origin)[None],
        hvals=np.ones(1),
        cumulative_length=np.zeros(1),
        stop_reason="boundary",
        final_velocity=back,
    )
    length = completeness._shot_length(frame, stub, 1e-10)
    assert abs(length - curve_length_with_error(frame, origin, back, 0.0, t_flat)[0]) <= 1e-12
    assert abs(length - 0.9615120586125585) <= 1e-12


# -- work in a forked child ----------------------------------------------------------
# Each failure mode of ``completeness._forked`` is tested once here, for every
# caller: the witness pair and the stages of ``cli.cmd_analyze``.


def test_fork_helps_only_with_a_second_cpu_and_no_other_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(completeness.threading, "active_count", lambda: 1)
    assert completeness._fork_helps()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not completeness._fork_helps()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(completeness.threading, "active_count", lambda: 2)
    assert not completeness._fork_helps()
    monkeypatch.setattr(completeness.threading, "active_count", lambda: 1)
    monkeypatch.delattr(os, "fork")
    assert not completeness._fork_helps()


@pytest.mark.parametrize("expr", ["x^2*y*z", "x^3*y*z"])
def test_forked_witness_search_equals_the_in_process_one(monkeypatch, deadline, expr):
    frame = make_chart(HomogeneousPolynomial.parse(expr), [1, 1, 1])
    config = AnalysisConfig(eps_grid=(3.9,))
    forks = _counted_forks(monkeypatch)
    runs = []
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        pair = completeness._shoot_pair(frame, np.zeros(2), np.eye(2)[0])
        runs.append((completeness_verdict(frame, config), [t.to_csv() for t in pair]))
    (forked, forked_pair), (plain, plain_pair) = runs
    assert len(forks) == 3  # one child for the pair, then one for each chart axis
    assert (forked.status, forked.route) == (plain.status, plain.route) == ("inconclusive", "none")
    assert repr(forked.evidence) == repr(plain.evidence)
    assert forked_pair == plain_pair
    _no_child_left()


def _backward_shot(frame, calls):
    """A short backward shot along the first chart axis, which records the
    process that runs it."""

    def shoot():
        calls.append(os.getpid())
        return geodesic_shoot(frame, np.zeros(2), np.array([-1.0, 0.0]), max_len=0.5)

    return shoot


def test_a_backward_shot_that_raises_in_the_child_raises_in_the_parent(monkeypatch, deadline):
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    calls = []
    shoot = _backward_shot(frame, calls)

    def failing():
        raise DomainError(f"backward ended at {shoot().coords[-1].tolist()}")

    forks = _counted_forks(monkeypatch)
    errors = []
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        result = completeness._forked(failing)
        with pytest.raises(DomainError) as info:
            result()
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1] and errors[0][1].startswith("backward ended at")
    assert len(forks) == 1
    # the child's shot is not seen here: forked, the parent shot again itself
    assert calls == [os.getpid()] * 2
    _no_child_left()


def test_a_backward_shot_that_warns_in_the_child_warns_in_the_parent(monkeypatch, deadline):
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    calls = []
    shoot = _backward_shot(frame, calls)

    def warning():
        warnings.warn("backward along [-1.0, 0.0]", UserWarning)
        return shoot()

    forks = _counted_forks(monkeypatch)
    runs = []
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = completeness._forked(warning)()
        runs.append(([(w.category, str(w.message)) for w in caught], trace.to_csv()))
    assert runs[0] == runs[1]
    assert runs[0][0] == [(UserWarning, "backward along [-1.0, 0.0]")]
    assert len(forks) == 1 and calls == [os.getpid()] * 2
    _no_child_left()


def test_a_pair_whose_shots_both_raise_raises_the_forward_error(monkeypatch, deadline):
    # shot in turn, the forward shot raises first; forked, this process
    # shoots backward, and must still raise the forward shot's error
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])

    def failing(frame, start, direction, **kwargs):
        raise DomainError(f"shot along {direction.tolist()}")

    monkeypatch.setattr(completeness, "geodesic_shoot", failing)
    forks = _counted_forks(monkeypatch)
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        with pytest.raises(DomainError) as info:
            completeness._shoot_pair(frame, np.zeros(2), np.eye(2)[0])
        assert str(info.value) == "shot along [1.0, 0.0]"
        _no_child_left()
    assert len(forks) == 1


def test_a_parent_shot_that_raises_does_not_wait_on_a_full_pipe(monkeypatch, deadline):
    # the child's trace (over 64 KiB pickled) fills the pipe; once the
    # parent's own shot raises, nobody reads it, and the parent must not
    # wait on a child blocked in its write
    n = 5_000
    trace = CurveTrace(
        params=np.arange(n) / n,
        coords=np.zeros((n, 2)),
        ambient=np.ones((n, 3)),
        hvals=np.ones(n),
        cumulative_length=np.arange(n) / n,
    )
    assert len(pickle.dumps(trace)) > 1 << 16
    calls = []

    def work():
        calls.append(os.getpid())
        return trace

    monkeypatch.setattr(completeness, "_fork_helps", lambda: True)
    forks = _counted_forks(monkeypatch)
    result = completeness._forked(work)
    with pytest.raises(DomainError, match="forward"):
        try:
            raise DomainError("forward")
        finally:
            assert result(abandon=True) is None
    assert len(forks) == 1 and not calls
    _no_child_left()
    # abandoned, the value is the parent's own; and kept once had
    assert result() is trace and result() is trace and calls == [os.getpid()]
    # and with nothing raised, the trace comes through the pipe whole
    result = completeness._forked(work)
    backward = result()
    assert backward is not trace and backward.to_csv() == trace.to_csv()
    assert result(abandon=True) is backward
    assert len(forks) == 2 and len(calls) == 1
    _no_child_left()


def test_a_child_reaped_elsewhere_leaves_the_backward_shot_to_the_parent(monkeypatch, deadline):
    # with SIGCHLD ignored the child reaps itself and waitpid raises
    # ChildProcessError; its exit status is then unknown, so the parent
    # shoots itself
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    calls = []
    shoot = _backward_shot(frame, calls)
    monkeypatch.setattr(completeness, "_fork_helps", lambda: True)
    forks = _counted_forks(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        forked = completeness._forked(shoot)()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1 and calls == [os.getpid()]
    assert forked.to_csv() == shoot().to_csv()
    _no_child_left()


def _no_descriptors(*args):
    raise OSError(24, "Too many open files")


def test_a_pipe_that_cannot_open_keeps_the_pair_in_process(monkeypatch):
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    monkeypatch.setattr(completeness, "_fork_helps", lambda: False)
    plain = completeness._shoot_pair(frame, np.zeros(2), np.eye(2)[0])
    monkeypatch.setattr(completeness, "_fork_helps", lambda: True)
    monkeypatch.setattr(os, "pipe", _no_descriptors)
    forks = _counted_forks(monkeypatch)
    shots = completeness._shoot_pair(frame, np.zeros(2), np.eye(2)[0])
    assert not forks
    assert [t.to_csv() for t in shots] == [t.to_csv() for t in plain]


def test_a_fork_that_fails_keeps_the_work_in_process(monkeypatch):
    frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
    calls = []
    shoot = _backward_shot(frame, calls)
    pipes, pipe = [], os.pipe
    monkeypatch.setattr(completeness, "_fork_helps", lambda: True)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", _no_descriptors)
    result = completeness._forked(shoot)
    assert len(pipes) == 1
    for fd in pipes[0]:  # the pipe made for the child is closed again
        with pytest.raises(OSError):
            os.fstat(fd)
    assert result().to_csv() == shoot().to_csv()
    assert calls == [os.getpid()] * 2


# -- the exact rule for polynomial tails ------------------------------------------------


def _linear_form(a) -> dict:
    return {tuple(int(i == j) for j in range(len(a))): float(c) for i, c in enumerate(a)}


def _line_into_zero(rng, k, m):
    """l_1^m l_2 ... l_(k-m+1), a product of linear forms on R^3, with a
    slice chart whose line from the chart origin along the first axis has
    the restriction h(t) = (1 - t)^m prod_j (1 + s_j t), |s_j| < 1/2: it
    ends at t = 1 at a zero of order m.  Returns the chart and the s_j."""
    origin = rng.standard_normal(3)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0][:2]
    ends = np.vstack([origin, basis[0]])  # l(origin + t w) = l(origin) + t l(w)
    free = np.linalg.svd(ends)[2][-1]

    def form(slope):  # l(origin) = 1, l(w) = slope, and a random part that vanishes on the line
        return np.linalg.lstsq(ends, np.array([1.0, slope]), rcond=None)[0] + rng.standard_normal() * free

    slopes = rng.uniform(-0.5, 0.5, k - m)
    first = _linear_form(form(-1.0))
    terms = first
    for factor in [first] * (m - 1) + [_linear_form(form(s)) for s in slopes]:
        terms = _mul_terms(terms, factor)
    poly = HomogeneousPolynomial(terms)
    return slice_chart(poly, origin, basis), slopes


def _mp_tail_growth(mpmath, k, m, slopes, deltas=(1e-4, 1e-8)):
    """Length of the line of :func:`_line_into_zero` from 1 - deltas[0] to
    1 - deltas[1], in mpmath: with L = h'/h, the speed sqrt(N) / (k h) is
    sqrt(-L^2 - k L') / k, free of the cancellation in h near its zero."""
    s = [mpmath.mpf(float(v)) for v in slopes]

    def speed(t):
        lead = -m / (1 - t) + sum(v / (1 + v * t) for v in s)
        slope = -m / (1 - t) ** 2 - sum(v * v / (1 + v * t) ** 2 for v in s)
        return mpmath.sqrt(-lead * lead - k * slope) / k

    lo, hi = (-round(math.log10(d)) for d in deltas)
    return mpmath.quad(speed, [1 - mpmath.mpf(10) ** -j for j in range(lo, hi + 1)])


def _count_quadratures(monkeypatch) -> list:
    calls = []
    quad = completeness.curve_length_with_error

    def counting(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(completeness, "curve_length_with_error", counting)
    return calls


def _tail(frame, start, direction, t_end, order, quad_tol):
    """``_tail_length`` given the line restriction, as ``_side`` passes it."""
    h = restrict_to_line(frame.func, frame.point(start), frame.vectors(direction[None])[0])
    return completeness._tail_length(frame, start, direction, t_end, order, h, quad_tol)


def _ray_end(frame, start, direction):
    """(distance, order) of the ray solve, as the witness code asks for it."""
    return tuple(float(a[0]) for a in frame.boundary_distances(start, direction[None], multiplicity=True))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_tails_into_zeros_of_order_below_the_degree_are_infinite(monkeypatch, k):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    quads = _count_quadratures(monkeypatch)
    rng = np.random.default_rng(40 + k)
    start, axis = np.zeros(2), np.array([1.0, 0.0])
    for m in range(1, k):
        frame, slopes = _line_into_zero(rng, k, m)
        assert _tail(frame, start, axis, 1.0, m, 1e-10) == math.inf
        t_end, order = _ray_end(frame, start, axis)
        if m <= 3:  # the ray solve may move or miss a zero of order 4 and up
            assert abs(t_end - 1.0) <= 1e-6 and 1 <= order <= m, (m, t_end, order)
        if math.isfinite(t_end):
            assert _tail(frame, start, axis, t_end, int(order), 1e-10) == math.inf
        # the reference: the length to 1 - delta grows like sqrt(m (k - m)) / k ln(1 / delta)
        rate = math.sqrt(m * (k - m)) / k
        assert abs(float(_mp_tail_growth(mpmath, k, m, slopes)) / math.log(1e4) - rate) <= 1e-3 * rate
    assert quads == []


def _k_fold_line():
    """x^2 y^3 on the slice z = 1 along the diagonal into the corner x = y = 0:
    h(t) = (1 - t / sqrt 2)^5, a zero of the degree's order, where
    N = (k-1) h'^2 - k h h'' vanishes identically and so does the speed."""
    poly = HomogeneousPolynomial.parse("x^2*y^3", dimension=3)
    frame = slice_chart(poly, np.ones(3), np.eye(3)[:2])
    return frame, np.zeros(2), -np.ones(2) / math.sqrt(2.0)


def test_a_tail_into_a_zero_of_the_degree_s_order_keeps_the_quadrature(monkeypatch):
    quads = _count_quadratures(monkeypatch)
    frame, start, direction = _k_fold_line()
    t_end, order = _ray_end(frame, start, direction)
    # the polish takes the 5-fold zero for a lower order: its companion roots
    # are off by about eps^(1/5)
    assert abs(t_end - math.sqrt(2.0)) <= 1e-2 and 1 <= order < 5
    for end, m in [(t_end, int(order)), (math.sqrt(2.0), 5)] + [(math.sqrt(2.0), m) for m in range(1, 5)]:
        # the integrand is rounding noise; a tolerance above it ends the quadrature at once
        length = _tail(frame, start, direction, end, m, 1e-7)
        assert 0.0 <= length < 1e-6, (end, m, length)
    assert len(quads) == 6


def test_the_tail_rule_is_invariant_under_scaling_and_linear_maps(monkeypatch):
    # lambda h and h(A y) carry the same line: the chart (A^-1 origin, basis
    # A^-T) meets the same values h(t) at the same t.  The decision is what
    # is compared, so the quadrature is only recorded.
    quads = []
    monkeypatch.setattr(completeness, "curve_length_with_error", lambda *args: quads.append(args) or (0.0, 0.0))
    rng = np.random.default_rng(45)
    start, axis = np.zeros(2), np.array([1.0, 0.0])
    lines = [(_line_into_zero(rng, k, m)[0], start, axis, math.inf) for k, m in ((3, 1), (4, 2), (5, 3), (6, 2))]
    lines.append(_k_fold_line() + (None,))
    for frame, c, u, expected in lines:
        a = np.linalg.qr(rng.standard_normal((3, 3)))[0] @ np.diag(rng.uniform(0.6, 1.6, 3))
        copies = [slice_chart(scaled(frame.func, lam), frame.origin, frame.basis) for lam in (1e-3, 1e3)]
        origin, basis = np.linalg.solve(a, frame.origin), np.linalg.solve(a, frame.basis.T).T
        copies.append(slice_chart(frame.func.compose_linear(a), origin, basis))
        for copy in [frame] + copies:
            before = len(quads)
            t_end, order = _ray_end(copy, c, u)
            length = _tail(copy, c, u, t_end, int(order), 1e-10)
            if expected is None:  # the k-fold zero keeps the quadrature
                assert len(quads) == before + 1 and length == 0.0
            else:
                assert len(quads) == before and length == expected


# A random sextic curve; side +1 from its seed runs to a cluster of three
# zeros of h within 6e-6 of t = 0.93673 with g >= 0.107 on the way, so the
# metric never degenerates on it.  The first positive zero of N was looked
# for after scaling t by N's nearest zero, a negative one at -0.0097, which
# pushed the scaled top coefficients below the solver's cut-off and put a
# false zero of N at t = 0.6165.
SEXTIC = (
    "0.4867558963953898*x^6 - 4.812691756585318*x^5*y + 14.46501294761392*x^4*y^2"
    " - 8.034555756165176*x^3*y^3 - 14.975239584005966*x^2*y^4"
    " - 3.3321382922411127*x*y^5 + 1.8600959762936564*y^6"
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_positive_zero_scales_by_the_negative_coefficients():
    frame = make_chart(HomogeneousPolynomial.parse(SEXTIC), [0.8150446704972311, -0.8672524295217184])
    assert completeness.curve_side(frame, 1.0) == (math.inf, "boundary")
    t_end = frame.boundary_distance(np.zeros(1), np.ones(1))
    assert abs(t_end - 0.93673) <= 1e-5
    g = chart_metric_rows(frame, np.linspace(0.0, t_end, 400, endpoint=False)[:, None])[:, 0, 0]
    assert g.min() > 0.1
    # (t + eps)(t - 2)(t - 3): scaled by the negative zero, the solve lost 2
    poly = np.polynomial.polynomial
    for eps in (1e-3, 1e-7, 1e-9):
        assert abs(first_positive_zero(poly.polyfromroots([-eps, 2.0, 3.0]))[0] - 2.0) <= 1e-14
    # no negative coefficient, no sign change: no positive zero
    assert first_positive_zero([1.0, 2.0, 0.0, 3.0]) == (math.inf, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_positive_zero_beside_tiny_and_false_zeros():
    poly = np.polynomial.polynomial
    # -(t + eps)(t + 1)(t - 2)(t - 3)(t - 4): scaled by the tiny negative
    # zero, the solve lost the positive zeros (inf) or found a false one
    for eps in (1e-5, 1e-7, 1e-9, 1e-12):
        t = first_positive_zero(-poly.polyfromroots([-eps, -1.0, 2.0, 3.0, 4.0]))[0]
        assert abs(t - 2.0) <= 2e-14, eps
    # tiny positive zeros keep full relative precision
    for t0 in (1e-6, 1e-10, 1e-14):
        t = first_positive_zero(-poly.polyfromroots([t0, -1.0, 2.0, 3.0]))[0]
        assert abs(t - t0) <= 4 * np.finfo(float).eps * t0, t0
    # Taylor coefficients of rays that pass a boundary layer's zero set at a
    # grazing angle (x^2*y*z*w); the real part of a close complex pair, a
    # positive minimum of p, is no zero.  The references are mpmath's
    # polyroots at 80 digits of these coefficients.
    grazing = [3.940328067247122e-30, -6.976383253217805e-21, 3.0854005218915664e-12]
    grazing += [2.244527435649706e-06, 0.407869860398352, 0.019527930734048262]
    assert first_positive_zero(grazing) == (math.inf, 0)  # zeros 1.12916e-9 +- 9.7e-16 i
    beyond = [3.558959636210667e-31, -9.77987457541532e-25, 9.943635643715648e-19]
    beyond += [-4.4310317500070113e-13, 7.305770694405531e-08, 1.3070557540022131e-08]
    t, m = first_positive_zero(beyond)  # not 1.21302e-6 +- 8.4e-12 i
    assert abs(t / 1.819457563156878e-6 - 1.0) <= 1e-9 and m == 1


# -- invariance of the verdict -------------------------------------------------------


@pytest.mark.parametrize("expr, seed, status, route", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_verdict_is_invariant_under_linear_maps_and_scaling(expr, seed, status, route):
    # q(y) = p(A y) at y0 = A^-1 x0 is the same hypersurface piece, and so is
    # the level set of lambda * p
    poly = HomogeneousPolynomial.parse(expr)
    cases = [(poly, np.array(seed))] + linear_copies(poly, seed, np.random.default_rng(17))
    cases += [(scaled(poly, lam), np.array(seed)) for lam in (0.02, 37.5)]
    for func, point in cases:
        verdict = completeness_verdict(make_chart(func, point))
        assert (verdict.status, verdict.route) == (status, route), func


@pytest.mark.parametrize("seed", [1, 2])
def test_random_hyperbolic_cubics_are_complete_by_the_cubic_criterion(seed):
    # the paper's theorem for cubics: a closed hyperbolic component is complete
    for poly, frame in random_hyperbolic_cubics(count=6, seed=seed):
        verdict = completeness_verdict(frame)
        assert (verdict.status, verdict.route) == ("complete", "cubic-criterion"), poly
