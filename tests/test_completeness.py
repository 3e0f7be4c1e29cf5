import math

import numpy as np
import pytest

from centroaffine import (
    AnalysisConfig,
    CurveTrace,
    HomogeneousPolynomial,
    completeness_verdict,
    concavity_test,
    cubic_segment_test,
    curve_length_with_error,
    geodesic_shoot,
    log_length_bound,
    make_chart,
    n1_monomial_test,
    slice_chart,
)
from centroaffine import completeness
from centroaffine.catalog import analytic_example, nonclosed_example
from centroaffine.chart import chart_metric_rows
from centroaffine.completeness import WITNESS_MAX_LEN, monomial_face_check
from centroaffine.homogeneous import _mul_terms, first_positive_zero
from conftest import FIXTURES, linear_copies, random_hyperbolic_cubics, scaled

CURVE = HomogeneousPolynomial.parse("x^3 - x*y^2")
MONOMIAL = HomogeneousPolynomial.parse("x^2*y")

FAST = AnalysisConfig(boundary_dirs=40, segment_lines=200, concavity_samples=120)


# -- segment test -----------------------------------------------------------------


def test_segment_line_constant_f0():
    frame = make_chart(CURVE, [1, 0])
    result = cubic_segment_test(frame, n_lines=2, seed=0)
    line = result.lines[0]
    # restriction 1 - t^2 gives f0 = 2 (1 - t^2)(-2) - 4 t^2 = -4 identically
    assert abs(line.max_f0 + 4.0) < 1e-12
    assert abs(line.f0_left + 4.0) < 1e-10 and abs(line.f0_right + 4.0) < 1e-10
    assert line.interval == (-1.0, 1.0)
    assert line.endpoint_identity_defect < 1e-10
    assert line.monotone_defect < 1e-12
    assert result.passed


def test_segment_catalog_pass(catalog_frames):
    for poly, frame in catalog_frames.values():
        result = cubic_segment_test(frame, n_lines=300, seed=1)
        assert result.passed and not result.closedness_failures
        for line in result.lines:
            assert line.f0_left <= 1e-9 and line.f0_right <= 1e-9


def test_segment_structural_identity(catalog_frames):
    # the derivative of f0 equals 2 h0 h0''' as exact coefficient algebra
    for poly, frame in catalog_frames.values():
        result = cubic_segment_test(frame, n_lines=60, seed=2)
        assert max(l.monotone_defect for l in result.lines) <= 1e-10


def test_segment_nonclosed_piece_reports_witness():
    entry = nonclosed_example()
    poly, frame = entry.build()
    result = cubic_segment_test(frame, n_lines=40, seed=0)
    assert result.closedness_failures and not result.passed


def test_segment_rejects_non_cubic():
    quartic = HomogeneousPolynomial.parse("x^2*y*z")
    frame = make_chart(quartic, [1, 1, 1])
    with pytest.raises(ValueError):
        cubic_segment_test(frame, n_lines=10)


def test_segment_root_concave_on_grid(catalog_frames):
    # on every passing line the square root of the restriction has
    # nonpositive second differences across the positivity interval
    from centroaffine.homogeneous import restrict_to_line

    for poly, frame in catalog_frames.values():
        result = cubic_segment_test(frame, n_lines=8, seed=3)
        for line in result.lines:
            a, b = line.interval
            x0 = frame.point(line.base_coords)
            v = line.direction @ frame.basis
            r = restrict_to_line(poly, x0, v)
            ts = np.linspace(a, b, 1002)[1:-1]
            vals = np.sqrt(np.maximum([r.value(t) for t in ts], 0.0))
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


# -- lengths and bounds --------------------------------------------------------------


def test_log_length_bound_value():
    frame = make_chart(CURVE, [1, 0])
    trace = CurveTrace(
        params=np.array([0.0, 1.0]),
        coords=np.zeros((2, 1)),
        ambient=np.zeros((2, 2)),
        hvals=np.array([1.0, 1e-6]),
        cumulative_length=np.array([0.0, 1.0]),
    )
    expected = (1.0 / 3.0) * math.sqrt(0.5) * math.log(1e6)
    assert abs(log_length_bound(frame, trace, eps=1.0) - expected) < 1e-12
    flat = CurveTrace(
        params=np.array([0.0, 1.0]),
        coords=np.zeros((2, 1)),
        ambient=np.zeros((2, 2)),
        hvals=np.array([0.5, 0.5]),
        cumulative_length=np.array([0.0, 1.0]),
    )
    assert log_length_bound(frame, flat, eps=1.0) == 0.0


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
    result = n1_monomial_test(MONOMIAL, frame)
    assert result.passed and not result.skipped
    powers = sorted(f.min_power for f in result.faces)
    assert powers == [1, 2]

    quartic = HomogeneousPolynomial.parse("x*y^3")
    frame4 = make_chart(quartic, [1, 1])
    result4 = n1_monomial_test(quartic, frame4)
    assert result4.passed
    assert {f.min_power for f in result4.faces} == {1, 3}
    assert {f.sign_value for f in result4.faces} == {-2.0, 0.0}

    frame_c = make_chart(CURVE, [1, 0])
    assert n1_monomial_test(CURVE, frame_c).passed


def test_monomial_face_check_axis_violation():
    bad = HomogeneousPolynomial.parse("y^3 + x^2*y")  # nonzero on the y-axis
    result = monomial_face_check(bad)
    assert not result.passed
    assert any("axis" in f.reason for f in result.faces)


def test_monomial_test_skips_unbounded_cone():
    entry = nonclosed_example()
    poly, frame = entry.build()
    result = n1_monomial_test(poly, frame)
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


# -- work counts of the witness probes ------------------------------------------------

# Christoffel evaluations of one fixed-step RK4 pass (step 1e-2) over these
# probes: the budget of one adaptive pass
RK4_PASS_EVALS = 3580


@pytest.fixture(scope="module")
def x2yz_probes():
    """x^2*y*z at (1, 1, 1) with a concavity grid that fails, so that all four
    chart-axis probes run: each shot with its trace and the chart points of
    its Christoffel evaluations."""
    patch = pytest.MonkeyPatch()
    points = []
    shots = []
    gamma = completeness.levi_civita_gamma
    shoot = completeness.geodesic_shoot

    def counting_gamma(frame, coords):
        points[-1].append(np.array(coords, dtype=float))
        return gamma(frame, coords)

    def recording_shoot(frame, start, direction, **kwargs):
        points.append([])
        trace = shoot(frame, start, direction, **kwargs)
        shots.append((np.asarray(direction, dtype=float), trace, points[-1]))
        return trace

    patch.setattr(completeness, "levi_civita_gamma", counting_gamma)
    patch.setattr(completeness, "geodesic_shoot", recording_shoot)
    try:
        frame = make_chart(HomogeneousPolynomial.parse("x^2*y*z"), [1, 1, 1])
        verdict = completeness_verdict(frame, AnalysisConfig(eps_grid=(3.9,)))
    finally:
        patch.undo()
    return verdict, shots


def test_x2yz_axis_0_shot_is_one_adaptive_pass(x2yz_probes):
    _, shots = x2yz_probes
    axis0 = [(trace, pts) for d, trace, pts in shots if d[0] != 0.0]
    assert len(axis0) == 2
    for trace, pts in axis0:
        # every pass starts with an evaluation at the start point
        assert sum(1 for c in pts if not np.any(c)) == 1
        assert len(pts) <= RK4_PASS_EVALS
        assert trace.stop_reason == "boundary"


def test_x2yz_axis_1_probes_end_within_budget(x2yz_probes):
    verdict, shots = x2yz_probes
    axis1 = [(trace, pts) for d, trace, pts in shots if d[1] != 0.0]
    assert len(axis1) == 2
    for trace, pts in axis1:
        # the rounding floor of chart coordinates ends the run, not a crawl
        assert trace.stop_reason in ("drift", "boundary")
        assert len(pts) <= RK4_PASS_EVALS
    assert verdict.status == "inconclusive"
    probes = verdict.evidence["geodesic_probes"]
    traces = [trace for _, trace, _ in shots]
    entries = [probe[side] for probe in probes for side in ("forward", "backward")]
    assert len(entries) == len(traces) == 4
    for entry, trace in zip(entries, traces):
        assert entry["stop"] == trace.stop_reason
        assert entry["rejected_steps"] == trace.rejected_steps
        assert 0.0 < entry["error_estimate"] == trace.error_estimate < 1e-4


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
# of the metric that is rounding: h = 1.4e-8 there, where chart coordinates
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


def test_resolved_metric_collapse_ends_a_witness_shot():
    # x^3 + y^3 + z^3 at (1.5, -1, -1): the backward axis-0 geodesic reaches
    # parabolic points, where the metric degenerates, with h near 0.17, far
    # from the boundary; the collapse is resolved and the shot ends there
    frame = make_chart(HomogeneousPolynomial.parse("x^3+y^3+z^3"), [1.5, -1.0, -1.0])
    trace = geodesic_shoot(frame, np.zeros(2), np.array([-1.0, 0.0]), max_len=WITNESS_MAX_LEN)
    assert trace.stop_reason == "degenerate_metric"
    assert trace.hvals[-1] > 0.1
    assert 0.0 < completeness._shot_length(frame, trace, 1e-10) == trace.length < 1.0


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
        assert completeness._tail_length(frame, start, axis, 1.0, m, 1e-10) == math.inf
        t_end, order = _ray_end(frame, start, axis)
        if m <= 3:  # the ray solve may move or miss a zero of order 4 and up
            assert abs(t_end - 1.0) <= 1e-6 and 1 <= order <= m, (m, t_end, order)
        if math.isfinite(t_end):
            assert completeness._tail_length(frame, start, axis, t_end, int(order), 1e-10) == math.inf
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
        length = completeness._tail_length(frame, start, direction, end, m, 1e-7)
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
            length = completeness._tail_length(copy, c, u, t_end, int(order), 1e-10)
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
