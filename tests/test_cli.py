import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from centroaffine import ChartFrame, DomainError, HomogeneousPolynomial, regularity_report
from centroaffine.cli import (
    RunConfig,
    build_frame,
    cmd_analyze,
    dumps,
    main,
    render_plot,
)
from centroaffine.sampling import unit_directions
from conftest import _counted_forks, _no_child_left, linear_copies


def run_cli(args):
    return main(args)


# -- JSON writer ------------------------------------------------------------------


def test_dumps_formats_floats_at_17_digits():
    text = dumps({"value": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_dumps_handles_nested_payloads():
    payload = {"a": [1, 2.5, None, True], "b": {"c": "x\"y"}}
    parsed = json.loads(dumps(payload))
    assert parsed["a"] == [1, 2.5, None, True]
    assert parsed["b"]["c"] == 'x"y'


# -- analyze -----------------------------------------------------------------------


def test_analyze_regular_curve(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["analyze", "--poly", "x^3 - x*y^2", "--seed", "1,0", "--samples", "200", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["classification"]["aggregate"] == "hyperbolic"
    assert report["boundary"]["regular"] is True
    assert report["completeness"]["status"] == "complete"
    assert report["completeness"]["route"] == "cubic-criterion"
    assert report["identities"]["euler_max_rel"] <= 1e-12
    assert report["structure"]["fund_equation_max_abs"] <= 1e-4


def test_analyze_nonregular_curve(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["analyze", "--poly", "x^2*y", "--seed", "1,1", "--samples", "200", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["boundary"]["regular"] is False
    assert report["boundary"]["condition_i_failures"] > 0
    assert report["completeness"]["route"] == "cubic-criterion"


@pytest.mark.parametrize(
    "poly, seed, n_points", [("x^4-x^2*y^2", "1,0", 2), ("x^4-x^2*y^2-x^2*z^2", "1,0,0", 500)]
)
def test_analyze_regular_boundary_route(tmp_path, poly, seed, n_points):
    # quartics: no segment test, and the regular boundary certifies completeness
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--poly", poly, "--seed", seed, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classification"]["counts"]["hyperbolic"] == 100
    assert report["boundary"]["regular"] is True and report["boundary"]["n_points"] == n_points
    assert (report["completeness"]["status"], report["completeness"]["route"]) == ("complete", "regular-boundary")


def test_analyze_analytic_example(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["analyze", "--example", "analytic", "--k", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["completeness"]["status"] == "incomplete"
    witness = report["completeness"]["evidence"]["witness_length"]
    assert abs(witness - math.sqrt(2) * math.pi) <= 1e-5


def test_analyze_json_polynomial_input(tmp_path):
    out = tmp_path / "report.json"
    poly = '{"dim": 2, "degree": 3, "terms": [{"exp": [3, 0], "c": 1.0}, {"exp": [1, 2], "c": -1.0}]}'
    code = run_cli(["analyze", "--poly", poly, "--seed", "1,0", "--samples", "150", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["completeness"]["status"] == "complete"


def test_analyze_inconclusive_exit_code(tmp_path):
    # an eps grid that cannot certify, on a surface with no finite witness
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "analyze",
            "--poly",
            "x^2*y*z",
            "--seed",
            "1,1,1",
            "--eps-grid",
            "3.9",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert json.loads(out.read_text())["completeness"]["status"] == "inconclusive"


# an input flag given where it does not apply, refused rather than ignored by
# `analyze` and `plot` alike: the analytic map's chart is fixed, only its
# degree is a parameter, and an example leaves no room for a --poly
MISPLACED_INPUTS = (
    (["--example", "analytic", "--seed", "1,2"], "--seed"),
    (["--example", "curve-regular", "--k", "7"], "--k"),
    (["--poly", "x^2*y", "--seed", "1,1", "--k", "7"], "--k"),
    (["--example", "curve-regular", "--poly", "x^2*y", "--seed", "1,0"], "--poly"),
)

# (argv after `analyze`, the option the error names): each is refused before any route runs
BAD_NUMBERS = (
    (["--poly", "x^2*y", "--seed", "1,1", "--tol-def", "nan"], "--tol-def"),
    (["--poly", "x^2*y", "--seed", "1,1", "--tol-def", "0"], "--tol-def"),
    (["--poly", "x^2*y", "--seed", "1,1", "--tol-quad", "-1"], "--tol-quad"),
    (["--poly", "x^2*y", "--seed", "1,1", "--tol-quad", "inf"], "--tol-quad"),
    (["--poly", "x^2*y", "--seed", "1,1", "--eps-grid", "5"], "--eps-grid"),
    (["--poly", "x^2*y*z", "--seed", "1,1,1", "--eps-grid", "nan"], "--eps-grid"),
    (["--poly", "x^2*y", "--seed", "inf,1"], "--seed"),
    (["--poly", "x^2*y", "--seed", "1e200,1"], "--seed"),
    (["--poly", "x^2", "--seed", "1"], "--poly"),
    (["--example", "analytic", "--k", "nan"], "--k"),
    (["--example", "analytic", "--k", "1e6"], "--k"),  # (1/4)^k at the slice origin underflows
    (["--example", "curve-regular", "--seed", "nan,1"], "--seed"),
    (["--poly", "x^3-x*y^2", "--seed", "1,0", "--rng-seed", "-1"], "--rng-seed"),
    *MISPLACED_INPUTS,
)


def _json_poly(**changes) -> str:
    """x^2*y as :meth:`HomogeneousPolynomial.to_json` writes it, with ``changes``
    (None drops a key)."""
    obj = {"dim": 2, "degree": 3, "terms": [{"exp": [2, 1], "c": 1.0}], **changes}
    return json.dumps({key: value for key, value in obj.items() if value is not None})


# --poly input that is not a polynomial of finite coefficients and integer
# exponents, each refused rather than truncated, misread or raised through
BAD_POLYS = tuple(
    (["--poly", poly, "--seed", "1,1"], "--poly")
    for poly in (
        _json_poly(degree=2, terms=[{"exp": [1.5, 1.5], "c": 1.0}]),
        _json_poly(terms=[{"exp": [True, 2], "c": 1.0}]),
        _json_poly(terms=5),
        _json_poly(terms=[5]),
        _json_poly(terms=[{"exp": 5, "c": 1.0}]),
        _json_poly(terms=[{"exp": [2, 1], "c": None}]),
        _json_poly(terms=[{"exp": [2, 1], "c": True}]),
        _json_poly(terms=[{"exp": [2, 1], "c": 1.0}, {"exp": [2, 1], "c": 1.0}]),
        _json_poly(dim=2.0),
        _json_poly(dim=None),
        _json_poly(terms=[{"exp": [3, 0], "c": 1.0}, {"exp": [2, 1], "c": math.inf}]),
        _json_poly().replace("1.0", "1e400"),
        _json_poly().replace("1.0", "1" + "0" * 400),  # an int, not a float, in JSON
        '{"dim": 2, "degree": 3',
        "x^2*y + 1e400*y^3",
    )
)


def test_analyze_input_errors_exit_one(capsys):
    assert run_cli(["analyze", "--poly", "x^3 + x^2", "--seed", "1,0"]) == 1
    assert run_cli(["analyze", "--poly", "x^3 - x*y^2"]) == 1  # missing seed
    assert run_cli(["analyze", "--poly", "x^3 - x*y^2", "--seed", "1,0,0"]) == 1
    assert run_cli(["analyze", "--example", "no-such-entry"]) == 1
    capsys.readouterr()
    for args, flag in BAD_NUMBERS + BAD_POLYS:
        # no route runs, so no RuntimeWarning (an error under the test filter) either
        assert run_cli(["analyze", *args]) == 1, args
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {flag}:"), (args, captured.err)


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--poly", "x^2*y", "--seed", "1,a"], "--seed"),
        (["--poly", "x^2*y*z", "--seed", "1,1,1", "--eps-grid", ""], "--eps-grid"),
    ],
)
def test_malformed_number_list_exits_one(capsys, args, flag):
    assert run_cli(["analyze", *args]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: expected comma-separated numbers, got {args[-1]!r}" in err
    assert "invalid" not in err


def test_analyze_seed_whose_value_underflows(tmp_path):
    # h(1e-200, 1e-200) = 1e-600 underflows to 0, though the ray lies in the cone
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["analyze", "--poly", "x^2*y", "--samples", "150"]
    assert run_cli(args + ["--seed", "1e-200,1e-200", "--out", str(out1)]) == 0
    assert run_cli(args + ["--seed", "1,1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analytic_witness_where_h_is_tiny_on_the_identity_slice(tmp_path):
    # the cone identity is checked at points where h ~ 4e-15; Euler's identity
    # keeps the gradient off zero there, however small h is
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--example", "analytic", "--k", "20", "--out", str(out)]) == 0
    completeness = json.loads(out.read_text())["completeness"]
    assert (completeness["status"], completeness["route"]) == ("incomplete", "finite-length-witness")
    assert abs(completeness["evidence"]["witness_length"] - math.sqrt(2.0) * math.pi) <= 1e-8


@pytest.mark.parametrize("k", ["40", "100"])
def test_analytic_witness_at_high_degrees(tmp_path, k):
    # h = q^k underflows near the boundary, but each side's speed is that
    # of q alone, sqrt(-q''/q), so every degree has the length sqrt(2) pi
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--example", "analytic", "--k", k, "--out", str(out)]) == 0
    completeness = json.loads(out.read_text())["completeness"]
    assert (completeness["status"], completeness["route"]) == ("incomplete", "finite-length-witness")
    assert abs(completeness["evidence"]["witness_length"] - math.sqrt(2.0) * math.pi) <= 1e-8


@pytest.mark.parametrize("k", ["50", "150", "200", "300"])
def test_analytic_power_overflow_exits_one(capsys, k):
    # near the boundary h underflows so far that the derivatives of
    # h^(1/(k - eps)) in the concavity grid overflow a float
    assert run_cli(["analyze", "--example", "analytic", "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the derivatives of h^") and "overflow at the value h = " in captured.err


def test_analyze_degenerate_initial_direction_exits_one(capsys):
    # the Hessian of x^3 + y^3 is positive definite at (1, 0.5), so the metric -hess/3 is negative
    assert run_cli(["analyze", "--poly", "x^3+y^3", "--seed", "1,0.5"]) == 1
    assert capsys.readouterr().err == "error: metric degenerate along the initial direction\n"


@pytest.mark.parametrize(
    "poly, seed",
    [("x^2*y+y^2*z+z^2*x", "1,1,1"), ("x^3+y^3+z^3", "1,0,0")],
)
def test_analyze_zero_metric_at_the_seed_exits_one(capsys, poly, seed):
    # the metric vanishes at the seed (exactly, or up to rounding), so the
    # witness geodesic cannot start there
    assert run_cli(["analyze", "--poly", poly, "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err == "error: metric degenerate along the initial direction\n"
    assert "Singular matrix" not in err


def test_analyze_negative_seed_forms_agree(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["analyze", "--poly", "x^2*y", "--samples", "150"]
    assert run_cli(args + ["--seed", "-1,1", "--out", str(out1)]) == 0
    assert run_cli(args + ["--seed=-1,1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_trace_that_cannot_start_keeps_the_report(tmp_path, capsys):
    # the circle x^2 + y^2 = 1 is elliptic: no geodesic of the level-set
    # metric starts there, but the analysis stands
    out, csv = tmp_path / "report.json", tmp_path / "trace.csv"
    args = ["analyze", "--poly", "x^2+y^2", "--seed", "1,0", "--out", str(out)]
    assert run_cli(args + ["--trace", str(csv)]) == 0
    report = json.loads(out.read_text())
    assert not csv.exists()
    assert "trace_file" not in report
    assert report["trace_error"] == "metric degenerate along the initial direction"
    assert "metric degenerate along the initial direction" in capsys.readouterr().err
    plain = tmp_path / "plain.json"
    assert run_cli(args[:-1] + [str(plain)]) == 0
    del report["trace_error"]
    assert report == json.loads(plain.read_text())
    assert (report["completeness"]["status"], report["completeness"]["route"]) == ("complete", "quadric")


def test_analyze_trace_reuses_the_witness_shot(tmp_path, monkeypatch):
    # the trace geodesic is the witness search's forward shot along the
    # first axis: it is written from that shot, not integrated again
    from centroaffine import cli, completeness

    shoot, calls = completeness.geodesic_shoot, []

    def counted(*args, **kwargs):
        calls.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(completeness, "geodesic_shoot", counted)
    monkeypatch.setattr(cli, "geodesic_shoot", counted)
    # in process: forked shots would count in the child
    monkeypatch.setattr(completeness, "_fork_helps", lambda: False)
    csv = tmp_path / "trace.csv"
    config = RunConfig(poly="x^2*y*z", seed=(1.0, 1.0, 1.0), eps_grid=(3.9,), trace=str(csv))
    report, code = cmd_analyze(config)
    assert code == 2 and report["trace_file"] == str(csv)
    assert len(calls) == 4  # two shots along each chart axis, none for the trace
    _, frame, _ = build_frame(config)
    fresh = shoot(frame, np.zeros(2), np.eye(2)[0], max_len=completeness.WITNESS_MAX_LEN)
    assert csv.read_text() == fresh.to_csv()


def test_analyze_forked_trace_is_the_witness_shot(tmp_path, monkeypatch, deadline):
    # forked, the trace child shoots the witness search's first forward
    # shot: the parent shoots the backward ones, and no geodesic twice
    from centroaffine import cli, completeness

    shoot, directions = completeness.geodesic_shoot, []

    def counted(frame, start, direction, **kwargs):
        directions.append(direction.tolist())
        return shoot(frame, start, direction, **kwargs)

    monkeypatch.setattr(completeness, "geodesic_shoot", counted)
    monkeypatch.setattr(cli, "geodesic_shoot", counted)
    monkeypatch.setattr(completeness, "_fork_helps", lambda: True)
    forks = _counted_forks(monkeypatch)
    csv = tmp_path / "trace.csv"
    config = RunConfig(poly="x^2*y*z", seed=(1.0, 1.0, 1.0), eps_grid=(3.9,), trace=str(csv))
    report, code = cmd_analyze(config)
    assert code == 2 and report["trace_file"] == str(csv)
    assert len(forks) == 2  # the trace, then the forward shot along the second axis
    assert directions == [[-1.0, -0.0], [-0.0, -1.0]]
    _, frame, _ = build_frame(config)
    fresh = shoot(frame, np.zeros(2), np.eye(2)[0], max_len=completeness.WITNESS_MAX_LEN)
    assert csv.read_text() == fresh.to_csv()
    _no_child_left()


def _certify_fixture() -> RunConfig:
    """x*y*z under a random linear map, as the certify workload has it."""
    poly = HomogeneousPolynomial.parse("x*y*z")
    (q, y0), = linear_copies(poly, np.ones(3), np.random.default_rng(5), count=1)
    return RunConfig(poly=json.dumps(q.to_json()), seed=tuple(y0), rng_seed=3)


@pytest.mark.parametrize(
    "config, traced, children",
    [
        (_certify_fixture(), False, 1),
        (RunConfig(example="triple-product"), True, 1),
        # the trace, then the forward shot along the second axis
        (RunConfig(poly="x^2*y*z", seed=(1.0, 1.0, 1.0), eps_grid=(3.9,)), True, 2),
    ],
    ids=["certify", "triple-product+trace", "x^2*y*z-eps3.9+trace"],
)
def test_forked_and_in_process_analyses_match(tmp_path, monkeypatch, deadline, config, traced, children):
    from centroaffine import completeness

    csv = tmp_path / "trace.csv"
    config = replace(config, trace=str(csv) if traced else None)
    forks = _counted_forks(monkeypatch)
    runs = []
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        report, code = cmd_analyze(config)
        runs.append((dumps(report), code, csv.read_bytes() if traced else None))
        _no_child_left()
        assert len(forks) == children  # none in process
    assert runs[0] == runs[1]


def test_a_verdict_that_raises_beside_a_pending_child_raises_as_in_process(tmp_path, monkeypatch, capsys, deadline):
    from centroaffine import cli, completeness

    def failing(*args):
        raise DomainError("the verdict failed")

    monkeypatch.setattr(cli, "completeness_verdict", failing)
    forks = _counted_forks(monkeypatch)
    args = ["analyze", "--poly", "x*y*z", "--seed", "1,1,1", "--out", str(tmp_path / "report.json")]
    for trace in ([], ["--trace", str(tmp_path / "trace.csv")]):
        for forked in (True, False):
            monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
            assert run_cli(args + trace) == 1
            assert capsys.readouterr().err == "error: the verdict failed\n"
            _no_child_left()
    assert len(forks) == 2  # one pending child each, the blocks and the trace
    assert not any(tmp_path.iterdir())


def test_a_classification_that_raises_in_the_child_comes_before_the_verdict(tmp_path, monkeypatch, capsys, deadline):
    # in the serial order the classification runs before the verdict, so its
    # error is the one reported, though it raised in the child
    from centroaffine import cli, completeness

    def failing(message, error):
        def fail(*args, **kwargs):
            raise error(message)

        return fail

    monkeypatch.setattr(cli, "classify", failing("the classification failed", ValueError))
    monkeypatch.setattr(cli, "completeness_verdict", failing("the verdict failed", DomainError))
    forks = _counted_forks(monkeypatch)
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        assert run_cli(["analyze", "--poly", "x*y*z", "--seed", "1,1,1"]) == 1
        assert capsys.readouterr().err == "error: the classification failed\n"
        _no_child_left()
    assert len(forks) == 1


def test_a_block_that_warns_in_the_child_warns_once_from_the_parent(monkeypatch, deadline):
    from centroaffine import cli, completeness

    identity_block, pids = cli._identity_block, []

    def warning(*args):
        pids.append(os.getpid())
        warnings.warn("identity block", UserWarning)
        return identity_block(*args)

    monkeypatch.setattr(cli, "_identity_block", warning)
    forks = _counted_forks(monkeypatch)
    runs = []
    for forked in (True, False):
        monkeypatch.setattr(completeness, "_fork_helps", lambda: forked)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report, code = cmd_analyze(RunConfig(poly="x*y*z", seed=(1.0, 1.0, 1.0)))
        runs.append(([(w.category, str(w.message)) for w in caught], dumps(report), code))
        _no_child_left()
    assert runs[0] == runs[1]
    assert runs[0][0] == [(UserWarning, "identity block")]
    # forked, the child's warning is not seen here: the parent ran the block again
    assert len(forks) == 1 and pids == [os.getpid()] * 2


def test_negative_samples_exit_one(tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["analyze", "--poly", "x^3 - x*y^2", "--seed", "1,0", "--samples", "-3", "--out", str(out)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == "error: --samples: expected non-negative integer\n"
    assert not out.exists()


def test_usage_errors_exit_one(capsys):
    # exit code 2 is reserved for inconclusive verdicts
    assert run_cli(["analyze", "--bogus"]) == 1
    assert run_cli([]) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["plot", "--example", "nonclosed-piece"], ["analyze", "--example", "nonclosed-piece"]],
)
def test_nonclosed_curve_plot_exits_one(tmp_path, capsys, args):
    plot = tmp_path / "curve.svg"
    assert run_cli(args + ["--plot", str(plot), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unbounded" in err


def _count_rays(monkeypatch):
    # every ray solve, one ray or many, goes through boundary_distances
    rays = []
    solve = ChartFrame.boundary_distances

    def counted(self, coords, directions, *args, **kwargs):
        for direction in np.atleast_2d(directions):
            rays.append((id(self), tuple(np.ravel(coords)), tuple(direction)))
        return solve(self, coords, directions, *args, **kwargs)

    monkeypatch.setattr(ChartFrame, "boundary_distances", counted)
    return rays


def test_analyze_scans_the_boundary_once(monkeypatch):
    from centroaffine import completeness

    rays = _count_rays(monkeypatch)
    # in process: the classification and identity rays would count in the child
    monkeypatch.setattr(completeness, "_fork_helps", lambda: False)
    cmd_analyze(RunConfig(poly="x*y*z*w", seed=(1.0, 1.0, 1.0, 1.0)))
    # 500 scan rays plus the sample rays of classification and identities
    assert len(rays) == 538
    assert len(set(rays)) == len(rays)


def test_analyze_scans_a_curve_along_its_two_rays(monkeypatch):
    rays = _count_rays(monkeypatch)
    report, _ = cmd_analyze(RunConfig(poly="x^3*y", seed=(1.0, 1.0)))
    assert len(rays) < 30
    assert report["boundary"]["n_points"] == 2
    assert report["completeness"]["evidence"]["boundary_points_scanned"] == 2


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(poly="x^2*y", seed=(1.0, 1.0), samples=150, rng_seed=3),
        RunConfig(poly="x*y*z", seed=(1.0, 2.0, 0.5), samples=150, rng_seed=5),
        RunConfig(example="nonclosed-piece", samples=150),
    ],
)
def test_report_boundary_block_is_the_regularity_report(config):
    report, _ = cmd_analyze(config)
    _, frame, _ = build_frame(config)
    expected = regularity_report(frame, seed=config.rng_seed).to_json()
    assert report["boundary"] == expected


def test_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: Halton directions and lengths are
    # in-repo, and the witness pair forks with os alone, so the import loads
    # no scipy module, no multiprocessing and no concurrent.futures
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, centroaffine.cli; "
        "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
        " or m.startswith('concurrent.futures')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_analytic_analysis_and_repro_leave_scipy_integrate_unloaded():
    # every length, the analytic witness and repro's total length among them,
    # is the in-repo Gauss-Legendre rule
    src = Path(__file__).resolve().parents[1] / "src"
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "from centroaffine.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [main(['analyze', '--example', 'analytic']), main(['repro'])]",
            "print(codes, 'scipy.integrate' in sys.modules)",
        ]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[0, 0] False"


def test_five_variable_analysis_loads_no_scipy():
    # a 4-dimensional chart draws its directions from the in-repo Halton points
    src = Path(__file__).resolve().parents[1] / "src"
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "from centroaffine.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = main(['analyze', '--poly', 'x0*x1*x2*x3*x4', '--seed', '1,1,1,1,1'])",
            "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "0 []"


def test_analytic_witness_at_zero_quadrature_tolerance(tmp_path):
    # with --tol-quad 0 the rule stops on its relative floor, 1e-10 of the length
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--example", "analytic", "--tol-quad", "0", "--out", str(out)]) == 0
    evidence = json.loads(out.read_text())["completeness"]["evidence"]
    assert abs(evidence["witness_length"] - math.sqrt(2.0) * math.pi) <= 1e-5


def test_halton_directions_unchanged():
    expected = [
        [-0.18424981979127897, 0.17043533155372292, 0.9201343390091138, -0.13946444479699244, 0.2662823097368315],
        [0.5069787728097486, -0.09162331028637657, 0.7851368722148373, -0.21391416880256894, 0.269032550459412],
        [-0.41197639176909573, -0.7654798785040973, 0.149466438890581, 0.382521112955851, 0.2750516133722072],
    ]
    assert np.array_equal(unit_directions(5, 3, 0), np.array(expected))


def test_analyze_trace_and_plot_files(tmp_path):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    plot = tmp_path / "curve.svg"
    code = run_cli(
        [
            "analyze",
            "--poly",
            "x^3 - x*y^2",
            "--seed",
            "1,0",
            "--samples",
            "150",
            "--trace",
            str(trace),
            "--plot",
            str(plot),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,c_1,x_0,x_1,h,cum_length"
    assert len(lines) > 10
    assert plot.read_text().startswith("<svg")
    report = json.loads(out.read_text())
    assert report["trace_file"] == str(trace) and report["plot_file"] == str(plot)


def test_analyze_deterministic_bytes(tmp_path):
    # a curve; x*y*z*w runs the concavity grid on a Fibonacci sphere and
    # x0*x1*x2*x3*x4 on Halton directions; a 3-variable cubic runs the
    # segment test and the structure block
    inputs = [
        ("x^3 - x*y^2", "1,0", "cubic-criterion"),
        ("x*y*z*w", "1,1,1,1", "concavity(0.5)"),
        ("x0*x1*x2*x3*x4", "1,1,1,1,1", "concavity(0.625)"),
        ("x^3 - x*y^2 - x*z^2 + 0.1*y^3", "1,0,0", "cubic-criterion"),
    ]
    for poly, seed, route in inputs:
        args = ["analyze", "--poly", poly, "--seed", seed, "--samples", "150", "--rng-seed", "7"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["completeness"]["route"] == route


# -- repro -------------------------------------------------------------------------


def test_repro_all_rows_pass(tmp_path, capsys):
    out = tmp_path / "repro.json"
    assert run_cli(["repro", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    names = {row["name"] for row in report["rows"]}
    assert {"quartic.x0", "quartic.Q_at_x0", "analytic.total_length"} <= names
    printed = capsys.readouterr().out
    assert "[pass] quartic.x0" in printed


# -- plot --------------------------------------------------------------------------


def test_plot_deterministic_and_valid(tmp_path):
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["plot", "--poly", "x^3 - x*y^2", "--seed", "1,0"]
    assert run_cli(args + ["--out", str(svg1)]) == 0
    assert run_cli(args + ["--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    body = svg1.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_plot_writes_to_stdout_without_a_path(tmp_path, capsys):
    svg = tmp_path / "a.svg"
    assert run_cli(["plot", "--example", "curve-regular", "--out", str(svg)]) == 0
    capsys.readouterr()
    assert run_cli(["plot", "--example", "curve-regular"]) == 0
    assert capsys.readouterr().out == svg.read_text()


@pytest.mark.parametrize(
    "flag, value",
    [("--samples", "5"), ("--eps-grid", "9"), ("--tol-def", "7"), ("--tol-quad", "0"), ("--rng-seed", "3"), ("--trace", "t.csv")],
)
def test_plot_refuses_the_analysis_flags(tmp_path, capsys, flag, value):
    # plot reads only the input flags; an analysis flag it would ignore is a usage error
    args = ["plot", "--example", "curve-regular", "--out", str(tmp_path / "curve.svg")]
    assert run_cli(args + [flag, str(tmp_path / value) if flag == "--trace" else value]) == 1
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, flag", MISPLACED_INPUTS)
def test_plot_refuses_a_misplaced_input_flag(tmp_path, capsys, args, flag):
    assert run_cli(["plot", *args, "--out", str(tmp_path / "curve.svg")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}:")
    assert not any(tmp_path.iterdir())


def test_plot_rejects_higher_dimensions():
    assert run_cli(["plot", "--poly", "x*y*z", "--seed", "1,1,1"]) == 1


def test_render_plot_includes_rays_and_curve():
    from centroaffine import HomogeneousPolynomial, make_chart

    frame = make_chart(HomogeneousPolynomial.parse("x^2*y"), [1, 1])
    svg = render_plot(frame)
    assert svg.count("<line") == 2
    assert svg.count("<path") == 1


# -- config plumbing -----------------------------------------------------------------


def test_build_frame_example_with_custom_seed():
    config = RunConfig(example="curve-regular", seed=(8.0, 0.0))
    func, frame, source = build_frame(config)
    assert source == "curve-regular"
    assert abs(frame.func(frame.origin) - 1.0) < 1e-12


def test_cmd_analyze_returns_report_dict():
    config = RunConfig(poly="x^2*y", seed=(1.0, 1.0), samples=150)
    report, code = cmd_analyze(config)
    assert code == 0
    assert report["input"]["degree"] == 3
    assert report["completeness"]["status"] == "complete"


def test_list_command(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    assert "curve-regular" in out and "analytic" in out
