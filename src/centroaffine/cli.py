"""Command-line surface: analyze level sets, reproduce reference numbers, plot.

Reports are emitted as JSON with every float rendered at 17 significant
digits; identical configurations (including the sampling seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import catalog
from .boundary import boundary_scan
from .chart import (
    chart_metric_consistency_rows,
    chart_metric_rows,
    classify,
    cone_identity_residual_rows,
    lorentz_identity_residual_rows,
    make_chart,
)
from .completeness import (
    WITNESS_MAX_LEN,
    AnalysisConfig,
    _forked,
    completeness_verdict,
    curve_side,
    geodesic_shoot,
)
from .errors import DegenerateFrameError, DomainError, MixedDegreeError, ParseError, UnboundedRayError
from .homogeneous import HomogeneousPolynomial, euler_residual_rows, position_identity_residual_rows
from .structure import structure_residual_rows

SCHEMA_VERSION = 1


# -- deterministic JSON with fixed float formatting --------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{dumps(str(k))}: {dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# -- configuration -------------------------------------------------------------------


@dataclass
class RunConfig:
    poly: str | None = None
    example: str | None = None
    example_k: float | None = None  # the analytic map's degree; None is its 2.0
    seed: tuple | None = None
    tol_def: float = 1e-9
    tol_quad: float = 1e-10
    samples: int = 2000
    eps_grid: tuple | None = None
    rng_seed: int = 0
    out: str | None = None
    plot: str | None = None
    trace: str | None = None

    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(
            segment_lines=self.samples,
            eps_grid=self.eps_grid,
            rng_seed=self.rng_seed,
            quad_tol=self.tol_quad,
        )


def _checked_seed(func, seed) -> np.ndarray:
    """The seed as an array, refused unless it has one finite coordinate per
    variable and a finite value there."""
    seed = np.array(seed, dtype=float)
    if seed.size != func.dimension:
        raise ValueError(f"seed has {seed.size} coordinates, polynomial has {func.dimension}")
    if not np.isfinite(seed).all():
        raise ValueError(f"--seed: coordinates must be finite, got {seed.tolist()}")
    try:
        with np.errstate(all="ignore"):
            value = func(seed)
    except (OverflowError, ValueError):  # math.fsum of terms that overflow
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"--seed: the value at {seed.tolist()} is not finite")
    return seed


def build_frame(config: RunConfig):
    """Instantiate (function, frame, source description) from a run config."""
    if config.example_k is not None and not math.isfinite(config.example_k):
        raise ValueError(f"--k: expected a finite number, got {config.example_k}")
    if config.example:
        if config.poly is not None:
            raise ValueError(f"--poly: the example {config.example} is the input; give one of --poly and --example")
        entry = catalog.get(config.example, k=config.example_k)
        if entry.kind == "map" and config.seed is not None:
            raise ValueError(f"--seed: the example {entry.identifier} has a fixed chart and takes no seed")
        if entry.kind != "map" and config.example_k is not None:
            raise ValueError(f"--k: the example {entry.identifier} is a polynomial of fixed degree")
        try:
            func, frame = entry.build(k=config.example_k)
        except DomainError as exc:  # only the map's value (1/4)^k at its slice origin, underflowing
            raise ValueError(f"--k: the value at the slice origin underflows to 0 at degree {config.example_k:g}") from exc
        if config.seed is not None:
            frame = make_chart(func, _checked_seed(func, config.seed))
        return func, frame, entry.identifier
    if config.example_k is not None:
        raise ValueError("--k: a --poly polynomial has the degree of its terms")
    if not config.poly:
        raise ValueError("either a polynomial or an example identifier is required")
    text = config.poly.strip()
    try:
        if text.startswith("{"):
            import json as _json

            poly = HomogeneousPolynomial.from_json(_json.loads(text))
        else:
            poly = HomogeneousPolynomial.parse(text)
    except ValueError as exc:
        raise ValueError(f"--poly: {exc}") from exc
    if poly.dimension < 2:
        raise ValueError(f"--poly: expected at least two variables, got {poly.dimension}")
    if config.seed is None:
        raise ValueError("a seed point is required for polynomial input")
    return poly, make_chart(poly, _checked_seed(poly, config.seed)), poly.serialize()


# -- analyze -------------------------------------------------------------------------


def _largest(values) -> float:
    """The running maximum from 0 of ``max(worst, v)`` over the values: nan skipped."""
    return float(np.fmax.reduce(values, initial=0.0))


def _cone_points(func, frame, rng, count: int):
    """The first ``count`` draws origin + 0.25 |origin| z (z standard normal)
    with h > 0, in draw order, and h there."""
    scale = np.linalg.norm(frame.origin)
    points, values, taken = [], [], 0
    while taken < count:
        x = frame.origin + 0.25 * rng.standard_normal((count - taken, frame.dimension)) * scale
        hx = func.derivative_rows(x, 0)
        keep = np.flatnonzero(hx > 0.0)
        points.append(x[keep])
        values.append(hx[keep])
        taken += len(keep)
    return np.concatenate(points), np.concatenate(values)


def _identity_block(func, frame, rng_seed: int) -> dict:
    x, hx = _cone_points(func, frame, np.random.default_rng(rng_seed), 200)
    k = func.degree
    grads, hessians = func.derivative_rows(x, 1), func.derivative_rows(x, 2)
    scale = 1.0 + np.abs(grads).max(axis=1) * (k - 1.0)
    radial, gradient = lorentz_identity_residual_rows(k, x, hx, grads, hessians)
    coords = frame.sample_coords(50, max_frac=0.85, seed=rng_seed)
    return {
        "euler_max_rel": _largest(np.abs(euler_residual_rows(k, x, hx, grads)) / (1.0 + np.abs(hx))),
        "position_identity_max_rel": _largest(position_identity_residual_rows(k, x, grads, hessians) / scale),
        "lorentz_radial_max_rel": _largest(radial / (1.0 + (k - 1.0) * np.abs(hx))),
        "lorentz_gradient_max_rel": _largest(gradient / scale),
        "metric_routes_max_rel": _largest(chart_metric_consistency_rows(frame, coords)),
        "cone_identity_max_abs": _largest(cone_identity_residual_rows(frame, frame.point(coords))),
        "points": len(x),
    }


def _structure_block(frame, rng_seed: int) -> dict:
    res = structure_residual_rows(frame, frame.sample_coords(5, max_frac=0.5, seed=rng_seed))
    return {
        "fund_equation_max_abs": _largest(res["fund_equation"]),
        "curvature_max_abs": _largest(res["curvature"]),
        "volume_parallel_max_abs": _largest(res["volume_parallel"]),
    }


def _classification(frame, config: RunConfig) -> dict:
    cls = classify(frame, sample_size=100, seed=config.rng_seed, tol=config.tol_def)
    return {"aggregate": cls.aggregate, "counts": cls.counts}


def cmd_analyze(config: RunConfig) -> tuple[dict, int]:
    if config.samples < 0:
        raise ValueError("--samples: expected non-negative integer")
    if config.rng_seed < 0:
        raise ValueError("--rng-seed: expected non-negative integer")
    if not (math.isfinite(config.tol_def) and config.tol_def > 0.0):
        raise ValueError(f"--tol-def: expected a finite positive number, got {config.tol_def}")
    if not (math.isfinite(config.tol_quad) and config.tol_quad >= 0.0):
        raise ValueError(f"--tol-quad: expected a finite non-negative number, got {config.tol_quad}")
    func, frame, source = build_frame(config)
    for eps in config.eps_grid or ():
        if not 0.0 < eps < func.degree:
            raise ValueError(f"--eps-grid: {eps} is not in (0, {func.degree})")
    report: dict = {
        "schema": SCHEMA_VERSION,
        "input": {
            "source": source,
            "degree": func.degree,
            "dimension": func.dimension,
            "origin": frame.origin.tolist(),
            "rng_seed": config.rng_seed,
            "samples": config.samples,
            "tol_def": config.tol_def,
            "tol_quad": config.tol_quad,
        },
    }

    def frame_blocks():  # the stages that read the frame alone, the trace aside
        classification = _classification(frame, config)
        blocks = {"identities": _identity_block(func, frame, config.rng_seed)}
        if isinstance(func, HomogeneousPolynomial) and func.degree == 3:
            blocks["structure"] = _structure_block(frame, config.rng_seed)
        return classification, blocks

    # One forked child runs beside the verdict: with --trace the trace
    # geodesic, the longest stage, which the witness search takes as its
    # first forward shot; otherwise the classification, identity and
    # structure blocks.  The first error in the serial order (classification,
    # verdict, identities, structure, trace) is the one raised.
    d, trace = frame.chart_dim, None
    if config.trace:
        trace = _forked(lambda: geodesic_shoot(frame, np.zeros(d), np.eye(d)[0], max_len=WITNESS_MAX_LEN))
    blocks = frame_blocks if trace else _forked(frame_blocks)
    child = trace or blocks
    try:
        try:
            verdict = completeness_verdict(frame, config.analysis_config(), trace)
        except Exception:
            _classification(frame, config)  # first in order, its error wins
            raise
        report["classification"], others = blocks()
        report["boundary"] = verdict.boundary.to_json()
        report["completeness"] = {
            "status": verdict.status,
            "route": verdict.route,
            "evidence": verdict.evidence,
            "notes": verdict.notes,
        }
        report.update(others)
        if trace:
            try:
                shot = trace()  # the witness search's first forward shot, if it took it
            except (DegenerateFrameError, DomainError) as exc:
                # the geodesic cannot start; the analysis itself stands
                report["trace_error"] = str(exc)
                print(f"warning: no trace written: {exc}", file=sys.stderr)
            else:
                with open(config.trace, "w") as fh:
                    fh.write(shot.to_csv())
                report["trace_file"] = config.trace
    finally:
        child(abandon=True)  # no child is left, on any path
    if config.plot:
        svg = render_plot(frame)
        with open(config.plot, "w") as fh:
            fh.write(svg)
        report["plot_file"] = config.plot
    exit_code = 2 if verdict.status == "inconclusive" else 0
    return report, exit_code


# -- repro ----------------------------------------------------------------------------


def cmd_repro() -> tuple[dict, int]:
    """Consolidated reference-number report: expected vs computed vs tolerance."""
    rows = []

    def check(name, computed, expected, tol):
        ok = abs(computed - expected) <= tol
        rows.append(
            {"name": name, "computed": computed, "expected": expected, "tol": tol, "pass": ok}
        )

    claims = catalog.quartic_claims()
    check("quartic.x0", claims["x0_solved"], claims["x0_closed"], 1e-12)
    check("quartic.x0_four_digits", claims["x0_closed"], 0.2958, 5e-5)
    check("quartic.Q_at_x0", claims["Q_at_x0"], 2.479, 5e-3)
    check("quartic.eta0_prime_at_x0", claims["eta0_prime_at_x0"], 0.1215, 5e-4)
    check("quartic.P0_at_x0", claims["P0_at_x0"], 0.0, 1e-9)
    check("quartic.ratio_1e-4_exceeds", claims["ratios"][1e-4], 0.75, 1.1e-3)
    for a, val in claims["P_min_on_grid"].items():
        rows.append(
            {"name": f"quartic.P_positive_a={a:g}", "computed": val, "expected": "positive", "tol": 0.0, "pass": val > 0.0}
        )

    func, frame = catalog.analytic_example(2.0)
    length = sum(curve_side(frame, sign)[0] for sign in (1.0, -1.0))
    check("analytic.total_length", length, math.sqrt(2.0) * math.pi, 1e-6)
    xs = np.linspace(0.1, 0.9, 9)
    g = chart_metric_rows(frame, (xs - 0.5)[:, None], "u_formula")[:, 0, 0]
    check("analytic.metric_coefficient", _largest(np.abs(g - 2.0 / (xs * (1.0 - xs)))), 0.0, 1e-10)

    euler_worst = 0.0
    intid_worst = 0.0
    rng = np.random.default_rng(7)
    for entry in catalog.catalog_cubics():
        poly, frm = entry.build()
        x = frm.origin + 0.2 * rng.standard_normal((200, frm.dimension))
        hx = poly.value_rows(x)
        grads, hessians = poly.derivative_rows(x, 1), poly.derivative_rows(x, 2)
        euler = np.abs(euler_residual_rows(poly.degree, x, hx, grads)) / (1.0 + np.abs(hx))
        euler_worst = max(euler_worst, _largest(euler))
        scale = 1.0 + np.abs(grads).max(axis=1) * 2.0
        position = position_identity_residual_rows(poly.degree, x, grads, hessians) / scale
        intid_worst = max(intid_worst, _largest(position))
        coords = frm.sample_coords(5, 0.5, seed=1)
        fund = _largest(structure_residual_rows(frm, coords, ("fund_equation",))["fund_equation"])
        rows.append(
            {"name": f"identities.fund_equation.{entry.identifier}", "computed": fund, "expected": 0.0, "tol": 1e-4, "pass": fund <= 1e-4}
        )
    check("identities.euler_max", euler_worst, 0.0, 1e-12)
    check("identities.position_identity_max", intid_worst, 0.0, 1e-10)

    ok = all(r["pass"] for r in rows)
    return {"schema": SCHEMA_VERSION, "rows": rows, "pass": ok}, 0 if ok else 1


# -- plotting ---------------------------------------------------------------------------


def render_plot(frame) -> str:
    """Static SVG of a planar curve: level set and cone boundary rays."""
    if frame.chart_dim != 1:
        raise ValueError("plotting is available for planar curves only (one chart dimension)")
    ends = boundary_scan(frame, directions=[[1.0], [-1.0]])
    t_plus, t_minus = (bp.ray_distance for bp in ends)
    margin, size = 1e-4, 640  # size in pixels
    ts = np.linspace(-t_minus * (1 - margin), t_plus * (1 - margin), 400)
    pts = frame.embed(ts[:, None])
    rays = [bp.point for bp in ends]
    allpts = np.vstack([pts, np.zeros((1, 2))] + [3.0 * r[None, :] for r in rays])
    lo = allpts.min(axis=0) - 0.3
    hi = allpts.max(axis=0) + 0.3
    span = float(max(hi - lo))

    def to_px(p):
        q = (p - lo) / span
        return q[0] * size, size - q[1] * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for r in rays:
        x0, y0 = to_px(np.zeros(2))
        x1, y1 = to_px(3.0 * r)
        parts.append(
            f'<line x1="{x0:.4f}" y1="{y0:.4f}" x2="{x1:.4f}" y2="{y1:.4f}" '
            'stroke="#888888" stroke-dasharray="6,4" stroke-width="1"/>'
        )
    path = " ".join(("M" if i == 0 else "L") + f"{x:.4f},{y:.4f}" for i, (x, y) in enumerate(map(to_px, pts)))
    parts.append(f'<path d="{path}" fill="none" stroke="#1a468c" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(config: RunConfig) -> tuple[str, int]:
    func, frame, _ = build_frame(config)
    return render_plot(frame), 0


# -- entry point ----------------------------------------------------------------------


def _numbers(text: str) -> tuple:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _add_input_flags(parser):
    """The flags of ``analyze`` and ``plot``; every flag is stored under its
    :class:`RunConfig` field, and every field defaults as RunConfig does."""
    parser.add_argument("--poly", help="polynomial expression or inline JSON")
    parser.add_argument("--example", help="catalog identifier (see `list`)")
    parser.add_argument("--k", dest="example_k", type=float, metavar="K", help="degree for parametric examples")
    parser.add_argument("--seed", type=_numbers, help="comma-separated seed point coordinates")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--plot", help="write an SVG plot to this path")
    parser.set_defaults(**{f.name: f.default for f in fields(RunConfig)})


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _join_dash_values(argv) -> list:
    """Rewrite ``--seed -1,1`` as ``--seed=-1,1`` (likewise ``--poly``):
    argparse takes a value that starts with '-' for an unknown option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--poly", "--seed") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="centroaffine",
        description="Analyze hyperbolic level-set hypersurfaces and certify completeness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_analyze = sub.add_parser("analyze", help="full analysis report (JSON)")
    _add_input_flags(p_analyze)
    p_analyze.add_argument("--tol-def", type=float)
    p_analyze.add_argument("--tol-quad", type=float)
    p_analyze.add_argument("--samples", type=int)
    p_analyze.add_argument("--eps-grid", type=_numbers, help="comma-separated concavity exponents")
    p_analyze.add_argument("--rng-seed", type=int)
    p_analyze.add_argument("--trace", help="write a geodesic trace CSV to this path")
    p_repro = sub.add_parser("repro", help="reproduce the reference numbers")
    p_repro.add_argument("--out")
    p_plot = sub.add_parser("plot", help="SVG plot of a planar curve")
    _add_input_flags(p_plot)
    p_list = sub.add_parser("list", help="list catalog entries")
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, the code of an inconclusive verdict
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "analyze":
            report, code = cmd_analyze(_config_from_args(args))
            _emit(dumps(report) + "\n", args.out)
            return code
        if args.command == "repro":
            report, code = cmd_repro()
            for row in report["rows"]:
                status = "pass" if row["pass"] else "FAIL"
                expected = row["expected"]
                expected_txt = expected if isinstance(expected, str) else format(expected, ".12g")
                print(f"[{status}] {row['name']}: computed {row['computed']:.12g} expected {expected_txt} tol {row['tol']:g}")
            _emit(dumps(report) + "\n", args.out)
            return code
        if args.command == "plot":
            svg, code = cmd_plot(_config_from_args(args))
            _emit(svg, args.plot or args.out)
            return code
        if args.command == "list":
            for entry in catalog.entries():
                print(f"{entry.identifier}: {entry.title}")
            return 0
    except (ParseError, MixedDegreeError, DomainError, ValueError, KeyError, UnboundedRayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
