"""Workloads of the benchmark: seeded inputs, expected outcomes, and the gate.

Each workload is a fixed list of `centroaffine analyze` (or `repro`) calls
per pass, generated from the workload seed alone.  The seed also becomes the
`--rng-seed` of every analysis, so one seed fixes every byte the program
writes.  A pass starts with one of its cheaper inputs, because a traced run
also runs the first input untraced as its overhead reference.  `WHY` records
the reason each workload exists; BENCHMARK.json carries the same text.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# One line per workload, repeated in BENCHMARK.json; each builder below says more.
WHY = {
    "certify": "every certificate route on 2-4 variables under random linear maps; "
    "boundary scans, ray solves, line restrictions and concavity dominate; no geodesic",
    "geodesic": "finite-length witness on the analytic curve, geodesics on 2-D and 3-D charts "
    "and the exit-2 path; Christoffel evaluations, shooting and quadrature dominate",
}

# (expression, seed point, status, route) of the seven fixture polynomials.
FIXTURES = (
    ("x^3 - x*y^2", (1.0, 0.0), "complete", "cubic-criterion"),
    ("x^2*y", (1.0, 1.0), "complete", "cubic-criterion"),
    ("x*y*z", (1.0, 1.0, 1.0), "complete", "cubic-criterion"),
    ("x^3*y", (1.0, 1.0), "complete", "n1-monomial"),
    ("x^2*y^2", (1.0, 1.0), "complete", "n1-monomial"),
    ("x*y*z*w", (1.0, 1.0, 1.0, 1.0), "numerically-certified", "concavity(0.5)"),
    ("x^2*y*z", (1.0, 1.0, 1.0), "numerically-certified", "concavity(0.5)"),
)

WITNESS_LENGTH = math.sqrt(2.0) * math.pi
WITNESS_TOL = 1e-5

# Report identity bounds of the acceptance suite: (block, key, bound).
IDENTITY_BOUNDS = (
    ("identities", "euler_max_rel", 1e-12),
    ("identities", "position_identity_max_rel", 1e-10),
    ("identities", "metric_routes_max_rel", 1e-8),
    ("identities", "lorentz_radial_max_rel", 1e-10),
    ("identities", "lorentz_gradient_max_rel", 1e-10),
    ("identities", "cone_identity_max_abs", 1e-6),
    ("structure", "fund_equation_max_abs", 1e-4),
)


@dataclass(frozen=True)
class Case:
    """One operation of a pass and what its output must be."""

    label: str
    argv: tuple  # CLI arguments after the command name, without --out/--trace
    command: str = "analyze"
    exit_code: int = 0
    status: str | None = None
    route: str | None = None
    witness_length: float | None = None
    trace: bool = False


def rng_seed_of(seed: int) -> int:
    """The workload seed as a valid `--rng-seed` (a non-negative 31-bit int)."""
    return seed % (2**31)


def _seed_arg(point) -> str:
    # `--seed=...` keeps a leading minus sign from being read as an option
    return "--seed=" + ",".join(repr(float(v)) for v in point)


def _poly_arg(poly) -> str:
    return json.dumps(poly.to_json(), separators=(",", ":"))


def random_linear_map(rng, dim: int) -> np.ndarray:
    """Orthogonal times diag(s), s uniform in [0.7, 1.4]: well conditioned."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    return q @ np.diag(rng.uniform(0.7, 1.4, dim))


def transformed_fixture(rng, expr: str, point):
    """q(y) = p(A y) with the seed transported to y0 = A^-1 x0."""
    from centroaffine import HomogeneousPolynomial

    poly = HomogeneousPolynomial.parse(expr)
    a = random_linear_map(rng, poly.dimension)
    return poly.compose_linear(a), np.linalg.solve(a, np.asarray(point, dtype=float))


def _cubic_exponents(dim: int):
    exps = set()
    for combo in itertools.combinations_with_replacement(range(dim), 3):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        exps.add(tuple(e))
    return sorted(exps, reverse=True)


def random_hyperbolic_cubic(rng, dim: int, max_attempts: int = 200):
    """Random cubic perturbation of x0^3 - x0 (x1^2 + ... ) with a seed point
    near e0 that is verified hyperbolic (same recipe as the test fixtures)."""
    from centroaffine import HomogeneousPolynomial, classify, make_chart
    from centroaffine.errors import DegenerateFrameError, DomainError

    for _ in range(max_attempts):
        terms = {}
        e0 = [0] * dim
        e0[0] = 3
        terms[tuple(e0)] = 1.0
        for i in range(1, dim):
            e = [0] * dim
            e[0] = 1
            e[i] = 2
            terms[tuple(e)] = -1.0
        for e in _cubic_exponents(dim):
            terms[e] = terms.get(e, 0.0) + 0.15 * rng.uniform(-1.0, 1.0)
        poly = HomogeneousPolynomial(terms)
        point = np.zeros(dim)
        point[0] = 1.0
        point += 0.02 * rng.standard_normal(dim)
        if poly(point) <= 0.1:
            continue
        try:
            frame = make_chart(poly, point)
        except (DegenerateFrameError, DomainError):
            continue
        if classify(frame, sample_size=12, seed=3).aggregate == "hyperbolic":
            return poly, point
    raise RuntimeError(f"no hyperbolic cubic in {dim} variables after {max_attempts} attempts")


def certify_cases(seed: int) -> list[Case]:
    """The seven fixtures, each under a random linear change of variables, one
    random hyperbolic cubic in each of 2, 3 and 4 variables, and `repro`.

    Why: every certificate route (segment test, monomial faces, concavity) on
    regular and non-regular boundaries in 2-4 variables.  Boundary scans, ray
    solves, line restrictions and concavity dominate.  No geodesic is
    integrated, so a geodesic change must leave this workload unmoved.
    """
    rng = np.random.default_rng([seed % 2**64, 1])
    rs = ("--rng-seed", str(rng_seed_of(seed)))
    cases = []
    for expr, point, status, route in FIXTURES:
        poly, y0 = transformed_fixture(rng, expr, point)
        cases.append(
            Case(
                f"T:{expr.replace(' ', '')}",
                ("--poly", _poly_arg(poly), _seed_arg(y0), *rs),
                status=status,
                route=route,
            )
        )
    for dim in (2, 3, 4):
        poly, y0 = random_hyperbolic_cubic(rng, dim)
        cases.append(
            Case(
                f"cubic{dim}",
                ("--poly", _poly_arg(poly), _seed_arg(y0), *rs),
                status="complete",
                route="cubic-criterion",
            )
        )
    cases.append(Case("repro", (), command="repro"))
    return cases


def geodesic_cases(seed: int) -> list[Case]:
    """Geodesics on the 1-D analytic curve, whose finite length sqrt(2) pi
    witnesses incompleteness; on x^2 y z with a concavity grid that fails,
    so the witness search runs and ends inconclusive (exit 2); and on two
    certified inputs with geodesic traces.

    Why: geodesic shooting on 1-D, 2-D and 3-D charts, where Christoffel
    evaluation dominates, plus quadrature and bisection ray solves on a
    non-polynomial map.  Batched jets, an adaptive integrator and quadrature
    in place of shooting on curves show here, and not in `certify`.  The
    only workload on the exit-2 path.  The pass starts with its cheapest
    input, the overhead reference of a traced run.
    """
    rs = ("--rng-seed", str(rng_seed_of(seed)))
    return [
        Case(
            "x*y*z*w+trace",
            ("--poly", "x*y*z*w", "--seed=1,1,1,1", *rs),
            status="numerically-certified",
            route="concavity(0.5)",
            trace=True,
        ),
        Case(
            "analytic-k2",
            ("--example", "analytic", "--k", "2", *rs),
            status="incomplete",
            route="finite-length-witness",
            witness_length=WITNESS_LENGTH,
        ),
        Case(
            "triple-product+trace",
            ("--example", "triple-product", *rs),
            status="complete",
            route="cubic-criterion",
            trace=True,
        ),
        Case(
            "x^2*y*z-eps3.9",
            ("--poly", "x^2*y*z", "--seed=1,1,1", "--eps-grid", "3.9", *rs),
            exit_code=2,
            status="inconclusive",
            route="none",
        ),
    ]


BUILDERS = {
    "certify": certify_cases,
    "geodesic": geodesic_cases,
}


def gate(case: Case, exit_code: int, report: dict) -> list[str]:
    """Every way the output of one operation misses its expectation."""
    problems = []
    if exit_code != case.exit_code:
        problems.append(f"exit code {exit_code}, expected {case.exit_code}")
    if case.command == "repro":
        if report.get("pass") is not True:
            failed = [r["name"] for r in report.get("rows", []) if not r.get("pass")]
            problems.append(f"repro rows failed: {failed}")
        return problems
    verdict = report.get("completeness", {})
    if verdict.get("status") != case.status or verdict.get("route") != case.route:
        problems.append(
            f"verdict {verdict.get('status')}/{verdict.get('route')}, expected {case.status}/{case.route}"
        )
    if case.witness_length is not None:
        length = verdict.get("evidence", {}).get("witness_length")
        if not isinstance(length, float) or abs(length - case.witness_length) > WITNESS_TOL:
            problems.append(f"witness_length {length}, expected {case.witness_length} +- {WITNESS_TOL:g}")
    for block, key, bound in IDENTITY_BOUNDS:
        if block == "structure" and block not in report:
            continue  # the structure block is written for cubic polynomials only
        value = report.get(block, {}).get(key)
        if not isinstance(value, (int, float)) or not value <= bound:
            problems.append(f"{block}.{key} = {value}, bound {bound:g}")
    return problems
