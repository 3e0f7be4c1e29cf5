"""Built-in example surfaces and counterexamples with their expected verdicts.

Every expectation recorded here is reproduced by the generic pipeline; the
catalog holds no shortcuts, only definitions, seeds and reference numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chart import ChartFrame, make_chart, slice_chart
from .homogeneous import HomogeneousPolynomial, SmoothHomogeneousMap, univariate_zeros

Polynomial = np.polynomial.Polynomial


# -- closed-form map: (x y / (x + y))^k on the open quadrant ---------------------


def analytic_map(k: float) -> SmoothHomogeneousMap:
    """The quotient-power map (x y / (x + y))^k, homogeneous of (possibly
    non-integer) degree k: q = P / Q with P = x^2 y + x y^2 and Q = (x + y)^2,
    since a polynomial has degree at least 2."""
    numerator = HomogeneousPolynomial.parse("x^2*y + x*y^2")
    denominator = HomogeneousPolynomial.parse("x^2 + 2*x*y + y^2")
    return SmoothHomogeneousMap(numerator, denominator, k, name="quotient-power")


def analytic_example(k: float = 2.0) -> tuple[SmoothHomogeneousMap, ChartFrame]:
    """The quotient-power map with its natural chart on the slice x + y = 1.

    The chart coordinate c corresponds to x = 1/2 + c, so the k-th root of
    the slice restriction is x (1 - x) and the metric coefficient is
    2 / (x (1 - x)).
    """
    func = analytic_map(k)
    frame = slice_chart(func, origin=np.array([0.5, 0.5]), basis=np.array([[1.0, -1.0]]))
    return func, frame


# -- quartic obstruction family ---------------------------------------------------


def quartic_eta(a: float) -> Polynomial:
    """x (1 - x) ((x - 3/20)^2 + 51/400 + a), expanded exactly."""
    if a < 0.0:
        raise ValueError(f"parameter must be nonnegative, got {a}")
    return (
        Polynomial([0.0, 1.0])
        * Polynomial([1.0, -1.0])
        * (Polynomial([-3.0 / 20.0, 1.0]) ** 2 + Polynomial([51.0 / 400.0 + a]))
    )


def quartic_P(a: float) -> Polynomial:
    """(3/4) eta' ^2 - eta eta'' for the quartic family member."""
    eta = quartic_eta(a)
    d1 = eta.deriv()
    return 0.75 * d1 * d1 - eta * eta.deriv(2)


QUARTIC_Q = Polynomial([9.0, -24.0, -42.0, 188.0, -80.0])


def quartic_x0() -> tuple[float, float]:
    """Root of 14 x^2 + 6 x - 3 in [0, 1]: closed form and solver value."""
    closed = (-3.0 + math.sqrt(51.0)) / 14.0
    zeros = univariate_zeros([-3.0, 6.0, 14.0])
    solved = float(zeros[(zeros >= 0.0) & (zeros <= 1.0)][0])
    return closed, solved


def quartic_ratio(a: float) -> float:
    """eta eta'' / eta'^2 at the critical abscissa; tends to 3/4 as a -> 0."""
    eta = quartic_eta(a)
    x0, _ = quartic_x0()
    return float(eta(x0) * eta.deriv(2)(x0) / eta.deriv()(x0) ** 2)


def quartic_claims() -> dict:
    """Quantitative facts of the quartic obstruction family, computed fresh."""
    x0_closed, x0_solved = quartic_x0()
    eta0 = quartic_eta(0.0)
    p0 = quartic_P(0.0)
    grid = np.linspace(0.0, 1.0, 10_000)
    claims = {
        "x0_closed": x0_closed,
        "x0_solved": x0_solved,
        "P0_at_x0": float(p0(x0_closed)),
        "Q_at_x0": float(QUARTIC_Q(x0_closed)),
        "eta0_prime_at_x0": float(eta0.deriv()(x0_closed)),
        "ratios": {a: quartic_ratio(a) for a in (1e-2, 1e-3, 1e-4)},
        "P_min_on_grid": {a: float(quartic_P(a)(grid).min()) for a in (1e-2, 1e-3, 1e-4)},
    }
    return claims


# -- catalog entries ----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    identifier: str
    title: str
    kind: str  # "polynomial" | "map"
    source: str
    seed: tuple
    expected: dict = field(default_factory=dict)
    parameter: float | None = None

    def build(self, k: float | None = None):
        """Instantiate (function, frame) for this entry."""
        if self.kind == "map":
            return analytic_example(k if k is not None else (self.parameter or 2.0))
        poly = HomogeneousPolynomial.parse(self.source)
        return poly, make_chart(poly, np.array(self.seed, dtype=float))


def cubic_curves() -> list[CatalogEntry]:
    """The two planar cubic curves with opposite boundary regularity."""
    return [
        CatalogEntry(
            identifier="curve-regular",
            title="x (x^2 - y^2) = 1, x > 0",
            kind="polynomial",
            source="x^3 - x*y^2",
            seed=(1.0, 0.0),
            expected={
                "classification": "hyperbolic",
                "regular": True,
                "status": "complete",
                "route": "cubic-criterion",
            },
        ),
        CatalogEntry(
            identifier="curve-nonregular",
            title="x^2 y = 1, x > 0",
            kind="polynomial",
            source="x^2*y",
            seed=(1.0, 1.0),
            expected={
                "classification": "hyperbolic",
                "regular": False,
                "status": "complete",
                "route": "cubic-criterion",
            },
        ),
    ]


def catalog_cubics() -> list[CatalogEntry]:
    """Three cubic fixtures: the planar pair plus a three-variable product cone."""
    return cubic_curves() + [
        CatalogEntry(
            identifier="triple-product",
            title="x y z = 1, x, y, z > 0",
            kind="polynomial",
            source="x*y*z",
            seed=(1.0, 1.0, 1.0),
            expected={
                "classification": "hyperbolic",
                "regular": False,
                "status": "complete",
                "route": "cubic-criterion",
            },
        )
    ]


def nonclosed_example() -> CatalogEntry:
    """A locally strictly convex cubic piece that is not closed: the positivity
    region {x^3 + y^3 > 0} is a half-plane, so slice rays escape to infinity."""
    return CatalogEntry(
        identifier="nonclosed-piece",
        title="x^3 + y^3 = 1 near (2^(1/3), -1)",
        kind="polynomial",
        source="x^3 + y^3",
        seed=(2.0 ** (1.0 / 3.0), -1.0),
        expected={"closedness_failure": True},
    )


def analytic_entry(k: float = 2.0) -> CatalogEntry:
    return CatalogEntry(
        identifier="analytic",
        title="(x y / (x + y))^k = 1 on the quadrant",
        kind="map",
        source="(x*y/(x+y))^k",
        seed=(2.0, 2.0),
        parameter=k,
        expected={
            "classification": "hyperbolic",
            "regular": False,
            "status": "incomplete",
            "route": "finite-length-witness",
            "witness_length": math.sqrt(2.0) * math.pi,
        },
    )


def entries() -> list[CatalogEntry]:
    return catalog_cubics() + [analytic_entry(), nonclosed_example()]


def get(identifier: str, k: float | None = None) -> CatalogEntry:
    if identifier == "analytic" and k is not None:
        return analytic_entry(k)
    for entry in entries():
        if entry.identifier == identifier:
            return entry
    raise KeyError(f"no catalog entry named {identifier!r}")
