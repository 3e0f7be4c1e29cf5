"""Per-layer tracing from outside the library, and the statistics rules.

`install` wraps the public functions of each `centroaffine` module under
every module-level name (and class attribute) the library binds them to, so
no call escapes the wrapper.  Each wrapped call is a span; a span's self time
is its duration minus the durations of the spans it directly encloses.  A
call of a function from inside its own span (recursion, as in `cli.dumps`)
is folded into the outer span.  Spans are aggregated as they close rather
than stored, since a pass makes hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path).  An attribute path with a dot names a
# method on a class of that module.  Several paths may share one span name.
TARGETS = (
    ("homogeneous.value", "homogeneous", "HomogeneousPolynomial.__call__"),
    ("homogeneous.gradient", "homogeneous", "HomogeneousPolynomial.gradient"),
    ("homogeneous.hessian", "homogeneous", "HomogeneousPolynomial.hessian"),
    ("homogeneous.third_tensor", "homogeneous", "HomogeneousPolynomial.third_tensor"),
    ("homogeneous.map_jet", "homogeneous", "SmoothHomogeneousMap.__call__"),
    ("homogeneous.map_jet", "homogeneous", "SmoothHomogeneousMap.gradient"),
    ("homogeneous.map_jet", "homogeneous", "SmoothHomogeneousMap.hessian"),
    ("homogeneous.map_jet", "homogeneous", "SmoothHomogeneousMap.third_tensor"),
    ("homogeneous.restrict_to_line", "homogeneous", "restrict_to_line"),
    ("homogeneous.univariate_zeros", "homogeneous", "univariate_zeros"),
    ("forms.SymmetricForm.signature", "forms", "SymmetricForm.signature"),
    ("forms.SymmetricForm.is_definite", "forms", "SymmetricForm.is_definite"),
    ("forms.SymmetricForm.psd_with_kernel_dim", "forms", "SymmetricForm.psd_with_kernel_dim"),
    ("chart.boundary_distance", "chart", "ChartFrame.boundary_distance"),
    ("chart.sample_coords", "chart", "ChartFrame.sample_coords"),
    ("chart.chart_metric", "chart", "chart_metric"),
    ("chart.levi_civita_gamma", "chart", "levi_civita_gamma"),
    ("chart.classify", "chart", "classify"),
    ("structure.fund_equation_residual", "structure", "fund_equation_residual"),
    ("structure.curvature_residual", "structure", "curvature_residual"),
    ("structure.volume_parallel_residual", "structure", "volume_parallel_residual"),
    ("boundary.boundary_scan", "boundary", "boundary_scan"),
    ("boundary.regularity_report", "boundary", "regularity_report"),
    ("completeness.completeness_verdict", "completeness", "completeness_verdict"),
    ("completeness.cubic_segment_test", "completeness", "cubic_segment_test"),
    ("completeness.concavity_test", "completeness", "concavity_test"),
    ("completeness.n1_monomial_test", "completeness", "n1_monomial_test"),
    ("completeness.geodesic_shoot", "completeness", "geodesic_shoot"),
    ("completeness.curve_length_with_error", "completeness", "curve_length_with_error"),
    ("sampling.unit_directions", "sampling", "unit_directions"),
    ("cli.cmd_analyze", "cli", "cmd_analyze"),
    ("cli.cmd_repro", "cli", "cmd_repro"),
    ("cli.build_frame", "cli", "build_frame"),
    ("cli._identity_block", "cli", "_identity_block"),
    ("cli._structure_block", "cli", "_structure_block"),
    ("cli.dumps", "cli", "dumps"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Modules whose first-import time `python -X importtime` reports.
IMPORT_MODULES = (
    "centroaffine",
    "centroaffine.errors",
    "centroaffine.forms",
    "centroaffine.homogeneous",
    "centroaffine.sampling",
    "centroaffine.chart",
    "centroaffine.boundary",
    "centroaffine.structure",
    "centroaffine.completeness",
    "centroaffine.catalog",
    "centroaffine.cli",
    "scipy.stats",
    "scipy.integrate",
)

# (name, unit, better) of every derived per-layer metric.
DERIVED = (
    ("chart.boundary_distance.distinct_share", "ratio", "higher"),
    ("completeness.gamma_per_shot", "count", "lower"),
    ("completeness.integrand_per_quad", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs.extend(DERIVED)
    specs.extend((f"setup.import.{m}_s", "s", "lower") for m in IMPORT_MODULES)
    return specs


class Recorder:
    """Span stack with per-name aggregates: calls and self time, the
    calls made directly under each parent, and distinct ray keys."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.ray_keys: set = set()
        self._held: dict = {}  # keeps keyed frames alive so their ids stay unique

    def enter(self, name: str) -> bool:
        """Open a span; False (and nothing opened) when re-entering `name`."""
        if self.stack and self.stack[-1][0] == name:
            return False
        self.stack.append([name, self.clock(), 0.0])
        return True

    def exit(self) -> None:
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_time[name] += duration - children
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            self.edges[(parent[0], name)] += 1

    def ray(self, frame, coords, direction) -> None:
        self._held[id(frame)] = frame
        self.ray_keys.add((id(frame), _key(coords), _key(direction)))

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_time[name]
        rays = self.calls["chart.boundary_distance"]
        out["chart.boundary_distance.distinct_share"] = len(self.ray_keys) / rays if rays else 0.0
        shots = self.calls["completeness.geodesic_shoot"]
        gammas = self.edges[("completeness.geodesic_shoot", "chart.levi_civita_gamma")]
        out["completeness.gamma_per_shot"] = gammas / shots if shots else 0.0
        quads = self.calls["completeness.curve_length_with_error"]
        integrands = self.edges[("completeness.curve_length_with_error", "chart.chart_metric")]
        out["completeness.integrand_per_quad"] = integrands / quads if quads else 0.0
        return out


def _key(values) -> tuple:
    try:
        return tuple(float(v) for v in values)
    except TypeError:
        return (float(values),)


def _ray_args(frame, coords, direction, *_, **__):
    return frame, coords, direction


def _wrap(fn, name: str, recorder: Recorder):
    is_ray = name == "chart.boundary_distance"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enter(name):
            return fn(*args, **kwargs)
        try:
            if is_ray:
                recorder.ray(*_ray_args(*args, **kwargs))
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    return wrapper


def _library_modules() -> list:
    return [
        m
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == "centroaffine" or n.startswith("centroaffine."))
    ]


def install(recorder: Recorder):
    """Wrap every target; return a function that restores the originals."""
    undo = []
    targets = [(name, importlib.import_module(f"centroaffine.{m}"), path) for name, m, path in TARGETS]
    modules = _library_modules()
    for name, mod, path in targets:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(original, name, recorder))
            undo.append((cls, attr, original))
            continue
        original = getattr(mod, path)
        wrapper = _wrap(original, name, recorder)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def unwrapped_bindings() -> list[str]:
    """Module-level names and class attributes still bound to an original
    target function; empty while the wrappers are installed."""
    originals = {}
    for name, module, path in TARGETS:
        obj = importlib.import_module(f"centroaffine.{module}")
        for part in path.split("."):
            obj = getattr(obj, part)
        original = getattr(obj, "__wrapped__", None)
        if original is not None:
            originals[id(original)] = name
    leaks = []
    for m in _library_modules():
        for attr, value in vars(m).items():
            if id(value) in originals:
                leaks.append(f"{m.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if id(cvalue) in originals:
                        leaks.append(f"{m.__name__}.{attr}.{cattr}")
    return leaks


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds per module of IMPORT_MODULES from `-X importtime` output.

    A module's time is the cumulative time on its own line.  A package that
    never gets a line of its own (scipy.integrate, which scipy.stats pulls in
    submodule by submodule) gets the summed self time of its submodules.  A
    module that was not imported reads 0.
    """
    self_us, cumulative_us = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        name = parts[2].strip()
        self_us[name] = int(parts[0])
        cumulative_us[name] = int(parts[1])
    out = {}
    for module in IMPORT_MODULES:
        if module in cumulative_us:
            out[module] = cumulative_us[module] / 1e6
        else:
            prefix = module + "."
            out[module] = sum(us for n, us in self_us.items() if n.startswith(prefix)) / 1e6
    return out


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it: the (n-10)-th smallest of n samples, at 100 (n-10)/n.  With ten
    samples or fewer no such percentile exists and the maximum is returned as
    percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def weighted_median(pairs) -> float:
    """Median of (value, weight) pairs; with equal weights, statistics.median."""
    xs = sorted(pairs)
    if not xs:
        raise ValueError("no samples")
    half = 0.5 * sum(w for _, w in xs)
    cumulative = 0.0
    for i, (value, weight) in enumerate(xs):
        cumulative += weight
        if math.isclose(cumulative, half, rel_tol=1e-12) and i + 1 < len(xs):
            return 0.5 * (value + xs[i + 1][0])
        if cumulative > half:
            return value
    return xs[-1][0]


def mix_statistics(samples) -> dict:
    """End-to-end statistics of a run whose last pass may stop part-way.

    `samples` holds (input index, seconds, is analysis, passed its gate) per
    operation.  Every input of the pass weighs the same, however often it
    ran, so the statistics describe one pass whatever the run's length:

    - `analyses_per_s`: the share of runs that passed, summed over the
      analysis inputs, over the mean seconds summed over all inputs;
    - `p50`: the median of the analysis times, a time weighing 1/(runs of
      its input);
    - `tail`, `tail_pct`: the value of `tail_percentile` over the analysis
      times (ten samples beyond it), and its percentile in those weights.
    """
    by_input = defaultdict(list)
    for index, seconds, analysis, passed in samples:
        by_input[index].append((seconds, analysis, passed))
    pass_seconds = sum(statistics.fmean(s for s, _, _ in runs) for runs in by_input.values())
    passes = sum(
        sum(1 for _, _, ok in runs if ok) / len(runs) for runs in by_input.values() if runs[0][1]
    )
    weighted = sorted(
        (s, 1.0 / len(runs)) for runs in by_input.values() for s, analysis, _ in runs if analysis
    )
    _, tail = tail_percentile(s for s, _ in weighted)
    n = len(weighted)
    below = weighted if n <= 10 else weighted[: n - 10]
    return {
        "analyses_per_s": passes / pass_seconds,
        "p50": weighted_median(weighted),
        "tail": tail,
        "tail_pct": 100.0 * sum(w for _, w in below) / sum(w for _, w in weighted),
        "samples": n,
    }
