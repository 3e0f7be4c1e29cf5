"""Benchmark of `centroaffine analyze` runs, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client drives the public entry point `centroaffine.cli.main` in process,
in a closed loop: each call starts when the previous one has returned and its
output has been checked.  The inputs of a workload (see bench_workloads.py)
come from `--seed` alone.  A run makes one whole pass over them, then keeps
cycling through them while the next operation, timed by its previous run,
still ends within `--seconds`.  The end-to-end metrics weight every input
of the pass equally, however often it ran.  It checks every report
against its expected verdict and identity bounds, and checks that every
input repeated within the run produced byte-identical output files.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs two passes with
every library layer wrapped (bench_trace.py) and prints the per-layer
metrics of a traced pass.  It fails the run if the two traced passes
disagree on any call count.  The tracing overhead compares the first
operation of the second traced pass with the same operation run untraced
after both passes.  Either way the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; human-readable lines come before it.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported; the
# set-up subprocesses inherit the same environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60
# (name, unit, better) of every end-to-end metric, in output order.
END_TO_END = (
    ("analyses_per_s", "1/s", "higher"),
    ("analyze_s.p50", "s", "lower"),
    ("analyze_s.tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import centroaffine.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(centroaffine.cli.__file__)\n"
)


@dataclass
class Op:
    index: int  # position of the input in the pass
    label: str
    analysis: bool
    seconds: float
    problems: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_child(extra_flags=()) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *extra_flags, "-c", IMPORT_CODE],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-interpreter import failed:\n{proc.stderr}")
    lines = proc.stdout.split()
    if Path(lines[1]).resolve().parent.parent != SRC:
        raise RuntimeError(f"fresh interpreter imported {lines[1]}, not the checkout's src/")
    return proc


def measure_setup() -> float:
    """Seconds a fresh interpreter spends on `import centroaffine.cli`."""
    return float(_import_child().stdout.split()[0])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_case(cli, case, index: int, work: Path, seen: dict) -> Op:
    """Run one operation, gate its output, and compare it with earlier repeats."""
    out = work / f"{index}.json"
    csv = work / f"{index}.csv"
    argv = [case.command, *case.argv, "--out", str(out)]
    if case.trace:
        argv += ["--trace", str(csv)]
    for stale in (out, csv):
        stale.unlink(missing_ok=True)
    op = Op(index, case.label, case.command == "analyze", 0.0)
    gc.collect()  # start each operation on a clean heap, as a fresh CLI process would
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, never a crash
        op.seconds = time.perf_counter() - start
        op.problems.append(f"exception {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return op
    op.seconds = time.perf_counter() - start
    try:
        output = out.read_bytes()
        report = json.loads(output)
    except (OSError, ValueError) as exc:
        op.problems.append(f"unreadable report: {exc}")
        return op
    op.problems.extend(bench_workloads.gate(case, code, report))
    if case.trace:
        try:
            output += b"\0" + csv.read_bytes()
        except OSError as exc:
            op.problems.append(f"missing trace CSV: {exc}")
    if seen.setdefault(index, output) != output:
        op.problems.append("output differs from an earlier repeat of the same input")
    return op


def run_pass(cli, cases, work: Path, seen: dict) -> tuple[list[Op], float]:
    start = time.perf_counter()
    ops = [run_case(cli, case, i, work, seen) for i, case in enumerate(cases)]
    return ops, time.perf_counter() - start


def untraced_run(cli, cases, work: Path, seconds: float):
    """Operations and set-up imports within `seconds`; the imports are spread
    evenly over the window, so their median sees the same machine as the
    operations do."""
    setup: list[float] = []
    seen: dict = {}
    ops: list[Op] = []
    latest: dict = {}  # input index -> seconds of its latest run
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup())
            continue
        index = len(ops) % len(cases)
        if len(ops) >= len(cases) and elapsed + latest[index] > seconds:
            break  # the next operation would end past the measured window
        op = run_case(cli, cases[index], index, work, seen)
        ops.append(op)
        latest[index] = op.seconds
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    wall = time.perf_counter() - start
    stats = bench_trace.mix_statistics(
        [(op.index, op.seconds, op.analysis, not op.problems) for op in ops]
    )
    values = {
        "analyses_per_s": stats["analyses_per_s"],
        "analyze_s.p50": stats["p50"],
        "analyze_s.tail": stats["tail"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    n = stats["samples"]
    notes = [
        f"operations {len(ops)} ({len(ops) / len(cases):.2f} passes), wall {wall:.3f} s",
        f"analyze_s.tail is p{stats['tail_pct']:.1f} of n={n} analyses"
        + (" (10 or fewer samples: the maximum)" if n <= 10 else ""),
        "setup_s samples " + " ".join(f"{s:.4f}" for s in setup),
    ]
    repro = [op.seconds for op in ops if not op.analysis]
    if repro:
        notes.append(f"repro_s {statistics.median(repro):.6f} s (median of {len(repro)})")
    return ops, metrics, notes, []


def traced_run(cli, cases, work: Path):
    proc = _import_child(("-X", "importtime"))
    imports = bench_trace.parse_importtime(proc.stderr)
    seen: dict = {}
    ops, recorders, problems = [], [], []
    traced_reference = []
    for _ in range(2):
        recorder = bench_trace.Recorder()
        uninstall = bench_trace.install(recorder)
        try:
            leaks = bench_trace.unwrapped_bindings()
            if leaks:
                problems.append(f"calls escape the wrappers through {leaks}")
            pass_ops, _ = run_pass(cli, cases, work, seen)
        finally:
            uninstall()
        ops.extend(pass_ops)
        recorders.append(recorder)
        traced_reference.append(pass_ops[0].seconds)
    # the untraced reference runs last, so that neither it nor the second
    # traced pass it is compared with pays the process's first-call costs
    reference = run_case(cli, cases[0], 0, work, seen)
    ops.append(reference)
    first, second = recorders
    if first.calls != second.calls:
        diff = sorted(n for n in set(first.calls) | set(second.calls) if first.calls[n] != second.calls[n])
        problems.append(f"call counts differ between the two traced passes: {diff}")
    layers = first.per_layer()
    for name in bench_trace.SPAN_NAMES:
        layers[f"{name}.self_s"] = 0.5 * (first.self_time[name] + second.self_time[name])
    layers["trace.overhead_share"] = 1.0 - reference.seconds / traced_reference[1]
    for module, seconds in imports.items():
        layers[f"setup.import.{module}_s"] = seconds
    metrics = {
        name: (layers[name], unit) for name, unit, _ in bench_trace.per_layer_metric_specs()
    }
    notes = [
        f"{cases[0].label} untraced {reference.seconds:.3f} s, traced "
        + " ".join(f"{t:.3f}" for t in traced_reference)
        + " s; per-layer values are per traced pass"
    ]
    return ops, metrics, notes, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "centroaffine" / "cli.py").is_file():
        print(f"error: no centroaffine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from centroaffine import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported {cli.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    cases = bench_workloads.BUILDERS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            ops, metrics, notes, problems = traced_run(cli, cases, work)
        else:
            ops, metrics, notes, problems = untraced_run(cli, cases, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    failed = [op for op in ops if op.problems]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for op in ops:
        print(f"op {op.label} {op.seconds:.4f} s {'FAILED' if op.problems else 'ok'}")
    for note in notes + problems:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"ops_failed_share {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)} operations)")
    for op in failed:
        print(f"FAILED {op.label}: {'; '.join(op.problems)}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
