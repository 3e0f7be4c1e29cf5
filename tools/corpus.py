"""Write the outputs of a fixed set of CLI runs, or compare two such sets.

    python tools/corpus.py DIR          # write the corpus into DIR (new or empty)
    python tools/corpus.py --diff A B   # list the files that differ; exit 1 if any

The corpus is every input of both benchmark workloads at seeds 1 and 2 (read
from perfbench/bench_workloads.py), `repro`, `list`, seven `analyze` inputs
each with and without `--trace`, and `plot --out` of three curves.  Each run
calls `centroaffine.cli.main` in process, from the `src/` beside this
script, and leaves in DIR its report, trace CSV or SVG (as the run writes
them), its standard output and error, and its exit code.  Paths passed to a
run are relative to DIR, so two corpora written into different directories
compare byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# analyze inputs beside the workloads: (label, argv)
ANALYZE = (
    ("analytic-k1.5", ("--example", "analytic", "--k", "1.5")),
    ("nonclosed-piece", ("--example", "nonclosed-piece")),
    ("x^2*y*z-eps3.9", ("--poly", "x^2*y*z", "--seed", "1,1,1", "--eps-grid", "3.9")),
    ("x^2*y*z*w-eps3.9", ("--poly", "x^2*y*z*w", "--seed", "1,1,1,1", "--eps-grid", "3.9")),
    ("x^3*y*z-eps3.9", ("--poly", "x^3*y*z", "--seed", "1,1,1", "--eps-grid", "3.9")),
    ("x^2+y^2", ("--poly", "x^2+y^2", "--seed", "1,0")),
    ("x0*x1*x2*x3*x4", ("--poly", "x0*x1*x2*x3*x4", "--seed", "1,1,1,1,1")),
)
PLOTS = ("curve-regular", "curve-nonregular", "analytic")


def runs() -> list:
    """(name, argv, output files) of every run, in order; an output file is
    (flag, file name), the flag and its value appended to argv."""
    import bench_workloads

    out = []
    for workload in sorted(bench_workloads.BUILDERS):
        for seed in (1, 2):
            for i, case in enumerate(bench_workloads.BUILDERS[workload](seed)):
                name = f"{workload}-seed{seed}-{i:02d}-{case.label}"
                files = [("--out", "report.json")] + ([("--trace", "trace.csv")] if case.trace else [])
                out.append((name, (case.command, *case.argv), files))
    out.append(("repro", ("repro",), [("--out", "report.json")]))
    out.append(("list", ("list",), []))
    for label, argv in ANALYZE:
        out.append((f"analyze-{label}", ("analyze", *argv), [("--out", "report.json")]))
        out.append((f"analyze-{label}+trace", ("analyze", *argv), [("--out", "report.json"), ("--trace", "trace.csv")]))
    for example in PLOTS:
        out.append((f"plot-{example}", ("plot", "--example", example), [("--out", "plot.svg")]))
    return out


def _file_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]", "_", name)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # without the source location, which moves with any edit of the code
    sys.stderr.write(f"{category.__name__}: {message}\n")


def write(directory: Path) -> None:
    from centroaffine import cli

    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        raise SystemExit(f"{directory} is not empty")
    home = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv, files in runs():
            stem = _file_name(name)
            args = list(argv)
            for flag, suffix in files:
                args += [flag, f"{stem}.{suffix}"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("default")
                warnings.showwarning = _show_warning
                try:
                    code = str(cli.main(args))
                except Exception as exc:  # recorded, so that a diff shows it
                    code = f"exception {type(exc).__name__}: {exc}"
            Path(f"{stem}.stdout").write_text(stdout.getvalue())
            Path(f"{stem}.stderr").write_text(stderr.getvalue())
            Path(f"{stem}.exit").write_text(code + "\n")
            print(f"{name}: {code}", file=sys.__stdout__)
    finally:
        os.chdir(home)


def diff(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    both = files_a & files_b
    differing = sorted((files_a | files_b) - both) + sorted(p for p in both if (a / p).read_bytes() != (b / p).read_bytes())
    for p in differing:
        print(p)
    print(f"{len(differing)} of {len(files_a | files_b)} files differ")
    return 1 if differing else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(Path(argv[1]), Path(argv[2]))
    if len(argv) == 1 and not argv[0].startswith("-"):
        write(Path(argv[0]))
        return 0
    print("usage: corpus.py DIR | corpus.py --diff A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
