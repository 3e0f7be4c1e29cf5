import importlib.util
import json
import shutil
from pathlib import Path

_spec = importlib.util.spec_from_file_location("corpus", Path(__file__).resolve().parent.parent / "tools" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir()
    for name, content in files.items():
        (directory / name).write_text(content if isinstance(content, str) else json.dumps(content))
    return directory


def test_diff_lists_moved_report_paths_and_differing_files(tmp_path, capsys):
    report = {"status": "complete", "n": 3, "probes": [{"length": 1.5}], "block": {"a": 1}}
    moved = {"status": "complete", "n": 3.0, "probes": [{"length": 1.25}, {"length": 2.0}], "block": {"a": 1, "b": 2}}
    a = _write(tmp_path / "a", {"x.report.json": report, "x.stdout": "out\n", "x.exit": "0\n"})
    b = _write(tmp_path / "b", {"x.report.json": moved, "x.stdout": "other\n", "x.exit": "0\n"})
    assert corpus.main(["--diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "x.report.json",
        "  n: 3 -> 3.0",  # equal values of another type count as moved
        "  probes[0].length: 1.5 -> 1.25",
        '  probes[1]: "<missing>" -> {"length": 2.0}',
        '  block.b: "<missing>" -> 2',
        "x.stdout",  # not a report: listed without paths
        "2 of 3 files differ",
        "moved in 1 reports: block.b",
        "moved in 1 reports: n",
        "moved in 1 reports: probes[0].length",
        "moved in 1 reports: probes[1]",
    ]


def test_diff_of_equal_corpora_exits_0(tmp_path, capsys):
    a = _write(tmp_path / "a", {"x.report.json": {"n": [1, 2.5]}, "x.stdout": "out\n"})
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert corpus.main(["--diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 2 files differ"]
