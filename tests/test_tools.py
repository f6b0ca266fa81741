"""Tests of tools/report_hashes.py on fairbench's tiny workloads, and of tools/src_lines.py."""

import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("report_hashes", ROOT / "tools" / "report_hashes.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)
# the benchmark's own tests define the tiny workloads (40 x 24 x 3, cap 3)
fb = tool.load_module(ROOT / "fairbench" / "test_fairbench.py", "report_hashes_fairbench_tests")


def test_one_line_per_report_file_and_stable(tmp_path):
    workloads = [fb.tiny(name) for name in fb.bench.WORKLOADS]
    lines, failures = tool.report_hashes(fb.bench, workloads, [3], ROOT, tmp_path / "a")
    assert failures == []
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"{wl.name} 3 {name}" for wl in workloads for name in tool.REPORTS
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    again, _ = tool.report_hashes(fb.bench, workloads[:1], [3], ROOT, tmp_path / "b")
    assert again == lines[:2]


def test_failed_child_is_reported(tmp_path, monkeypatch):
    real = fb.bench.run_experiment_child

    def missing_config(ds, root, work, tag):
        return real(replace(ds, path=ds.path.with_name("absent.json")), root, work, tag)

    monkeypatch.setattr(fb.bench, "run_experiment_child", missing_config)
    lines, failures = tool.report_hashes(fb.bench, [fb.tiny("tensor-train")], [3], ROOT, tmp_path)
    assert lines == [f"tensor-train 3 {name} missing" for name in tool.REPORTS]
    assert len(failures) == 1 and "exit 2" in failures[0] and "absent.json" in failures[0]


def test_root_without_package_exits_2(tmp_path, capsys):
    assert tool.main(["--root", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_against_root_without_package_exits_2(tmp_path, capsys):
    assert tool.main(["--against", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_same_root_twice_has_no_differences(tmp_path):
    workloads = [fb.tiny(name) for name in fb.bench.WORKLOADS]
    runs = [tool.report_hashes(fb.bench, workloads, [3], ROOT, tmp_path / side)
            for side in ("a", "b")]
    assert runs[0][1] == runs[1][1] == []
    assert tool.compare(runs[0][0], runs[1][0], tmp_path / "a", tmp_path / "b") == ([], [])
    # a changed hash is looked into: equal metrics give zero differences
    changed = [line[:-1] + "x" for line in runs[1][0]]
    diffs, problems = tool.compare(runs[0][0], changed, tmp_path / "a", tmp_path / "b")
    assert problems == [] and len(diffs) == len(workloads) * len(tool.METRIC_FIELDS)
    assert all(line.endswith("abs 0.000e+00 rel 0.000e+00") for line in diffs)


def report(mad=0.25, ks=0.5, error=None):
    row = {"model": "FT", "run": 1, "seed": 1, "p_at_k": 0.1, "r_at_k": 0.2,
           "f1_at_k": 0.125, "mad": mad, "ks": ks, "error": error}
    means = {"FT": {f: row[f] for f in tool.METRIC_FIELDS}}
    return {"k": 15, "intervals": 50, "config": {}, "rows": [row], "means": means}


@pytest.mark.parametrize("edit, problem", [
    (dict(mad=0.25 + 2e-13), None),  # 8e-13 relative: within 1e-12 * |v| + 1e-15
    (dict(mad=0.25 + 1e-12), "FT 1 mad"),
    (dict(ks=0.5 + 1e-16), "FT 1 ks"),
    (dict(mad=None, ks=None, error="fairness: x"), "outside their metric values"),
], ids=["mad-within", "mad-beyond", "ks", "error"])
def test_metric_differences(tmp_path, edit, problem):
    path, reference = tmp_path / "change.json", tmp_path / "parent.json"
    path.write_text(json.dumps(report(**edit)), encoding="utf-8")
    reference.write_text(json.dumps(report()), encoding="utf-8")
    lines, problems = tool.metric_differences(path, reference)
    if problem is None:
        assert problems == []
        assert lines[3].startswith("diff mad abs 2.0")
        assert lines[4] == "diff ks abs 0.000e+00 rel 0.000e+00"
    else:
        assert problems and problem in problems[0]


src_lines = tool.load_module(ROOT / "tools" / "src_lines.py", "src_lines")

SAMPLE = '''"""A module.

Its docstring spans three lines and a blank one."""
# a comment line

X = 1  # a trailing comment is code's


def f(a):
    """One docstring line."""
    text = """a string

    of code"""
    return a + len(text)
'''


def test_line_counts_by_kind():
    counts = src_lines.line_counts(SAMPLE)
    assert counts == {"total": 14, "code": 6, "docstring": 4, "comment": 1, "blank": 3}


def test_package_counts_add_up():
    for path in (ROOT / "src" / "fairtensor").glob("*.py"):
        source = path.read_text(encoding="utf-8")
        counts = src_lines.line_counts(source)
        assert counts["total"] == len(source.splitlines())
        assert sum(counts[kind] for kind in src_lines.KINDS[1:]) == counts["total"]


def write_package(root, **modules):
    package = root / "src" / "fairtensor"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    for name, source in modules.items():
        (package / f"{name}.py").write_text(source, encoding="utf-8")
    return root


def test_against_lists_code_changes_only(tmp_path, capsys):
    parent = write_package(tmp_path / "parent", a=SAMPLE, b="Y = 2\n", c="import os\n")
    # docstrings, comments and layout change in a; f's body in b; c goes, d comes
    edited = SAMPLE.replace("One docstring line.", "Another.").replace("# a comment line", "")
    body = "Y = 2\n\n\ndef f(a):\n    return a\n"
    change = write_package(tmp_path / "change", a=edited.replace("X = 1", "X = (\n    1)"),
                           b=body, d="from .a import f\n")
    assert src_lines.main(["--root", str(change), "--against", str(parent)]) == 0
    out = capsys.readouterr().out.split("# code changes\n")[1].splitlines()
    assert out == ["b.py f added", "c.py import os removed", "d.py from .a import added"]
    again = write_package(tmp_path / "again", a=SAMPLE, b="Y = 3\n", c="import os\n")
    assert src_lines.code_changes(src_lines._sources(again), src_lines._sources(parent)) == \
        ["b.py Y changed"]
    assert src_lines.code_changes(src_lines._sources(parent), src_lines._sources(parent)) == []


def test_src_lines_root_without_package_exits_2(tmp_path, capsys):
    assert src_lines.main(["--against", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
