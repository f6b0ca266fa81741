"""Smoke tests of tools/report_hashes.py on fairbench's tiny workloads."""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

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
