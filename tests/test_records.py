"""The committed benchmark records (``BENCH_*.json``) stay readable and whole."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
END_TO_END_FIELDS = ("workload", "run_s", "setup_s", "peak_rss_mb")


def correct_lists(node, path="$"):
    """(path, list) of every list under a ``correct`` key, directly or in a
    dict of lists such as ``{"parent": [...], "change": [...]}``."""
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}"
            if key == "correct":
                if isinstance(value, list):
                    yield where, value
                elif isinstance(value, dict):
                    yield from ((f"{where}.{k}", v) for k, v in value.items()
                                if isinstance(v, list))
            yield from correct_lists(value, where)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from correct_lists(value, f"{path}[{i}]")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_whole(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(doc, dict)
    for key in ("parent_commit", "command"):
        assert doc.get(key), f"{path.name} lacks {key}"
    rows = doc.get("end_to_end")
    assert isinstance(rows, list) and rows, f"{path.name}: end_to_end must be a nonempty list"
    for row in rows:
        missing = [f for f in END_TO_END_FIELDS if f not in row]
        assert not missing, f"{path.name}: end_to_end row lacks {missing}"
    for where, runs in correct_lists(doc):
        assert runs and all(r is True for r in runs), f"{path.name} {where}: {runs}"
