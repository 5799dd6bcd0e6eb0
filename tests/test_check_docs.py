"""``tools/check_docs.py``: the docs match the code, and each check
reports the drift it exists to catch."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve(check_docs):
    assert check_docs.check_links(check_docs.markdown_files()) == []


def test_documented_instruments_exist(check_docs):
    assert check_docs.check_instruments(check_docs.source_texts()) == []


def test_journal_record_kinds_match_the_fold(check_docs):
    assert check_docs.check_journal_kinds() == []


def test_decision_tables_match_their_docs(check_docs):
    assert check_docs.check_decision_tables() == []


def test_the_key_table_is_the_schemas_unique_attributes(check_docs):
    assert set(check_docs.documented_keys()) == {"mail", "uid"}
    assert check_docs.documented_keys() == check_docs.schema_keys()


def test_a_key_missing_from_the_docs_is_reported(check_docs, monkeypatch):
    documented = check_docs.documented_keys()
    monkeypatch.setattr(
        check_docs, "documented_keys", lambda: {k: v for k, v in documented.items() if k != "uid"}
    )
    problems = check_docs.check_decision_tables()
    assert problems == [
        "docs/ALGORITHMS.md §1 key table and the unique attributes of DEFAULT_REGISTRY "
        "differ at uid"
    ]


def test_experiment_ids_are_unique_and_listed_in_design(check_docs):
    assert check_docs.check_experiment_ids() == []


def test_a_duplicated_experiment_id_is_reported(check_docs, monkeypatch):
    declared = check_docs.bench_ids()
    path, ids = next(iter(declared.items()))
    monkeypatch.setattr(
        check_docs,
        "bench_ids",
        lambda: {**declared, "benchmarks/bench_copy.py": [ids[0]]},
    )
    problems = check_docs.check_experiment_ids()
    assert f"experiment id {ids[0]} declared by {path} and benchmarks/bench_copy.py" in problems


def test_a_bench_missing_from_design_is_reported(check_docs, monkeypatch):
    declared = check_docs.bench_ids()
    monkeypatch.setattr(
        check_docs,
        "bench_ids",
        lambda: {**declared, "benchmarks/bench_new.py": ["E999"]},
    )
    problems = check_docs.check_experiment_ids()
    assert "benchmarks/bench_new.py: in no DESIGN.md §3 row" in problems
    assert "E999 (benchmarks/bench_new.py): no DESIGN.md §3 row" in problems


def test_a_design_row_naming_a_missing_file_is_reported(
    check_docs, monkeypatch, tmp_path
):
    design = Path(check_docs.DESIGN).read_text(encoding="utf-8")
    target = "benchmarks/bench_fig2_referrals.py"
    assert target in design
    moved = tmp_path / "DESIGN.md"
    moved.write_text(design.replace(target, "benchmarks/bench_gone.py"), encoding="utf-8")
    monkeypatch.setattr(check_docs, "DESIGN", str(moved))
    problems = check_docs.check_experiment_ids()
    assert any("benchmarks/bench_gone.py does not exist" in p for p in problems)
    assert f"{target}: in no DESIGN.md §3 row" in problems
