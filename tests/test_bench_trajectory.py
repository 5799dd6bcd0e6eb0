"""The shape of ``BENCH_e2e.json``, the per-PR trajectory of the
end-to-end benchmark.

One row per PR, oldest first: the medians of the seven universal
end-to-end metrics that ``BENCHMARK.json`` declares, on each of its five
workloads, with the number of alternating parent/change pairs behind
them, the box they ran on (one of the file's ``boxes``) and whether the
row was ``measured`` for the PR or ``transcribed`` from CHANGES.md.  A
transcribed row may leave a metric ``null`` where CHANGES.md gave no
number; a measured row gives every one.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = json.loads((ROOT / "BENCH_e2e.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
ROWS = TRAJECTORY["rows"]
ROW_KEYS = {"pr", "title", "source", "pairs", "box", "seed", "medians"}


def test_the_file_names_the_benchmark_units_and_its_boxes():
    assert set(TRAJECTORY) == {"description", "units", "boxes", "rows"}
    assert TRAJECTORY["units"] == UNITS
    assert len(UNITS) == 7 and len(WORKLOADS) == 5
    assert TRAJECTORY["boxes"] and all(
        isinstance(text, str) and text for text in TRAJECTORY["boxes"].values()
    )


def test_one_row_per_pr_oldest_first():
    prs = [row["pr"] for row in ROWS]
    assert prs == sorted(set(prs))
    assert ROWS[-1]["source"] == "measured"


@pytest.mark.parametrize("row", ROWS, ids=[f"PR{row['pr']}" for row in ROWS])
def test_a_row(row):
    assert ROW_KEYS <= set(row) <= ROW_KEYS | {"note"}
    assert isinstance(row["pr"], int) and row["title"]
    assert row["source"] in ("measured", "transcribed")
    assert isinstance(row["pairs"], int) and row["pairs"] >= 1
    assert row["box"] in TRAJECTORY["boxes"]
    assert isinstance(row["seed"], int)
    assert list(row["medians"]) == WORKLOADS
    for workload, metrics in row["medians"].items():
        assert list(metrics) == list(UNITS), workload
        for name, value in metrics.items():
            if value is None:
                assert row["source"] == "transcribed", (workload, name)
                continue
            assert isinstance(value, (int, float)) and not isinstance(value, bool)
            assert math.isfinite(value) and value >= 0, (workload, name)
            if UNITS[name] == "fraction":
                assert value <= 1, (workload, name)
