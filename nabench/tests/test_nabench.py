"""Tests of the benchmark itself, on shrunken (``--tiny``) workloads.

Run from the root of the checkout::

    python3 -m pytest nabench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

sys.path.insert(0, str(ROOT / "nabench"))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    process = subprocess.run(
        [
            sys.executable,
            "nabench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--tiny",
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = process.stdout.strip().splitlines()
    return process.returncode, lines


def expected_units(trace: int) -> dict[str, str]:
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    code, lines = run_bench(workload, trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_units(trace)
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), name
        if name.endswith(".share") or name.endswith("_ratio"):
            assert 0.0 <= entry["value"] <= 1.0, (name, entry["value"])
    stream = json.loads(lines[-2])["stream"]
    assert stream["operations"] >= 1
    assert 0.0 <= stream["repeat_share"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_is_reported_as_failed_operations(workload: str) -> None:
    code, lines = run_bench(workload, 0, "--corrupt-reference", "3")
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 3


def test_without_the_program_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "nabench", tmp_path / "nabench", ignore=shutil.ignore_patterns("__pycache__")
    )
    code, lines = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0
    assert lines == []


def test_streams_fix_the_shapes_and_let_the_seed_pick_the_words() -> None:
    from streams import debug_script, serve_script
    from workloads import generate_database, spec_for

    spec = spec_for("serve-warm-mutate", tiny=True)
    database = generate_database(spec)
    first = serve_script(spec, database, 1, 30, spec.pool_size)
    again = serve_script(spec, database, 1, 30, spec.pool_size)
    other = serve_script(spec, database, 2, 30, spec.pool_size)
    assert [step.query for step in first.steps] == [step.query for step in again.steps]
    assert [(step.kind, step.shape) for step in first.steps] == [
        (step.kind, step.shape) for step in other.steps
    ]
    assert first.properties()["repeat_share"] == other.properties()["repeat_share"]
    lattice = spec_for("debug-lattice5", tiny=True)
    script = debug_script(lattice, database, 5, 24)
    assert script.properties()["distinct_queries"] == 24
    assert script.properties()["repeat_share"] == 0.0


def test_every_query_has_the_binding_shape_of_a_table2_query() -> None:
    from repro.index import create_index
    from repro.workloads.queries import TABLE2_QUERIES
    from streams import debug_script, serve_script
    from workloads import SPECS, generate_database, spec_for

    database = generate_database(spec_for("debug-lattice5", tiny=True))
    index = create_index("memory", database)

    def shape_of(text: str) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(index.relations_containing(word) for word in text.split()))

    table2 = {shape_of(query.text) for query in TABLE2_QUERIES}
    for name, spec in SPECS.items():
        if spec.in_process:
            script = debug_script(spec, database, 9, 100)
        else:
            script = serve_script(spec, database, 9, 120, spec.pool_size)
        shapes = [shape_of(step.query) for step in script.queries]
        assert set(shapes) <= table2, name
        assert shapes == [step.shape for step in script.queries], name
        # Every Table-2 shape occurs in every run.
        assert set(shapes) == table2, name
