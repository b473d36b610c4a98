"""Shared pieces of the benchmark: paths, workload specs, statistics, outputs.

The benchmark runs from the root of a source checkout.  It imports the
program from ``src/`` of that checkout and never writes outside it: scratch
state (cache dirs, span files) lives under ``.nabench/`` at the root.
"""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".nabench"

#: Every workload generates the same DBLife snapshot family from this seed;
#: ``--seed`` picks the query words and mutation rows instead.  Holding the
#: data fixed keeps a binding shape's cost comparable across seeds, so the
#: spread between runs measures the program, not the dataset draw.
DATASET_SEED = 42


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing program, crashed child)."""


def import_program() -> None:
    """Put the checkout's ``src/`` on the path, or fail before any work."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child processes: the program on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that fixes one workload except the seed."""

    name: str
    #: Lattice levels (= max joins + 1).
    level: int
    use_lattice: bool
    backend: str
    #: Target tuple count for ``scale_for_tuples``; ``None`` = scale 1.
    tuples: int | None
    #: Keyword slots of the materialized lattice (None = program default).
    max_keywords: int | None
    #: Table-2 query id -> times its binding shape appears in one cycle of
    #: the script (see streams.py).
    mix: dict[str, int]
    #: Script operations per second of ``--seconds`` (fixed, never measured).
    ops_per_second: float
    #: Fresh processes that each set up the program and replay the whole
    #: script ``replays`` times; an operation's latency is the best of its
    #: ``passes * replays`` times.
    passes: int
    #: Fresh-process set-ups whose median is ``setup_s`` (the ``passes``
    #: measuring processes included).
    setup_samples: int
    #: In-process: rounds of the seed's writes in each measuring process;
    #: a write's time is the best of its ``passes * write_rounds`` times.
    write_rounds: int = 0
    #: In-process: replays of the script in each measuring process (the
    #: service replays it once per fresh server, whose caches it warms).
    replays: int = 1
    #: ``serve-warm-mutate``: distinct queries in the Zipf pool.
    pool_size: int = 0
    #: ``serve-warm-mutate``: an insert follows every K-th session.
    mutate_every: int = 0

    @property
    def in_process(self) -> bool:
        return self.pool_size == 0


#: Minimum operations per run: p90 then has >= 10 samples beyond it.
MIN_OPERATIONS = 100


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(part: float, whole: float) -> float:
    """``part / whole`` clamped to [0, 1]; 0 when there is no whole."""
    if whole <= 0:
        return 0.0
    return min(1.0, max(0.0, part / whole))


def canonical_outcome(
    answers: list[str], non_answers: list[tuple[str, list[str]]]
) -> dict[str, Any]:
    """Order-free form of one query's answers, non-answers and MPANs."""
    return {
        "answers": sorted(answers),
        "non_answers": sorted(
            [query, sorted(mpans)] for query, mpans in non_answers
        ),
    }


def report_outcome(report: Any) -> dict[str, Any]:
    """Canonical outcome of an in-process ``DebugReport``."""
    return canonical_outcome(
        [query.describe() for query in report.answers()],
        [
            (query.describe(), [mpan.describe() for mpan in mpans])
            for query, mpans in report.explanations()
        ],
    )


def payload_outcome(payload: dict[str, Any]) -> dict[str, Any]:
    """Canonical outcome of a service ``/result`` document."""
    return canonical_outcome(
        list(payload.get("answers", [])),
        [
            (entry["query"], list(entry["mpans"]))
            for entry in payload.get("non_answers", [])
        ],
    )
