"""Seeded query streams with a fixed binding-shape mix.

A query's cost follows its *binding shape*: which relations hold which
keywords.  The shapes come from the paper's Table-2 queries
(``repro.workloads.queries.TABLE2_QUERIES``): every word of a Table-2 query
stands for its *word class*, the words that occur in exactly the same
relations and in about as many tuples.  Each workload fixes a cycle of
Table-2 queries and ``--seed`` only picks words from the classes, so two
seeds run the same mix of shapes with different keywords.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from common import MIN_OPERATIONS, WorkloadSpec

#: Seed of the serve script's *structure* (which pool entry each session
#: replays, where mutations sit).  It is fixed so that every seed runs the
#: same sequence of cold, warm and repaired sessions; ``--seed`` only picks
#: the words and the inserted rows.
STRUCTURE_SEED = 20150323
#: Skew of the session draw over the pool.  An arbitrary choice: with 100
#: sessions over 20 queries it repeats most sessions, and no query takes
#: more than about an eighth of them, so the latency percentiles describe
#: the pool rather than its most popular query.
ZIPF_EXPONENT = 0.6


@dataclass(frozen=True)
class Vocabulary:
    """Word classes of one database, keyed by the Table-2 word they stand for."""

    classes: dict[str, list[str]]
    relations: dict[str, tuple[str, ...]]


def vocabulary(database: Any) -> Vocabulary:
    """Group the index's tokens into the classes of the Table-2 words.

    A class holds the tokens whose ``relations_containing`` equals the
    Table-2 word's and whose tuple count (summed ``tuple_set_size`` over
    those relations) lies within a factor of two of the Table-2 word's.
    """
    from repro.index import create_index
    from repro.workloads.queries import TABLE2_QUERIES

    index = create_index("memory", database)
    holders: dict[str, tuple[tuple[str, ...], int]] = {}
    for token in index.tokens():
        relations = index.relations_containing(token)
        holders[token] = (
            relations,
            sum(index.tuple_set_size(relation, token) for relation in relations),
        )
    classes: dict[str, list[str]] = {}
    relations_of: dict[str, tuple[str, ...]] = {}
    for query in TABLE2_QUERIES:
        for word in table2_words(query.text):
            relations, count = holders[word]
            classes[word] = sorted(
                token
                for token, (held_in, size) in holders.items()
                if held_in == relations and count / 2 <= size <= count * 2
            )
            relations_of[word] = relations
    return Vocabulary(classes, relations_of)


def table2_words(text: str) -> tuple[str, ...]:
    return tuple(text.casefold().split())


def table2_shapes(mix: dict[str, int]) -> list[tuple[str, ...]]:
    """One cycle of ``mix`` (Table-2 query id -> times per cycle).

    The repeats of each query sit at even intervals over the cycle, so no
    stretch of the script runs one shape only.
    """
    from repro.workloads.queries import query_by_id

    slots = sorted(
        ((repeat + 0.5) / times, order, qid)
        for order, (qid, times) in enumerate(mix.items())
        for repeat in range(times)
    )
    return [table2_words(query_by_id(qid).text) for _, _, qid in slots]


def draw_query(rng: random.Random, shape: tuple[str, ...], words: Vocabulary) -> str:
    """One query of ``shape``: distinct words, one per slot."""
    chosen: list[str] = []
    for word_class in shape:
        candidates = [word for word in words.classes[word_class] if word not in chosen]
        if not candidates:
            raise ValueError(f"word class {word_class!r} is exhausted")
        chosen.append(rng.choice(candidates))
    return " ".join(chosen)


def distinct_queries(
    rng: random.Random, shapes: list[tuple[str, ...]], words: Vocabulary
) -> list[str]:
    """One query per shape, never repeating an earlier query."""
    seen: set[str] = set()
    queries = []
    for shape in shapes:
        for _ in range(1000):
            query = draw_query(rng, shape, words)
            if query not in seen:
                break
        else:
            raise ValueError(f"cannot draw a new query of shape {shape}")
        seen.add(query)
        queries.append(query)
    return queries


@dataclass
class Step:
    """One script step: a debug call/session, or a mutation."""

    kind: str  # "query" | "insert" | "delete"
    query: str = ""
    #: Relations holding each keyword slot, order-free.
    shape: tuple[tuple[str, ...], ...] = ()
    #: Publication row for an insert.
    row: tuple[Any, ...] = ()
    #: Data a query runs against: 0 = base, else the id of the live insert.
    state: int = 0


@dataclass
class Script:
    steps: list[Step] = field(default_factory=list)

    @property
    def queries(self) -> list[Step]:
        return [step for step in self.steps if step.kind == "query"]

    def properties(self) -> dict[str, float]:
        """The stream facts later caching PRs must cite per workload."""
        queries = self.queries
        texts = [step.query for step in queries]
        return {
            "operations": len(queries),
            "distinct_queries": len(set(texts)),
            "distinct_binding_shapes": len({step.shape for step in queries}),
            "repeat_share": 1 - len(set(texts)) / len(texts) if texts else 0.0,
        }


def binding_shape(shape: tuple[str, ...], words: Vocabulary) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(words.relations[word_class] for word_class in shape))


def operation_count(spec: WorkloadSpec, seconds: int, tiny: bool) -> int:
    """Script length: a function of ``--seconds`` only, never of speed."""
    if tiny:
        return 8
    return max(MIN_OPERATIONS, round(seconds * spec.ops_per_second))


def debug_script(
    spec: WorkloadSpec, database: Any, seed: int, operations: int
) -> Script:
    """In-process workloads: every call a new query, shapes cycled."""
    words = vocabulary(database)
    cycle = table2_shapes(spec.mix)
    shapes = [cycle[i % len(cycle)] for i in range(operations)]
    queries = distinct_queries(random.Random(seed), shapes, words)
    return Script(
        [
            Step("query", query, binding_shape(shape, words))
            for query, shape in zip(queries, shapes)
        ]
    )


def _zipf_indexes(count: int, pool: int) -> list[int]:
    rng = random.Random(STRUCTURE_SEED)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool)]
    return rng.choices(range(pool), weights=weights, k=count)


def serve_script(
    spec: WorkloadSpec, database: Any, seed: int, operations: int, pool: int
) -> Script:
    """Service workload: Zipf-skewed sessions over a pool, plus writes.

    Sessions replay pool entries chosen by a seed-independent Zipf draw.
    After every K-th session (``K = spec.mutate_every``) a ``POST /mutate``
    inserts a fresh ``Publication`` row; the next session runs against it
    (its caches repaired, not warm), and a second ``POST /mutate`` deletes
    the row again.  Writes thus spread over the whole run while most
    sessions still find their data unchanged since their query last ran.
    """
    words = vocabulary(database)
    cycle = table2_shapes(spec.mix)
    shapes = [cycle[i % len(cycle)] for i in range(pool)]
    queries = distinct_queries(random.Random(seed), shapes, words)
    rows = iter(write_rows(seed, database, operations // spec.mutate_every))
    steps: list[Step] = []
    state = 0
    for number, index in enumerate(_zipf_indexes(operations, pool), 1):
        shape = binding_shape(shapes[index], words)
        steps.append(Step("query", queries[index], shape, state=state))
        if state:
            steps.append(Step("delete", state=state))
            state = 0
        elif number % spec.mutate_every == 0 and number < operations:
            row = next(rows)
            state = row[0]
            steps.append(Step("insert", row=row, state=state))
    return Script(steps)


def write_rows(seed: int, database: Any, count: int) -> list[tuple[Any, ...]]:
    """Seeded ``Publication`` rows for writes, ids past the last one."""
    from repro.datasets.dblife import TITLE_PATTERNS, TOPICS

    rng = random.Random(seed)
    next_id = max(row[0] for row in database.table("Publication")) + 1
    return [
        (next_id + offset, rng.choice(TITLE_PATTERNS).format(topic=rng.choice(TOPICS).title()))
        for offset in range(count)
    ]
