"""A span recorder that times the program's public entry points from outside.

:class:`SpanRecorder` replaces each target attribute *where callers look it
up* with a wrapper that records one span per call: the module globals that
``repro.core.debugger`` imported by name (``generate_lattice``,
``build_exploration_graph``, ``create_index``), and the class attributes
that method calls resolve through.  Spans nest per thread, so a service
session's ``NonAnswerDebugger.debug`` on a worker thread is a root with its
phases as children.  Spans stay in memory until :meth:`write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "root": self.root,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            data["id"],
            data["parent"],
            data["root"],
            data["name"],
            data["start"],
            data["end"],
            data["thread"],
            dict(data["attrs"]),
        )


def _debug_attrs(args: tuple, kwargs: dict, report: Any) -> dict[str, Any]:
    return {
        "tracer": id(kwargs.get("tracer")),
        "retained_nodes": report.retained_nodes,
        "aborted": report.aborted,
    }


def _run_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"nodes": len(args[1]), "l1_hits": result.stats.l1_hits}


def _graph_attrs(args: tuple, kwargs: dict, graph: Any) -> dict[str, Any]:
    return {"nodes": len(graph), "mtns": len(graph.mtn_indexes)}


def _checkout_attrs(args: tuple, kwargs: dict, connection: Any) -> dict[str, Any]:
    # A refresh after a write replaces the backend and its pool, so the
    # count of connections a pool has created is kept per pool.
    return {"pool": id(args[0]), "created": args[0].stats().created}


def _submit_attrs(args: tuple, kwargs: dict, handle: Any) -> dict[str, Any]:
    return {"session": handle.session_id, "tracer": id(handle.tracer)}


#: (module, owner attribute or None for a module global, attribute,
#:  span name, attrs from (args, kwargs, result)).
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    ("repro.core.debugger", None, "create_index", "index.build", None),
    (
        "repro.core.debugger",
        None,
        "generate_lattice",
        "lattice.build",
        lambda args, kwargs, lattice: {"nodes": len(lattice)},
    ),
    (
        "repro.core.debugger",
        None,
        "build_exploration_graph",
        "mtn.discover",
        _graph_attrs,
    ),
    ("repro.core.debugger", "NonAnswerDebugger", "debug", "debugger.debug", _debug_attrs),
    (
        "repro.core.debugger",
        "NonAnswerDebugger",
        "refresh_after_mutation",
        "debugger.refresh",
        None,
    ),
    ("repro.index.mapper", "KeywordMapper", "map_query", "index.map", None),
    ("repro.core.binding", "KeywordBinder", "prune", "binding.prune", None),
    ("repro.core.binding", "KeywordBinder", "prune_for_mtns", "binding.prune", None),
    ("repro.core.traversal.base", "TraversalStrategy", "run", "traversal.run", _run_attrs),
    ("repro.relational.evaluator", "InstrumentedEvaluator", "is_alive", "relational.probe", None),
    ("repro.backends.pool", "ConnectionPool", "checkout", "backends.checkout", _checkout_attrs),
    (
        "repro.cache.store",
        "ProbeCache",
        "get",
        "cache.l2_get",
        lambda args, kwargs, hit: {"hit": hit is not None},
    ),
    ("repro.cache.store", "ProbeCache", "put", "cache.l2_put", None),
    ("repro.cache.store", "ProbeCache", "refresh", "cache.repair", None),
    ("repro.cache.status", "StatusCache", "load", "cache.status_load", None),
    ("repro.cache.status", "StatusCache", "save", "cache.status_save", None),
    ("repro.service.manager", "SessionManager", "submit", "service.submit", _submit_attrs),
    ("repro.service.manager", "SessionManager", "mutate", "service.mutate", None),
    ("repro.service.manager", "_StateGate", "acquire_write", "service.gate_wait", None),
)


class SpanRecorder:
    """Install wrappers around :data:`TARGETS`; collect spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------- recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record = Span(
            span_id,
            parent.span_id if parent else None,
            parent.root if parent else span_id,
            name,
            time.perf_counter(),
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _wrap(
        self, original: Callable, name: str, attrs_of: Callable | None
    ) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name) as record:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    record.attrs.update(attrs_of(args, kwargs, result))
                return result

        return wrapper

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        if self._patched:
            return
        for module_name, owner_name, attribute, name, attrs_of in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = (
                getattr(owner, attribute)
                if owner_name is None
                else owner.__dict__[attribute]
            )
            setattr(owner, attribute, self._wrap(original, name, attrs_of))
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def write_jsonl(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record.to_dict()) + "\n")


def read_jsonl(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_dict(json.loads(line)) for line in handle if line.strip()]
