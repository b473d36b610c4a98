"""Per-layer metrics computed from recorded spans.

Times are normalised per operation (one debug call or one service session)
unless the metric name says otherwise; ``*.build_s`` is per set-up and the
repair/refresh/gate times are per mutation.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

from common import ratio
from spans import Span

#: name -> unit, in the order the traced run prints them.
PER_LAYER_UNITS: dict[str, str] = {
    "index.build_s": "s",
    "index.map_ms": "ms",
    "lattice.build_s": "s",
    "lattice.nodes": "count",
    "binding.ms": "ms",
    "binding.share": "share",
    "binding.retained_nodes": "count",
    "mtn.ms": "ms",
    "mtn.share": "share",
    "mtn.graph_nodes": "count",
    "mtn.mtns": "count",
    "traversal.ms": "ms",
    "traversal.share": "share",
    "traversal.probes_per_node": "ratio",
    "relational.probes": "count",
    "relational.probe_ms": "ms",
    "relational.l1_hit_ratio": "ratio",
    "backends.checkout_wait_ms": "ms",
    "backends.connections_created": "count",
    "cache.phase3_skip_share": "share",
    "cache.l2_hit_ratio": "ratio",
    "cache.status_ms": "ms",
    "cache.l2_ms": "ms",
    "cache.repair_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.transport_ms": "ms",
    "service.debug_share": "share",
    "service.refresh_ms": "ms",
    "service.gate_wait_ms": "ms",
    "service.retained_sessions": "count",
    "debugger.other_ms": "ms",
    "trace.overhead_share": "share",
}


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda item: item.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def layer_metrics(
    spans: list[Span],
    operations: int,
    mutations: int,
    *,
    client_latencies: dict[str, float] | None = None,
    retained_sessions: int = 0,
    untraced_qps: float,
    traced_qps: float,
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS` from one traced pass.

    ``spans`` must hold the set-up (under a ``bench.setup`` root) and the
    traced operations; ``client_latencies`` maps service session ids to the
    client-observed seconds of each session.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    setup_roots = {span.span_id for span in spans if span.name == "bench.setup"}
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        if span.root not in setup_roots:
            by_name[span.name].append(span)
    setups = [span for span in spans if span.root in setup_roots]

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def per_op_ms(*names: str) -> float:
        return 1000.0 * sum(total(name) for name in names) / operations

    def per_mutation_ms(name: str) -> float:
        return 1000.0 * total(name) / mutations if mutations else 0.0

    debugs = by_name["debugger.debug"]
    debug_time = sum(span.duration for span in debugs)
    runs = by_name["traversal.run"]
    graphs = by_name["mtn.discover"]
    probes = len(by_name["relational.probe"])
    lattices = [span for span in setups if span.name == "lattice.build"]
    traversed = {span.parent for span in runs}
    answered = [span for span in debugs if not span.attrs.get("aborted")]
    l2_gets = by_name["cache.l2_get"]

    metrics = {
        "index.build_s": sum(
            span.duration for span in setups if span.name == "index.build"
        ),
        "index.map_ms": per_op_ms("index.map"),
        "lattice.build_s": sum(span.duration for span in lattices),
        "lattice.nodes": float(sum(span.attrs["nodes"] for span in lattices)),
        "binding.ms": per_op_ms("binding.prune"),
        "binding.share": ratio(total("binding.prune"), debug_time),
        "binding.retained_nodes": sum(
            span.attrs["retained_nodes"] for span in debugs
        )
        / operations,
        "mtn.ms": per_op_ms("mtn.discover"),
        "mtn.share": ratio(total("mtn.discover"), debug_time),
        "mtn.graph_nodes": sum(span.attrs["nodes"] for span in graphs) / operations,
        "mtn.mtns": sum(span.attrs["mtns"] for span in graphs) / operations,
        "traversal.ms": per_op_ms("traversal.run"),
        "traversal.share": ratio(total("traversal.run"), debug_time),
        "traversal.probes_per_node": (
            probes / sum(span.attrs["nodes"] for span in runs) if runs else 0.0
        ),
        "relational.probes": probes / operations,
        "relational.probe_ms": per_op_ms("relational.probe"),
        "relational.l1_hit_ratio": ratio(
            sum(span.attrs["l1_hits"] for span in runs), probes
        ),
        "backends.checkout_wait_ms": per_op_ms("backends.checkout"),
        "backends.connections_created": connections_created(spans),
        "cache.phase3_skip_share": ratio(
            sum(1 for span in answered if span.span_id not in traversed),
            len(answered),
        ),
        "cache.l2_hit_ratio": ratio(
            sum(1 for span in l2_gets if span.attrs["hit"]), len(l2_gets)
        ),
        "cache.status_ms": per_op_ms("cache.status_load", "cache.status_save"),
        "cache.l2_ms": per_op_ms("cache.l2_get", "cache.l2_put"),
        "cache.repair_ms": per_mutation_ms("cache.repair"),
        "service.refresh_ms": per_mutation_ms("debugger.refresh"),
        "service.gate_wait_ms": per_mutation_ms("service.gate_wait"),
        "service.retained_sessions": float(retained_sessions),
        "debugger.other_ms": 1000.0
        * sum(self_time(span, children[span.span_id]) for span in debugs)
        / operations,
        "trace.overhead_share": (
            ratio(untraced_qps - traced_qps, untraced_qps)
        ),
    }
    metrics.update(_service_metrics(by_name, client_latencies or {}))
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}


def connections_created(spans: list[Span]) -> float:
    """Connections created by all pools, set-up included.

    Each checkout span carries its pool's running count; a pool replaced
    by a refresh starts again from its own count.
    """
    created = 0
    last: dict[int, int] = {}
    for span in sorted(spans, key=lambda item: item.end):
        if span.name != "backends.checkout":
            continue
        pool, count = span.attrs["pool"], span.attrs["created"]
        previous = last.get(pool, 0)
        created += count - previous if count >= previous else count
        last[pool] = count
    return float(created)


def _service_metrics(
    by_name: dict[str, list[Span]], client_latencies: dict[str, float]
) -> dict[str, float]:
    """Queue wait, transport and debug share of service sessions."""
    if not client_latencies:
        return {
            "service.queue_wait_ms": 0.0,
            "service.transport_ms": 0.0,
            "service.debug_share": 0.0,
        }
    debug_by_tracer = {
        span.attrs["tracer"]: span for span in by_name["debugger.debug"]
    }
    waits: list[float] = []
    transports: list[float] = []
    debug_time = 0.0
    for submit in by_name["service.submit"]:
        session = submit.attrs["session"]
        debug = debug_by_tracer[submit.attrs["tracer"]]
        latency = client_latencies[session]
        waits.append(max(0.0, debug.start - submit.end))
        transports.append(latency - (debug.end - submit.start))
        debug_time += debug.duration
    count = len(waits)
    return {
        "service.queue_wait_ms": 1000.0 * sum(waits) / count,
        "service.transport_ms": 1000.0 * sum(transports) / count,
        "service.debug_share": ratio(debug_time, sum(client_latencies.values())),
    }
