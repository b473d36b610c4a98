"""The two workloads: how each sets up the program, drives it and checks it.

* ``debug-lattice5`` -- in-process ``NonAnswerDebugger.debug`` over a
  materialized level-5 lattice (3 keyword slots), memory backend, ``sbh``.
* ``serve-warm-mutate`` -- the HTTP service in its own process on the
  sqlite backend at about 10^4 tuples, one closed-loop client replaying a
  Zipf-skewed session script with a ``POST /mutate`` at every K-th request.

Every workload is a closed loop with one client.  The script is replayed
several times, and an operation's latency is the best of its replays: the
host's speed changes by about half from one second to the next, and the
best of a few spaced replays is what stays the same between runs.  Outputs
are checked
against a reference computed, outside every timed region, by a different
path: direct mode, ``bu`` traversal, memory backend, no caches.
"""

from __future__ import annotations

import dataclasses
from functools import partial
import http.client
import json
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Any

from common import (
    DATASET_SEED,
    ROOT,
    WORK_DIR,
    BenchError,
    WorkloadSpec,
    child_env,
    payload_outcome,
    percentile,
    report_outcome,
)
from layers import layer_metrics
from spans import SpanRecorder, read_jsonl
from streams import Script, debug_script, operation_count, serve_script

#: Binding-shape mixes: Table-2 query id -> calls of that query's shape per
#: cycle.  The service pool takes every Table-2 shape twice.
#: ``debug-lattice5`` cannot afford Table 2's proportions: 100 calls (one
#: replay plus the reference) would take about 80 s.  So every Table-2 shape
#: appears in each of its runs, the three-keyword and Person+Topic /
#: Topic+Topic shapes (Q1-Q3, Q7, Q8, Q10) once or a few times, and the
#: cheapest two-keyword shapes (Person+Conference Q4/Q5, Person+title word
#: Q6, Conference+Topic Q9) fill the rest of the 100 calls.
TABLE2_MIX = {f"Q{number}": 1 for number in range(1, 11)}
LATTICE_MIX = {
    "Q1": 1, "Q2": 1, "Q3": 1, "Q4": 18, "Q5": 18,
    "Q6": 18, "Q7": 5, "Q8": 1, "Q9": 36, "Q10": 1,
}

SPECS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="debug-lattice5",
            level=5,
            use_lattice=True,
            backend="memory",
            tuples=None,
            # The experiments' lossless setting for <= 3 keywords; the CLI
            # default of 5 slots needs minutes and gigabytes to build.
            max_keywords=3,
            mix=LATTICE_MIX,
            ops_per_second=5.0,
            passes=1,
            replays=4,
            setup_samples=2,
            write_rounds=8,
        ),
        WorkloadSpec(
            name="serve-warm-mutate",
            level=5,
            use_lattice=False,
            # The one disk-style backend: cold sessions probe it in Phase 3.
            backend="sqlite",
            tuples=10_000,
            max_keywords=None,
            mix=TABLE2_MIX,
            ops_per_second=5.0,
            passes=2,
            setup_samples=5,
            pool_size=20,
            mutate_every=11,
        ),
    )
}

SERVICE_WORKERS = 4  # ``repro serve`` default
HTTP_TIMEOUT_S = 120.0
STARTED = time.perf_counter()


def spec_for(name: str, tiny: bool = False) -> WorkloadSpec:
    """The workload's spec; ``tiny`` shrinks it for the benchmark's tests."""
    spec = SPECS[name]
    if not tiny:
        return spec
    return dataclasses.replace(
        spec,
        level=3,
        tuples=None,
        setup_samples=spec.passes,
        write_rounds=min(spec.write_rounds, 1),
        replays=min(spec.replays, 2),
        pool_size=min(spec.pool_size, 4),
        mutate_every=min(spec.mutate_every, 4),
    )


# ------------------------------------------------------------ the program
def generate_database(spec: WorkloadSpec) -> Any:
    from repro.datasets.dblife import DBLifeConfig, dblife_database, scale_for_tuples

    scale = 1 if spec.tuples is None else scale_for_tuples(spec.tuples, DATASET_SEED)
    return dblife_database(DBLifeConfig(seed=DATASET_SEED, scale=scale))


def make_debugger(
    spec: WorkloadSpec, database: Any, cache_dir: str | None = None
) -> Any:
    from repro.core.debugger import NonAnswerDebugger

    return NonAnswerDebugger(
        database,
        max_joins=spec.level - 1,
        strategy="sbh",
        backend=spec.backend,
        use_lattice=spec.use_lattice,
        max_keywords=spec.max_keywords,
        cache_dir=cache_dir,
    )


def make_reference(spec: WorkloadSpec, database: Any) -> Any:
    """The checking path: direct mode, ``bu``, memory backend, no caches."""
    from repro.core.debugger import NonAnswerDebugger

    return NonAnswerDebugger(
        database,
        max_joins=spec.level - 1,
        strategy="bu",
        backend="memory",
        use_lattice=False,
        max_keywords=spec.max_keywords,
    )


def start_service(spec: WorkloadSpec, database: Any, cache_dir: str) -> tuple[Any, Any]:
    """What ``repro serve --direct --level 5 --backend B --cache-dir DIR`` builds."""
    from repro.service import ServiceApp, ServiceServer, SessionManager

    manager = SessionManager(
        make_debugger(spec, database, cache_dir), workers=SERVICE_WORKERS
    )
    server = ServiceServer(ServiceApp(manager), host="127.0.0.1", port=0)
    server.start()
    return manager, server


# ------------------------------------------------------------ child processes
def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(ROOT / "nabench" / "child.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=str(ROOT),
    )


def _read_json_line(process: subprocess.Popen) -> dict[str, Any]:
    assert process.stdout is not None
    line = process.stdout.readline()
    if not line:
        process.wait(timeout=30)
        raise BenchError(f"child process exited with {process.returncode}")
    return json.loads(line)


def _finish(process: subprocess.Popen) -> dict[str, Any]:
    """Close the child's stdin, read its last JSON line, wait for exit."""
    try:
        assert process.stdin is not None and process.stdout is not None
        process.stdin.close()
        output = process.stdout.read()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise BenchError(f"child process exited with {process.returncode}")
    lines = [line for line in output.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else {}


def tiny_flag(tiny: bool) -> list[str]:
    return ["--tiny"] if tiny else []


def child_setup(spec: WorkloadSpec, tiny: bool) -> float:
    """Set-up seconds of the in-process workload in a fresh process."""
    return _finish(_child(["setup", "--workload", spec.name] + tiny_flag(tiny)))["setup_s"]


def _request(process: subprocess.Popen, request: dict[str, Any]) -> dict[str, Any]:
    assert process.stdin is not None
    process.stdin.write(json.dumps(request) + "\n")
    process.stdin.flush()
    return _read_json_line(process)


def best_of(runs: list[list[float]]) -> list[float]:
    """Per position, the shortest of the runs' times."""
    return [min(times) for times in zip(*runs)]


# ------------------------------------------------------------ in-process
#: Publication rows each round of writes inserts and deletes again.
WRITE_ROWS = 10
#: Chunks of each replay of the script; the benchmark's other work
#: (reference, extra set-up samples) runs between two requests.
CALL_CHUNKS = 4


def measure_writes(debugger: Any, rows: list[tuple[Any, ...]]) -> list[float]:
    """Seconds per write: insert or delete one row, then refresh the debugger.

    Each row is inserted and deleted again, so the data ends as it began.
    """
    table = debugger.database.table("Publication")
    position = len(table)
    seconds = []
    for row in rows:
        for apply in (partial(table.insert, row), partial(table.delete, position)):
            started = time.perf_counter()
            apply()
            debugger.refresh_after_mutation()
            seconds.append(time.perf_counter() - started)
    return seconds


def debug_pass(debugger: Any, queries: list[str]) -> tuple[list[float], list[dict]]:
    """One closed-loop pass: seconds and canonical outcome per call."""
    latencies, outcomes = [], []
    for query in queries:
        started = time.perf_counter()
        report = debugger.debug(query)
        latencies.append(time.perf_counter() - started)
        outcomes.append(report_outcome(report))
    return latencies, outcomes


def progress(message: str) -> None:
    """Where a run's wall time goes, on standard error."""
    print(f"[{time.perf_counter() - STARTED:7.2f} s] {message}", file=sys.stderr)


def run_in_process(
    spec: WorkloadSpec, seed: int, seconds: int, trace: bool, tiny: bool
) -> dict[str, Any]:
    database = generate_database(spec)
    script = debug_script(
        spec, database, seed, operation_count(spec, seconds, tiny)
    )
    queries = [step.query for step in script.queries]
    result: dict[str, Any] = {"script": script, "writes": 0}
    if trace:
        result["outcomes"], result["layers"] = traced_in_process(spec, database, queries)
        result["expected"] = in_process_reference(spec, database, queries) * 2
        return result
    # Each of ``spec.passes`` fresh processes sets up the program, replays
    # the whole script in chunks and then runs its rounds of writes.  After
    # every request the benchmark checks a part of the script against the
    # reference, and between two replays it takes the extra set-up samples,
    # so the repeats of one call or write lie apart in time and meet the
    # machine in different states.
    chunks = split(queries, CALL_CHUNKS)
    requests = [{"calls": chunk} for _ in range(spec.replays) for chunk in chunks]
    requests += [{"writes": True}] * spec.write_rounds
    reference = make_reference(spec, database)
    expected: list[dict] = []
    setups: list[float] = []

    def check(part: list[str]) -> None:
        expected.extend(report_outcome(reference.debug(query)) for query in part)

    def sample_setup() -> None:
        setups.append(child_setup(spec, tiny))

    pauses = [[partial(check, part)] for part in split(queries, spec.passes * len(requests))]
    after_replays = [
        start + replay * len(chunks) - 1
        for start in range(0, len(pauses), len(requests))
        for replay in range(1, spec.replays + 1)
    ]
    extra = spec.setup_samples - spec.passes
    for number in range(extra):
        slot = (number + 1) * len(after_replays) // (extra + 1) - 1
        pauses[after_replays[slot]].append(sample_setup)
    work = iter(pauses)
    latencies: list[list[float]] = []
    writes: list[list[float]] = []
    outcomes: list[dict] = []
    rss: list[float] = []
    try:
        for _ in range(spec.passes):
            process = _child(
                ["measure", "--workload", spec.name, "--seed", str(seed)] + tiny_flag(tiny)
            )
            try:
                setups.append(_read_json_line(process)["setup_s"])
                calls: list[float] = []
                for request in requests:
                    reply = _request(process, request)
                    if "writes" in reply:
                        writes.append(reply["writes"])
                    else:
                        calls += reply["latencies"]
                        outcomes += reply["outcomes"]
                    for item in next(work):
                        item()
                latencies += split(calls, spec.replays)
                rss.append(_finish(process)["peak_rss_mb"])
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
    finally:
        reference.close()
    progress(f"set up {len(setups)} times in fresh processes, measured, checked")
    best = best_of(latencies)
    write_times = best_of(writes)
    result["outcomes"] = outcomes
    result["expected"] = expected * len(latencies)
    result["writes"] = len(write_times)
    result["end_to_end"] = end_to_end(
        best, sum(best), median(setups), max(rss), write_times
    )
    return result


def split(items: list[Any], parts: int) -> list[list[Any]]:
    """``items`` in ``parts`` consecutive runs of near-equal length."""
    count = len(items)
    return [items[count * part // parts : count * (part + 1) // parts] for part in range(parts)]


def traced_in_process(
    spec: WorkloadSpec, database: Any, queries: list[str]
) -> tuple[list[dict], dict[str, float]]:
    """An untraced then a traced pass over one (untimed) set-up."""
    recorder = SpanRecorder()
    recorder.install()
    with recorder.span("bench.setup"):
        debugger = make_debugger(spec, database)
    recorder.uninstall()
    try:
        latencies, outcomes = debug_pass(debugger, queries)
        recorder.install()
        try:
            traced, traced_outcomes = debug_pass(debugger, queries)
        finally:
            recorder.uninstall()
        layers = layer_metrics(
            recorder.spans,
            len(queries),
            0,
            untraced_qps=len(latencies) / sum(latencies),
            traced_qps=len(traced) / sum(traced),
        )
    finally:
        debugger.close()
    recorder.write_jsonl(str(WORK_DIR / f"spans-{spec.name}.jsonl"))
    progress("measured")
    return outcomes + traced_outcomes, layers


def in_process_reference(spec: WorkloadSpec, database: Any, queries: list[str]) -> list[dict]:
    reference = make_reference(spec, database)
    try:
        return [report_outcome(reference.debug(query)) for query in queries]
    finally:
        reference.close()


def end_to_end(
    latencies: list[float],
    interval: float,
    setup_s: float,
    rss_mb: float,
    mutations: list[float],
) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_p90_ms": 1000.0 * percentile(latencies, 0.9),
        "throughput_qps": len(latencies) / interval,
        "peak_rss_mb": rss_mb,
        "mutate_p50_ms": 1000.0 * median(mutations),
    }


# ------------------------------------------------------------ the service
class Client:
    """One closed-loop HTTP client (the server closes every connection)."""

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, body: dict | None = None) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        if response.status >= 300:
            raise BenchError(f"{method} {path} -> {response.status}: {data[:200]!r}")
        if response.getheader("Content-Type", "").startswith("application/json"):
            return json.loads(data)
        return {"lines": data.decode().splitlines()}

    def session(self, query: str) -> dict:
        """Submit, follow the event stream to its terminal event, fetch the result."""
        submitted = self.request("POST", "/sessions", {"query": query})
        self.request("GET", submitted["stream"])
        return self.request("GET", submitted["result"])


def _serve_pass(
    spec: WorkloadSpec,
    script: Script,
    base_rows: int,
    trace: bool,
    tiny: bool,
) -> dict[str, Any]:
    """Start a fresh server and cache dir, replay the script, stop it."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    spans_path = WORK_DIR / f"spans-{spec.name}.jsonl"
    args = ["serve", "--workload", spec.name, "--cache-dir", cache_dir] + tiny_flag(tiny)
    if trace:
        args += ["--spans", str(spans_path)]
    process = _child(args)
    try:
        ready = _read_json_line(process)
        client = Client(int(ready["port"]))
        latencies: dict[str, float] = {}
        payloads: list[dict] = []
        mutations: list[float] = []
        loop_started = time.perf_counter()
        for step in script.steps:
            started = time.perf_counter()
            if step.kind == "query":
                payload = client.session(step.query)
                latencies[payload["session_id"]] = time.perf_counter() - started
                payloads.append(payload)
                continue
            if step.kind == "insert":
                body = {"relation": "Publication", "inserts": [list(step.row)]}
            else:
                body = {"relation": "Publication", "deletes": [base_rows]}
            client.request("POST", "/mutate", body)
            mutations.append(time.perf_counter() - started)
        interval = time.perf_counter() - loop_started
        stats = client.request("GET", "/admin/stats")
        done = _finish(process)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    spans = read_jsonl(str(spans_path)) if trace else []
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "setup_s": float(ready["setup_s"]),
        "latencies": latencies,
        "payloads": payloads,
        "mutations": mutations,
        "interval": interval,
        "retained": sum(stats["sessions_by_state"].values()),
        "peak_rss_mb": float(done["peak_rss_mb"]),
        "spans": spans,
    }


def run_serve(
    spec: WorkloadSpec, seed: int, seconds: int, trace: bool, tiny: bool
) -> dict[str, Any]:
    database = generate_database(spec)
    script = serve_script(
        spec, database, seed, operation_count(spec, seconds, tiny), spec.pool_size
    )
    base_rows = len(database.table("Publication"))
    writes = len(script.steps) - len(script.queries)
    result: dict[str, Any] = {"script": script, "writes": writes}
    if trace:
        untraced = _serve_pass(spec, script, base_rows, False, tiny)
        traced = _serve_pass(spec, script, base_rows, True, tiny)
        passes = [untraced, traced]
        sessions = len(script.queries)
        result["layers"] = layer_metrics(
            traced["spans"],
            sessions,
            len(traced["mutations"]),
            client_latencies=traced["latencies"],
            retained_sessions=traced["retained"],
            untraced_qps=sessions / untraced["interval"],
            traced_qps=sessions / traced["interval"],
        )
    else:
        # ``spec.passes`` fresh servers, each with a fresh cache dir, replay
        # the script; session *i* of one replay meets the same caches as
        # session *i* of the others, a replay's length later.  Servers that
        # are only started and stopped give the extra set-up samples.
        passes, setups = [], []
        extra = spec.setup_samples - spec.passes
        for number in range(spec.passes):
            passes.append(_serve_pass(spec, script, base_rows, False, tiny))
            setups.append(passes[-1]["setup_s"])
            for _ in range(extra * (number + 1) // spec.passes - extra * number // spec.passes):
                setups.append(_serve_pass(spec, Script(), base_rows, False, tiny)["setup_s"])
        best = best_of([list(run["latencies"].values()) for run in passes])
        mutations = best_of([run["mutations"] for run in passes])
        result["end_to_end"] = end_to_end(
            best,
            sum(best) + sum(mutations),
            median(setups),
            max(run["peak_rss_mb"] for run in passes),
            mutations,
        )
    progress("measured")
    result["outcomes"] = [
        payload_outcome(payload) for run in passes for payload in run["payloads"]
    ]
    result["expected"] = serve_reference(spec, script, database) * len(passes)
    progress("reference computed")
    return result


def serve_reference(spec: WorkloadSpec, script: Script, database: Any) -> list[dict]:
    """Replay the script's mutations on a reference debugger, outcome per session."""
    base = database.fingerprint()
    table = database.table("Publication")
    base_rows = len(table)
    reference = make_reference(spec, database)
    memo: dict[tuple[int, str], dict] = {}
    expected = []
    try:
        for step in script.steps:
            if step.kind == "insert":
                table.insert(step.row)
                reference.refresh_after_mutation()
            elif step.kind == "delete":
                table.delete(base_rows)
                reference.refresh_after_mutation()
                if database.fingerprint() != base:
                    raise BenchError("reference replay did not restore the data")
            else:
                key = (step.state, step.query)
                if key not in memo:
                    memo[key] = report_outcome(reference.debug(step.query))
                expected.append(memo[key])
    finally:
        reference.close()
    return expected


def run_workload(
    name: str, seed: int, seconds: int, trace: bool, tiny: bool = False
) -> dict[str, Any]:
    spec = spec_for(name, tiny)
    if spec.in_process:
        return run_in_process(spec, seed, seconds, trace, tiny)
    return run_serve(spec, seed, seconds, trace, tiny)


def count_failures(outcomes: list[dict], expected: list[dict]) -> int:
    """Operations whose output differs from the reference (or is missing)."""
    failed = abs(len(outcomes) - len(expected))
    for got, want in zip(outcomes, expected):
        failed += got != want
    return failed

