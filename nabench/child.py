"""Child processes of the benchmark, each a fresh interpreter.

``setup``  times one set-up of an in-process workload and prints
           ``{"setup_s": ...}``.
``measure`` times one set-up of an in-process workload and prints
           ``{"setup_s": ...}``.  Then it serves requests, one JSON object a
           line on stdin: ``{"calls": [queries]}`` runs the queries as a
           closed loop and prints ``{"latencies": [...], "outcomes": [...]}``;
           ``{"writes": true}`` times the seed's writes (see
           ``workloads.measure_writes``) and prints ``{"writes": [...]}``.
           Once stdin closes, it prints ``{"peak_rss_mb": ...}``.
``serve``  builds the service the way ``repro serve --direct --level 5
           --backend sqlite --cache-dir DIR`` does, prints
           ``{"port": ..., "setup_s": ...}``, serves until its stdin
           closes, then drains, shuts down and prints
           ``{"peak_rss_mb": ...}``.  With ``--spans PATH`` it records spans
           (set-up included) and writes them there at exit.

Set-up time starts once the generated database is handed over: data
generation is the benchmark's input, not the program's work.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import import_program, peak_rss_mb


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure", "serve"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--spans")
    args = parser.parse_args()
    import_program()
    from spans import SpanRecorder
    from workloads import (
        WRITE_ROWS,
        debug_pass,
        generate_database,
        make_debugger,
        measure_writes,
        spec_for,
        start_service,
    )
    from streams import write_rows

    spec = spec_for(args.workload, args.tiny)
    database = generate_database(spec)
    if args.role != "serve":
        started = time.perf_counter()
        debugger = make_debugger(spec, database)
        _emit({"setup_s": time.perf_counter() - started})
        try:
            if args.role == "measure":
                rows = write_rows(args.seed, database, WRITE_ROWS)
                for line in sys.stdin:
                    request = json.loads(line)
                    if "calls" in request:
                        latencies, outcomes = debug_pass(debugger, request["calls"])
                        _emit({"latencies": latencies, "outcomes": outcomes})
                    else:
                        _emit({"writes": measure_writes(debugger, rows)})
                _emit({"peak_rss_mb": peak_rss_mb()})
        finally:
            debugger.close()
        return 0

    recorder = SpanRecorder()
    if args.spans:
        recorder.install()
    started = time.perf_counter()
    with recorder.span("bench.setup"):
        manager, server = start_service(spec, database, args.cache_dir)
    _emit({"port": server.port, "setup_s": time.perf_counter() - started})
    try:
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        server.stop()
        manager.shutdown(drain=True)
        recorder.uninstall()
    if args.spans:
        recorder.write_jsonl(args.spans)
    _emit({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
