"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout::

    python3 nabench/run.py --workload debug-lattice5 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it describes the query stream.  The exit code is non-zero when
any operation's output differs from the reference, and when the program
cannot be found or run (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from common import WORK_DIR, BenchError, import_program

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
    "mutate_p50_ms": "ms",
}


def _corrupt(expected: list[dict], count: int) -> None:
    """Tamper with the first ``count`` reference outcomes (self-test hook)."""
    for index in range(min(count, len(expected))):
        outcome = expected[index]
        expected[index] = {**outcome, "answers": outcome["answers"] + ["corrupted"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken workload for self-tests"
    )
    parser.add_argument(
        "--corrupt-reference",
        type=int,
        default=0,
        metavar="N",
        help="self-test: corrupt the first N reference outcomes",
    )
    args = parser.parse_args(argv)
    try:
        import_program()
        # Temporary files of sqlite and of child processes stay in the checkout.
        WORK_DIR.mkdir(exist_ok=True)
        os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(WORK_DIR)
        from layers import PER_LAYER_UNITS
        from workloads import SPECS, count_failures, run_workload

        if args.workload not in SPECS:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
    except Exception:  # a run that cannot finish prints no result
        traceback.print_exc()
        return 2
    expected = result["expected"]
    _corrupt(expected, args.corrupt_reference)
    failed = count_failures(result["outcomes"], expected)
    if args.trace:
        values, units = result["layers"], PER_LAYER_UNITS
    else:
        values, units = result["end_to_end"], END_TO_END_UNITS
    stream = {**result["script"].properties(), "writes": result["writes"]}
    print(json.dumps({"stream": stream}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(result["outcomes"]),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
