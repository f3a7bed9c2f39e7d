"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that reports the per-layer
split.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``info {...}``) carries the input digest, the host fingerprint, sample
counts and the op classes the p50/p90 ranks fell in.  See
``perfbench/WORKLOADS.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("cli-files", "serve-mix", "process-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import common

    if args.workload == "cli-files":
        import cli_files as workload
    elif args.workload == "serve-mix":
        import serve_mix as workload
    else:
        import process_pool as workload

    host = common.host_fingerprint()
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    common.adopt_orphans()
    try:
        correct, attempted, failed, values, info = workload.run(
            args.seed, args.seconds, bool(args.trace)
        )
    finally:
        common.stop_resource_tracker()
        reaped = common.reap_children()
    if not reaped:
        print("error: a child process did not exit", file=sys.stderr)
        return 1
    metrics = common.layer_metrics(values) if args.trace else values
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                host=host, error_rate=failed / max(1, attempted))
    common.emit_result(correct=correct, attempted=attempted, failed=failed,
                       metrics=metrics, info=info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
