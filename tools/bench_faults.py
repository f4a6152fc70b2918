#!/usr/bin/env python
"""Run the fault-injection benchmark and emit BENCH_faults.json.

Usage::

    PYTHONPATH=src python tools/bench_faults.py                # full sweep
    PYTHONPATH=src python tools/bench_faults.py --smoke        # CI subset
    PYTHONPATH=src python tools/bench_faults.py --smoke \\
        --gate-goodput                      # completion + goodput gate

Sweeps frame-loss rates (default 0% and 1%) over both transfer
methods on the selected fabrics, with a retrying client policy and a
reply-caching server behind a seeded
:class:`~repro.ft.faults.FaultyFabric`.  ``--gate-goodput`` fails
(exit 1) when any point leaves an invocation uncompleted, its
goodput is not positive, or a lossy point's mean excess wall time
per injected fault (over the lossless point of the same fabric and
method) exceeds half of ``--timeout`` — the coarse guarantee that the
fault-tolerance layer converts loss into a short retry window rather
than hangs or full timeouts.  Absolute MB/s numbers are
machine-dependent and never gated on.

See ``docs/robustness.md`` for the methodology.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.faults import (  # noqa: E402
    DEFAULT_LOSS_RATES,
    DEFAULT_REQUESTS,
    DEFAULT_SIZE,
    DEFAULT_TIMEOUT_S,
    MAX_EXCESS_PER_FAULT,
    SMOKE_LOSS_RATES,
    SMOKE_REQUESTS,
    SMOKE_SIZE,
    format_faults,
    gate_failures,
    points_as_dicts,
    run_faults,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fabric",
        choices=["inproc", "socket", "both"],
        default="both",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small payload, fewer requests (CI-friendly)",
    )
    parser.add_argument("--size", type=int, default=None, help="bytes")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument(
        "--loss",
        type=lambda s: [float(r) for r in s.split(",")],
        default=None,
        help="comma-separated frame-loss probabilities",
    )
    parser.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="frame-delay probability added at every point",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT_S,
        help="runtime timeout in seconds (caps the RTT-derived "
        "attempt window, so it bounds the cost of each lost frame)",
    )
    parser.add_argument(
        "--gate-goodput",
        action="store_true",
        help="fail when any point leaves requests uncompleted, "
        "goodput is not positive, or a lost frame costs more than "
        "half the timeout on average",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write results JSON here",
    )
    args = parser.parse_args(argv)

    fabrics = (
        ["inproc", "socket"] if args.fabric == "both" else [args.fabric]
    )
    loss = args.loss or (
        SMOKE_LOSS_RATES if args.smoke else DEFAULT_LOSS_RATES
    )
    size = args.size or (SMOKE_SIZE if args.smoke else DEFAULT_SIZE)
    requests = args.requests or (
        SMOKE_REQUESTS if args.smoke else DEFAULT_REQUESTS
    )

    points = []
    for fabric in fabrics:
        points.extend(
            run_faults(
                fabric,
                loss,
                delay_rate=args.delay,
                seed=args.seed,
                size_bytes=size,
                requests=requests,
                timeout_s=args.timeout,
            )
        )
    print(format_faults(points))

    failures = []
    if args.gate_goodput:
        failures = gate_failures(points, args.timeout)
        print(
            "\nfaults gate: every invocation completes, goodput > 0, "
            f"excess per fault <= {MAX_EXCESS_PER_FAULT:g} x timeout"
        )
        for line in failures or ["  all points ok"]:
            print(f"  {line}" if line != "  all points ok" else line)

    if args.out is not None:
        payload = {
            "benchmark": "faults",
            "units": {
                "goodput_mb_per_s": (
                    "completed payload MB per second of wall clock, "
                    "both directions"
                ),
            },
            "parameters": {
                "size_bytes": size,
                "requests": requests,
                "loss_rates": loss,
                "delay_rate": args.delay,
                "seed": args.seed,
                "timeout_s": args.timeout,
            },
            "results": points_as_dicts(points),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if failures:
        print(f"{len(failures)} point(s) failed the gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
