"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload spmd_bulk --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout: the ORB is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics of an untraced run; with ``--trace 1``
it holds the per-layer metrics of a traced run (a third of
``--seconds`` untraced, a third traced, so ``trace.overhead_ratio``
compares the two, and a third untraced on every CPU of the affinity
set for the ``all_cpus.*`` figures).
Earlier lines record the host and, when something failed, what.
Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from layers import METHODS, TRANSFER_STAGES, p50, p75

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Where a traced run writes its spans (Chrome trace format).
TRACE_DIR = os.path.join(HERE, "out")


#: Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    "idl.compile_ms": "ms",
    "core.serve_ms": "ms",
    "naming.bind_ms": "ms",
    "socketnet.pingpong_p50_us": "us",
    "socketnet.frames_per_call.request": "count",
    "socketnet.frames_per_call.reply": "count",
    "socketnet.frames_per_call.data": "count",
    "socketnet.header_bytes_per_call": "B",
    "orb.request_path_p50_us": "us",
    "orb.reply_path_p50_us": "us",
    "proxy.submit_p50_us": "us",
    "proxy.future_wait_p50_us": "us",
    "adapter.servant_p50_us": "us",
    "adapter.rank_entry_skew_p50_us": "us",
    "adapter.servant_concurrency_mean": "count",
    "server.requests_rejected": "count",
    "server.max_inflight": "count",
    **{
        f"transfer.{method}.{side}.{stage}_self_us": "us"
        for method in METHODS
        for side, stage in TRANSFER_STAGES
    },
    "cdr.copies_per_payload_byte": "ratio",
    "cdr.copy_events_per_call": "count",
    "dist.schedule_cache_hit_ratio": "ratio",
    "rts.barrier_p50_us": "us",
    "rts.gather_p50_us": "us",
    "ft.faults_injected": "count",
    "ft.retries_per_call": "count",
    "ft.useful_attempt_ratio": "ratio",
    "ft.recovery_ms": "ms",
    "ft.agreements_per_call": "count",
    "trace.overhead_ratio": "ratio",
    "trace.gap_share": "ratio",
    "centralized.call_p50_ms": "ms",
    "multiport.call_p50_ms": "ms",
    "all_cpus.centralized.call_p50_ms": "ms",
    "all_cpus.multiport.call_p50_ms": "ms",
    "all_cpus.calls_per_s": "1/s",
    "tail.call_p90_ms": "ms",
    "tail.call_p99_ms": "ms",
    "tail.samples_beyond_p99": "count",
}


def medians_ms(m) -> dict[str, float]:
    """Each method's p50 call latency in ms."""
    return {
        f"{method}.call_p50_ms": p50(
            [c.seconds for c in m.calls if c.method == method]
        ) * 1e3
        for method in METHODS
    }


def end_to_end(m) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a workload run, with their units.

    The latency is each method's p75: the p50 is reported per layer,
    because on a shared host it moved by more than the bound from
    batch to batch where the p75 did not."""
    out = {"setup_s": (p50(m.setups), "s")}
    for method in METHODS:
        lat = [c.seconds for c in m.calls if c.method == method]
        out[f"{method}.call_p75_ms"] = (p75(lat) * 1e3, "ms")
    loop_s = max(m.loop_s, 1e-9)  # 0 only when the loop failed at once
    out["calls_per_s"] = (len(m.calls) / loop_s, "1/s")
    out["payload_mb_per_s"] = (m.payload_bytes / loop_s / 1e6, "MB/s")
    return out


def host_record(cpus: list[int]) -> dict[str, object]:
    """What the figures depend on besides the code: ``affinity`` is
    the CPU set the run was given, ``pinned_cpu`` the one it used."""
    import numpy

    # The ceiling keeps git from reporting an enclosing repository's
    # commit for a checkout that is not itself a git work tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": cpus,
        "pinned_cpu": cpus[-1],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rts_backend": "thread",
        "fabric": "tcp-loopback",
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no ORB sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Every thread of a measured run shares one CPU, pinned before any
    # import can start a thread, so the end-to-end figures are
    # single-CPU figures.  Client and server share one interpreter
    # lock, so a second CPU adds cross-CPU lock and wake-up handoffs
    # but no parallel Python; on a 2-vCPU VM every workload ran slower
    # and spread far wider on both CPUs than on one.  The traced run
    # still measures the workload on every CPU (``all_cpus.*``).  Which
    # CPU is pinned made no measurable difference; the last is used.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.path.insert(0, SRC)
    import workloads

    run = {
        "spmd_bulk": workloads.spmd_bulk,
        "pipelined_nb": workloads.pipelined_nb,
        "lossy_rpc": workloads.lossy_rpc,
    }.get(args.workload)
    if run is None:
        parser.error(f"unknown workload {args.workload!r}")
    print("host " + json.dumps(host_record(cpus)), flush=True)
    if args.trace:
        from repro.trace import TraceRecorder, write_chrome_trace

        third = args.seconds / 3
        plain = run(args.seed, third, None, 1)
        recorder = TraceRecorder(capacity=1 << 19)
        measured = run(args.seed, third, recorder, 1)
        # Threads inherit the affinity of the thread that starts them.
        os.sched_setaffinity(0, set(cpus))
        try:
            unpinned = run(args.seed, third, None, 1)
        finally:
            os.sched_setaffinity(0, {cpus[-1]})
        plain_p50 = medians_ms(plain)
        measured.layers.update(plain_p50)
        measured.layers["trace.overhead_ratio"] = sum(
            medians_ms(measured).values()
        ) / sum(plain_p50.values())
        for name, value in medians_ms(unpinned).items():
            measured.layers[f"all_cpus.{name}"] = value
        measured.layers["all_cpus.calls_per_s"] = (
            end_to_end(unpinned)["calls_per_s"][0]
        )
        for other in (plain, unpinned):
            measured.attempted += other.attempted
            measured.failed += other.failed
            measured.problems += other.problems
        if recorder.dropped:
            print(f"warning: {recorder.dropped} spans evicted", flush=True)
        os.makedirs(TRACE_DIR, exist_ok=True)
        write_chrome_trace(
            os.path.join(TRACE_DIR, f"{args.workload}.trace.json"), recorder
        )
        missing = [n for n in LAYER_UNITS if n not in measured.layers]
        if missing and not measured.failed:
            raise RuntimeError(f"traced run did not measure {missing}")
        metrics = {
            name: {"value": measured.layers.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        measured = run(args.seed, args.seconds, None, workloads.SETUPS)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(measured).items()
        }
    for problem in measured.problems:
        print(f"failed: {problem}", flush=True)
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
