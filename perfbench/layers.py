"""Per-layer figures derived from what a workload recorded.

Two sources feed them, both outside the ORB: the spans the ORB already
records when built with ``ORB(trace=TraceRecorder())``, and the
benchmark's own timestamps around its calls into each layer (the
servant body it supplies, frame meters it attaches, stand-alone probes
of the fabric and the RTS).  Nothing here reaches into ``src/``.

Spans carry no parent field, so a span's children are the spans of the
same ``(trace_id, side, rank)`` lane whose interval lies inside its
own; a span's *self time* is its duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Iterable

METHODS = ("centralized", "multiport")

#: The fabric floor probe: timed and warm-up 8-byte echoes.
PINGPONG_ROUNDS = 400
PINGPONG_WARMUP = 50

#: The RTS probe: one client block of a 2-rank group, and rounds.
RTS_PROBE_BYTES = 2 << 20
RTS_PROBE_ROUNDS = 20

#: (side, span name) pairs whose self time is reported per method:
#: the transfer engines' stages (``repro.orb.transfer`` client side,
#: ``repro.orb.adapter`` server side).
TRANSFER_STAGES = (
    ("client", "encode"),
    ("client", "transfer"),
    ("client", "reply"),
    ("server", "transfer"),
    ("server", "reply"),
)


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[2]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[98]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _lanes(spans: Iterable[Any]) -> dict[tuple[int, str, int], list[Any]]:
    lanes: dict[tuple[int, str, int], list[Any]] = defaultdict(list)
    for span in spans:
        if span.trace_id:
            lanes[(span.trace_id, span.side, span.rank)].append(span)
    return lanes


def _covered(span: Any, lane: list[Any]) -> float:
    """Time inside ``span`` covered by the other spans of its lane."""
    inner = [
        (s.start_us, s.end_us)
        for s in lane
        if s is not span
        and s.start_us >= span.start_us
        and s.end_us <= span.end_us
        and s.dur_us < span.dur_us
    ]
    return _union_length(inner)


def span_layers(spans: list[Any]) -> dict[str, float]:
    """Transfer-stage self times per method, and the share of client
    ``invoke`` time that no child span covers."""
    lanes = _lanes(spans)
    method_of = {
        s.trace_id: s.attrs.get("engine")
        for s in spans
        if s.name == "invoke" and s.side == "client"
    }
    self_us: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    invoke_us = gap_us = 0.0
    for (trace_id, side, _rank), lane in lanes.items():
        method = method_of.get(trace_id)
        for span in lane:
            if side == "client" and span.name == "invoke":
                invoke_us += span.dur_us
                gap_us += span.dur_us - _covered(span, lane)
            elif (side, span.name) in TRANSFER_STAGES and method:
                self_us[(method, side, span.name)].append(
                    span.dur_us - _covered(span, lane)
                )
    out = {
        f"transfer.{method}.{side}.{name}_self_us": p50(
            self_us[(method, side, name)]
        )
        for method in METHODS
        for side, name in TRANSFER_STAGES
    }
    out["trace.gap_share"] = gap_us / invoke_us if invoke_us else 0.0
    return out


class ServantProbe:
    """Entry/exit timestamps of the benchmark's own servant bodies.

    A call is identified by a tag both sides know (the argument value
    of a serial call, or the collective call's sequence number on
    every server rank).  ``gauge``, when set, is read from inside the
    servant on every call — the server's in-flight count — and its
    largest value kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.gauge: Any = None
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.entries: dict[Any, list[tuple[int, float, float]]] = (
                defaultdict(list)
            )
            self._seq: dict[int, int] = defaultdict(int)
            self.gauge_max = 0

    def next_seq(self, rank: int) -> int:
        """The rank's collective call number since the last reset."""
        with self._lock:
            seq = self._seq[rank]
            self._seq[rank] = seq + 1
        return seq

    def record(self, tag: Any, rank: int, t_in: float) -> None:
        t_out = time.perf_counter()
        gauge = self.gauge() if self.gauge is not None else 0
        with self._lock:
            self.entries[tag].append((rank, t_in, t_out))
            self.gauge_max = max(self.gauge_max, gauge)


def call_paths(
    calls: list[Any], probe: ServantProbe, loop_s: float
) -> dict[str, float]:
    """Request/reply path, servant time, rank skew and concurrency.

    ``calls`` are the client's timed calls (``tag``, ``start`` and
    ``end`` from ``time.perf_counter``); the probe's timestamps share
    that clock, as client and server run in one process.
    """
    request, reply, skew = [], [], []
    bodies = [
        t_out - t_in
        for entries in probe.entries.values()
        for _, t_in, t_out in entries
    ]
    for call in calls:
        entries = probe.entries.get(call.tag)
        if not entries:
            continue
        first_in = min(t_in for _, t_in, _ in entries)
        last_in = max(t_in for _, t_in, _ in entries)
        last_out = max(t_out for _, _, t_out in entries)
        request.append(first_in - call.start)
        reply.append(call.end - last_out)
        skew.append(last_in - first_in)
    return {
        "orb.request_path_p50_us": p50(request) * 1e6,
        "orb.reply_path_p50_us": p50(reply) * 1e6,
        "adapter.servant_p50_us": p50(bodies) * 1e6,
        "adapter.rank_entry_skew_p50_us": p50(skew) * 1e6,
        "adapter.servant_concurrency_mean": (
            sum(bodies) / loop_s if loop_s > 0 else 0.0
        ),
        "server.max_inflight": float(probe.gauge_max),
    }


class FrameMeter:
    """A fabric meter (``fabric.add_meter``) tallying frames and bytes
    by message kind."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.frames: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)

    def __call__(self, src: Any, dest: Any, kind: str, nbytes: int) -> None:
        with self._lock:
            self.frames[kind] += 1
            self.nbytes[kind] += nbytes

    def per_call(self, calls: int, payload_bytes: int) -> dict[str, float]:
        """Frames per call by kind, and ORB message bytes per call
        beyond the argument payload."""
        kinds = ("request", "reply", "data")
        with self._lock:
            frames = {k: self.frames[k] for k in kinds}
            moved = sum(self.nbytes[k] for k in kinds)
        calls = max(calls, 1)
        out = {
            f"socketnet.frames_per_call.{k}": frames[k] / calls for k in kinds
        }
        out["socketnet.header_bytes_per_call"] = (
            (moved - payload_bytes) / calls
        )
        return out


def fabric_pingpong_us() -> float:
    """p50 of a raw 8-byte ``Port.send``/``recv`` echo between two
    spare TCP fabrics: the floor under every ORB call."""
    from repro.orb.socketnet import SocketFabric

    with SocketFabric("floor-a") as fab_a, SocketFabric("floor-b") as fab_b:
        ping, pong = fab_a.open_port("ping"), fab_b.open_port("pong")

        def echo() -> None:
            for _ in range(PINGPONG_ROUNDS + PINGPONG_WARMUP):
                src, _kind, payload = pong.recv(timeout=10)
                pong.send(src, bytes(payload))

        thread = threading.Thread(target=echo, name="floor-echo", daemon=True)
        thread.start()
        times = []
        try:
            for i in range(PINGPONG_ROUNDS + PINGPONG_WARMUP):
                start = time.perf_counter()
                ping.send(pong.address, b"pingpong")
                ping.recv(timeout=10)
                if i >= PINGPONG_WARMUP:
                    times.append(time.perf_counter() - start)
        finally:
            thread.join(timeout=10)
            ping.close()
            pong.close()
        if thread.is_alive():
            raise RuntimeError("fabric floor echo thread did not finish")
    return p50(times) * 1e6


def rts_probe_us() -> dict[str, float]:
    """Stand-alone thread-RTS barrier and gather of one
    ``RTS_PROBE_BYTES`` client block on a 2-rank group."""
    import numpy as np

    from repro.rts import spmd_run

    def body(ctx: Any) -> tuple[list[float], list[float]]:
        block = np.full(RTS_PROBE_BYTES // 8, float(ctx.rank))
        barrier, gather = [], []
        for _ in range(RTS_PROBE_ROUNDS):
            start = time.perf_counter()
            ctx.comm.barrier()
            barrier.append(time.perf_counter() - start)
            start = time.perf_counter()
            ctx.comm.gather(block, root=0)
            gather.append(time.perf_counter() - start)
        return barrier, gather

    barrier, gather = spmd_run(2, body, name="rts-probe", backend="thread")[0]
    return {
        "rts.barrier_p50_us": p50(barrier) * 1e6,
        "rts.gather_p50_us": p50(gather) * 1e6,
    }
