"""The benchmark's three closed-loop workloads.

Every workload runs a client ORB and a server ORB in one process, each
on its own TCP :class:`~repro.orb.socketnet.SocketFabric` over
loopback, with the thread RTS backend.  Every workload alternates its
calls between a ``centralized``-bound and a ``multiport``-bound proxy
(the paper's §3.2 and §3.3 transfer methods), and keeps the methods
apart so the two engines never share a median.

``seed`` drives every input: call arguments, payload values and the
fault schedule.  ``trace`` is ``None`` for the end-to-end runs; given
a :class:`~repro.trace.TraceRecorder`, the run also takes the
per-layer measurements of :mod:`layers` (servant probes, frame
meters, ``orb.stats()`` deltas, stand-alone fabric and RTS probes),
which perturb the timing and so never feed an end-to-end figure.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

import layers
from layers import METHODS, FrameMeter, ServantProbe

#: Full set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 11

#: Echo payload of ``pipelined_nb`` and ``lossy_rpc``: 64 KiB.
ECHO_DOUBLES = 8192

#: ``spmd_bulk`` payload: 4 MiB of doubles, 2 client x 3 server ranks.
BULK_DOUBLES = 1 << 19
BULK_CLIENT_RANKS = 2
BULK_SERVER_RANKS = 3

#: ``pipelined_nb``: outstanding calls, and the servant's service time.
#: With 4 dispatch workers the service time caps the rate at 200 calls/s,
#: about a third of what one CPU sustains, so the figures show whether
#: calls overlap rather than how fast the host runs: at 2 ms the loop
#: was CPU-bound and its p50 moved by a third as the host's speed did.
DEPTH = 8
SERVICE_S = 0.02

#: ``lossy_rpc``: a round is ``LOSS_ROUND`` calls under a fresh drop
#: schedule from the same seed.  Alternating methods, a round sends
#: 300 frames without loss (1 per centralized call, 2 per multiport
#: call); the schedule drops one in each of the first ``LOSS_DROPS``
#: blocks of ``LOSS_PERIOD`` client sends: 1% loss, and the same
#: number of faults in every round by construction.
LOSS_PERIOD = 100
LOSS_ROUND = 200
LOSS_DROPS = 3
LOSS_TIMEOUT_S = 0.5
LOSS_REPLY_CACHE = 4 << 20

ECHO_IDL = """
typedef dsequence<double, 8192> payload;

interface echo {
    payload roundtrip(in payload data);
};
"""

BULK_IDL = """
typedef dsequence<double, 524288> field_t;

interface diffuser {
    void diffusion(in long t, inout field_t d);
};
"""


@dataclass(frozen=True)
class Call:
    """One verified call of a timed loop (``perf_counter`` seconds)."""

    method: str
    tag: Any
    start: float
    end: float
    retried: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Measured:
    """What one run of a workload measured."""

    payload_per_call: int = 0
    setups: list[float] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    loop_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def payload_bytes(self) -> int:
        return self.payload_per_call * len(self.calls)

    def check(self, ok: bool, what: str) -> bool:
        """Count one verified operation; a failed one is remembered."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class _Clock:
    """The timed loop's deadline; starts after a full collection so
    the cycle collector does not run on the garbage of set-up."""

    def __init__(self, seconds: float) -> None:
        gc.collect()
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def stop(self, out: Measured, end: float | None = None) -> None:
        out.loop_s = (time.perf_counter() if end is None else end) - self.start


class EvenDrop:
    """A seeded drop schedule for :class:`~repro.ft.faults.FaultyFabric`.

    It drops exactly one eligible send in each of the first
    ``LOSS_DROPS`` blocks of ``LOSS_PERIOD`` sends, at an offset drawn
    from the seed for each block.  A Bernoulli schedule at the same
    rate injects a seed-dependent number of faults, and since each
    fault costs a full attempt timeout, that count would dominate the
    run-to-run spread; here only the positions depend on the seed.
    """

    kinds = ("request", "reply", "data")
    delay_ms = 0.0

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._sent = 0
        self._target = 0

    def decide(self, kind: str) -> tuple[str, ...]:
        if kind not in self.kinds:
            return ()
        with self._lock:
            block, index = divmod(self._sent, LOSS_PERIOD)
            self._sent += 1
            if block >= LOSS_DROPS:
                return ()
            if index == 0:
                self._target = self._rng.randrange(LOSS_PERIOD)
            return ("drop",) if index == self._target else ()


class _NoFaults:
    delay_ms = 0.0

    def decide(self, kind: str) -> tuple[str, ...]:
        return ()


# ---------------------------------------------------------------------------
# The shared two-ORB stack
# ---------------------------------------------------------------------------


@dataclass
class Stack:
    idl: Any
    server_orb: Any
    client_orb: Any
    server_fabric: Any
    client_fabric: Any
    #: The client-side FaultyFabric, when the workload injects faults.
    faulty: Any
    t0: float
    #: Set-up layer timings (``idl.compile_ms``, ...).
    timings: dict[str, float]


@contextmanager
def two_orbs(
    idl_source: str,
    module_name: str,
    serve: Callable[[Any, Any], None],
    out: Measured,
    *,
    trace: Any = None,
    timeout: float = 60.0,
    faulty: bool = False,
) -> Iterator[Stack]:
    """Compile, build both fabrics and ORBs, activate the servant;
    on exit tear everything down and check it left nothing behind.

    ``serve(server_orb, idl)`` activates the object.  Set-up time
    starts here, before ``compile_idl``.
    """
    from repro import ORB, FaultyFabric, compile_idl
    from repro.orb.naming import NamingService
    from repro.orb.socketnet import SocketFabric
    from repro.rts.shm import leaked_segments

    t0 = time.perf_counter()
    idl = compile_idl(idl_source, module_name=module_name).module
    t_compiled = time.perf_counter()
    naming = NamingService()
    server_fabric = SocketFabric("bench-server")
    client_fabric = SocketFabric("bench-client")
    ports_before = (
        server_fabric.open_port_count(),
        client_fabric.open_port_count(),
    )
    wrapped = FaultyFabric(client_fabric, _NoFaults()) if faulty else None
    server_orb = ORB(
        "bench-server", fabric=server_fabric, naming=naming,
        timeout=timeout, trace=trace,
    )
    client_orb = ORB(
        "bench-client", fabric=wrapped or client_fabric, naming=naming,
        timeout=timeout, trace=trace,
    )
    t_serve = time.perf_counter()
    serve(server_orb, idl)
    stack = Stack(
        idl, server_orb, client_orb, server_fabric, client_fabric,
        wrapped, t0,
        {
            "idl.compile_ms": (t_compiled - t0) * 1e3,
            "core.serve_ms": (time.perf_counter() - t_serve) * 1e3,
        },
    )
    try:
        yield stack
    finally:
        # A retried multiport request may hold a dispatch slot until
        # its chunk wait times out; give it that long to drain.
        deadline = time.perf_counter() + 2 * min(timeout, 2.0)
        while (
            server_fabric.server_stats()["requests"]["inflight"]
            and time.perf_counter() < deadline
        ):
            time.sleep(0.01)
        inflight = server_orb.stats()["server"]["requests"]["inflight"]
        out.check(inflight == 0, f"{inflight} requests in flight at teardown")
        client_orb.shutdown()
        server_orb.shutdown()
        ports_after = (
            server_fabric.open_port_count(),
            client_fabric.open_port_count(),
        )
        out.check(
            ports_after == ports_before,
            f"open ports {ports_after} after teardown, {ports_before} before",
        )
        client_fabric.close()
        server_fabric.close()
        leaked = leaked_segments()
        out.check(not leaked, f"leaked shm segments {leaked}")


def _bind_all(
    stack: Stack, proxy_cls: Any, name: str, runtime: Any
) -> dict[str, Any]:
    """One proxy per transfer method."""
    start = time.perf_counter()
    proxies = {m: proxy_cls._bind(name, runtime, transfer=m) for m in METHODS}
    stack.timings["naming.bind_ms"] = (time.perf_counter() - start) * 1e3
    return proxies


def _inflight_gauge(orb: Any) -> Callable[[], int]:
    fabric = orb.fabric
    return lambda: fabric.server_stats()["requests"]["inflight"]


# ---------------------------------------------------------------------------
# Per-layer bookkeeping of a traced run
# ---------------------------------------------------------------------------


def _orb_counters(orb: Any) -> dict[str, int]:
    """The ``orb.stats()`` counters the layer figures are deltas of."""
    stats = orb.stats()
    cache = stats["transfer_schedule_cache"]
    return {
        "copy_bytes": stats["cdr_copies"]["bytes"],
        "copy_events": stats["cdr_copies"]["events"],
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "retries": stats["ft"].get("retries", 0),
        "agreements": stats["ft"].get("agreements", 0),
    }


class _LayerRecorder:
    """Everything a traced timed loop records besides the calls:
    ``orb.stats()`` counters before and after, and frame meters on
    both fabrics.  Inert for an untraced run."""

    def __init__(self, stack: Stack, trace: Any) -> None:
        self.stack = stack
        self.trace = trace
        self.meter = FrameMeter()
        self._fabrics = (stack.client_fabric, stack.server_fabric)
        self.before: dict[str, int] = {}
        self.after: dict[str, int] = {}

    def __enter__(self) -> "_LayerRecorder":
        if self.trace is not None:
            self.before = _orb_counters(self.stack.client_orb)
            for fabric in self._fabrics:
                fabric.add_meter(self.meter)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.trace is not None:
            for fabric in self._fabrics:
                fabric.remove_meter(self.meter)
            self.after = _orb_counters(self.stack.client_orb)

    def summarize(self, out: Measured, probe: ServantProbe) -> None:
        """Fill ``out.layers`` from the loop's records."""
        calls = max(len(out.calls), 1)
        d = {k: self.after[k] - self.before[k] for k in self.before}
        lookups = d["cache_hits"] + d["cache_misses"]
        attempts = len(out.calls) + d["retries"]
        server = self.stack.server_orb.stats()["server"]
        every = [c.seconds for c in out.calls]
        tail = layers.p99(every)
        out.layers.update(self.stack.timings)
        out.layers.update(layers.call_paths(out.calls, probe, out.loop_s))
        out.layers.update(self.meter.per_call(calls, out.payload_bytes))
        out.layers.update(layers.span_layers(self.trace.spans()))
        out.layers.update({
            "cdr.copies_per_payload_byte": (
                d["copy_bytes"] / max(out.payload_bytes, 1)
            ),
            "cdr.copy_events_per_call": d["copy_events"] / calls,
            "dist.schedule_cache_hit_ratio": (
                d["cache_hits"] / lookups if lookups else 0.0
            ),
            "ft.retries_per_call": d["retries"] / calls,
            "ft.useful_attempt_ratio": (
                len(out.calls) / attempts if attempts else 0.0
            ),
            "ft.agreements_per_call": d["agreements"] / calls,
            "server.requests_rejected": float(
                server["requests"]["rejected"]
                + server["connections"]["rejected"]
            ),
            "tail.call_p90_ms": layers.p90(every) * 1e3,
            "tail.call_p99_ms": tail * 1e3,
            "tail.samples_beyond_p99": float(sum(v > tail for v in every)),
        })
        clean = {
            m: layers.p50([
                c.seconds for c in out.calls
                if c.method == m and not c.retried
            ])
            for m in METHODS
        }
        excess = [c.seconds - clean[c.method] for c in out.calls if c.retried]
        out.layers["ft.recovery_ms"] = (
            sum(excess) / len(excess) * 1e3 if excess else 0.0
        )
        for name in (
            "proxy.submit_p50_us", "proxy.future_wait_p50_us",
            "ft.faults_injected",
        ):
            out.layers.setdefault(name, 0.0)


def _calibrate(out: Measured) -> None:
    """Stand-alone floors: raw fabric ping-pong and RTS collectives."""
    out.layers["socketnet.pingpong_p50_us"] = layers.fabric_pingpong_us()
    out.layers.update(layers.rts_probe_us())


# ---------------------------------------------------------------------------
# lossy_rpc: blocking serial calls, window 1
# ---------------------------------------------------------------------------


def _timed_call(
    out: Measured,
    runtime: Any,
    proxies: dict[str, Any],
    call: Callable[[Any], tuple[Any, bool]],
    i: int,
) -> bool:
    """Call ``i`` of a blocking loop, on alternating methods; False
    when it raised."""
    method = METHODS[i % 2]
    retries = runtime.ft_stats.snapshot()["retries"]
    start = time.perf_counter()
    try:
        tag, ok = call(proxies[method])
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        out.check(False, f"{method} call raised {exc!r}")
        return False
    end = time.perf_counter()
    retried = runtime.ft_stats.snapshot()["retries"] != retries
    if out.check(ok, f"{method} reply {i} is wrong"):
        out.calls.append(Call(method, tag, start, end, retried))
    return True


def _echo_servant(
    idl: Any, probe: ServantProbe, traced: bool, service_s: float
) -> Callable[[Any], Any]:
    class Echo(idl.echo_skel):
        def roundtrip(self, data: Any) -> Any:
            t_in = time.perf_counter()
            if service_s:
                time.sleep(service_s)
            if traced:
                probe.record(float(data.local_data()[0]), 0, t_in)
            return data

    return lambda ctx: Echo()


class _EchoInputs:
    """Seeded 64 KiB payloads; element 0 carries a unique call tag."""

    def __init__(self, seed: int, idl: Any) -> None:
        self.base = np.random.default_rng(seed).random(ECHO_DOUBLES)
        self.idl = idl
        self.next_tag = 1.0

    def make(self) -> tuple[float, Any]:
        tag = self.next_tag
        self.next_tag += 1.0
        self.base[0] = tag
        return tag, self.idl.payload.from_global(self.base)  # copies

    def matches(self, tag: float, result: Any) -> bool:
        got = result.local_data()
        return (
            len(got) == ECHO_DOUBLES
            and got[0] == tag
            and np.array_equal(got[1:], self.base[1:])
        )


def lossy_rpc(seed: int, seconds: float, trace: Any, setups: int) -> Measured:
    """Blocking 64 KiB echoes through a client-side ``FaultyFabric``
    dropping 1% of sends, under a retrying ``FtPolicy`` and a server
    reply cache."""
    from repro.ft import FtPolicy

    out = Measured(payload_per_call=2 * ECHO_DOUBLES * 8)
    probe = ServantProbe()
    traced = trace is not None
    # As in repro.bench.faults: a generous retry budget, no deadline,
    # short backoff (the attempt timeout already paces retries).
    policy = FtPolicy(max_retries=12, backoff_base_ms=5.0, backoff_cap_ms=50.0)

    def serve(orb: Any, idl: Any) -> None:
        probe.gauge = _inflight_gauge(orb)
        orb.serve(
            "echo", _echo_servant(idl, probe, traced, 0.0),
            nthreads=1, dispatch_policy="concurrent",
            reply_cache_bytes=LOSS_REPLY_CACHE,
        )

    if traced:
        _calibrate(out)
    for k in range(setups):
        with two_orbs(
            ECHO_IDL, "bench_lossy_idl", serve, out, trace=trace,
            timeout=LOSS_TIMEOUT_S, faulty=True,
        ) as stack:
            inputs = _EchoInputs(seed, stack.idl)

            def call(proxy: Any) -> tuple[float, bool]:
                tag, data = inputs.make()
                return tag, inputs.matches(tag, proxy.roundtrip(data))

            runtime = stack.client_orb.client_runtime(
                label="lossy-rpc", ft_policy=policy
            )
            proxies = _bind_all(stack, stack.idl.echo, "echo", runtime)
            ok = call(proxies["centralized"])[1]
            out.setups.append(time.perf_counter() - stack.t0)
            out.check(ok, "first echo reply is wrong")
            if k == setups - 1:
                for i in range(20):  # warm-up, no faults yet
                    ok = call(proxies[METHODS[i % 2]])[1]
                    out.check(ok, "warm-up reply is wrong")
                with _LayerRecorder(stack, trace) as rec:
                    probe.reset()
                    faults = _lossy_rounds(
                        out, stack, runtime, proxies, call, seed, seconds
                    )
                if traced:
                    rec.summarize(out, probe)
                    out.layers["ft.faults_injected"] = (
                        sum(faults) / len(faults)
                    )
    return out


def _lossy_rounds(
    out: Measured,
    stack: Stack,
    runtime: Any,
    proxies: dict[str, Any],
    call: Callable[[Any], tuple[Any, bool]],
    seed: int,
    seconds: float,
) -> list[int]:
    """Whole rounds of ``LOSS_ROUND`` calls until ``seconds`` passed;
    returns the faults the fabric injected in each round."""
    faulty = stack.faulty

    def injected() -> int:
        stats = faulty.fault_stats()
        return sum(n for action, n in stats.items() if action != "forwarded")

    clock = _Clock(seconds)
    faults: list[int] = []
    while not faults or clock.running():
        faulty.schedule = EvenDrop(seed)
        before = injected()
        ok = all(
            _timed_call(out, runtime, proxies, call, i)
            for i in range(LOSS_ROUND)
        )
        faulty.schedule = _NoFaults()
        faults.append(injected() - before)
        if not ok:
            break
    clock.stop(out)
    return faults


# ---------------------------------------------------------------------------
# pipelined_nb: a sliding window of non-blocking echoes
# ---------------------------------------------------------------------------


def pipelined_nb(
    seed: int, seconds: float, trace: Any, setups: int
) -> Measured:
    """``DEPTH`` outstanding ``roundtrip_nb`` 64 KiB echoes against a
    stateless servant that sleeps ``SERVICE_S`` per call, served with
    ``dispatch_policy="concurrent"``."""
    out = Measured(payload_per_call=2 * ECHO_DOUBLES * 8)
    probe = ServantProbe()
    traced = trace is not None

    def serve(orb: Any, idl: Any) -> None:
        probe.gauge = _inflight_gauge(orb)
        orb.serve(
            "echo", _echo_servant(idl, probe, traced, SERVICE_S),
            nthreads=1, dispatch_policy="concurrent",
        )

    if traced:
        _calibrate(out)
    for k in range(setups):
        with two_orbs(
            ECHO_IDL, "bench_pipe_idl", serve, out, trace=trace
        ) as stack:
            inputs = _EchoInputs(seed, stack.idl)
            runtime = stack.client_orb.client_runtime(
                label="pipelined-nb", pipeline_depth=DEPTH
            )
            proxies = _bind_all(stack, stack.idl.echo, "echo", runtime)
            tag, data = inputs.make()
            ok = inputs.matches(tag, proxies["centralized"].roundtrip(data))
            out.setups.append(time.perf_counter() - stack.t0)
            out.check(ok, "first echo reply is wrong")
            if k == setups - 1:
                _sliding_window(
                    out, stack, proxies, inputs, seconds, trace, probe
                )
    return out


def _sliding_window(
    out: Measured,
    stack: Stack,
    proxies: dict[str, Any],
    inputs: _EchoInputs,
    seconds: float,
    trace: Any,
    probe: ServantProbe,
) -> None:
    pending: list[tuple[str, float, float, Any, list[float]]] = []
    submit_s: list[float] = []
    wait_s: list[float] = []
    clock: _Clock | None = None

    def submit(i: int) -> None:
        method = METHODS[i % 2]
        tag, data = inputs.make()
        resolved: list[float] = []
        start = time.perf_counter()
        future = proxies[method].roundtrip_nb(data)
        submit_s.append(time.perf_counter() - start)
        future.add_done_callback(
            lambda _f: resolved.append(time.perf_counter())
        )
        pending.append((method, tag, start, future, resolved))

    def retire() -> None:
        method, tag, start, future, resolved = pending.pop(0)
        t_wait = time.perf_counter()
        try:
            result = future.value(timeout=60)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            out.check(False, f"{method} echo raised {exc!r}")
            return
        wait_s.append(time.perf_counter() - t_wait)
        end = resolved[0] if resolved else time.perf_counter()
        ok = out.check(inputs.matches(tag, result), f"{method} echo is wrong")
        if ok and clock is not None:
            out.calls.append(Call(method, tag, start, end))

    for i in range(4 * DEPTH):  # warm-up at full depth
        submit(i)
        if len(pending) == DEPTH:
            retire()
    while pending:
        retire()
    submit_s.clear()
    wait_s.clear()
    with _LayerRecorder(stack, trace) as rec:
        probe.reset()
        clock = _Clock(seconds)
        i = 0
        while clock.running():
            submit(i)
            i += 1
            if len(pending) == DEPTH:
                retire()
        while pending:
            retire()
        clock.stop(out)
    if trace is not None:
        rec.summarize(out, probe)
        out.layers["proxy.submit_p50_us"] = layers.p50(submit_s) * 1e6
        out.layers["proxy.future_wait_p50_us"] = layers.p50(wait_s) * 1e6


# ---------------------------------------------------------------------------
# spmd_bulk: 2-rank client, 3-rank servant, 4 MiB collective inout
# ---------------------------------------------------------------------------


def spmd_bulk(seed: int, seconds: float, trace: Any, setups: int) -> Measured:
    """Collective ``diffusion(in long t, inout field_t d)`` on 4 MiB,
    alternating a centralized- and a multiport-bound proxy, the client
    ranks barriering before each call."""
    out = Measured(payload_per_call=2 * BULK_DOUBLES * 8)
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1000, BULK_DOUBLES).astype(np.float64)
    probe = ServantProbe()
    traced = trace is not None

    def serve(orb: Any, idl: Any) -> None:
        class Diffuser(idl.diffuser_skel):
            def diffusion(self, t: int, d: Any) -> None:
                t_in = time.perf_counter()
                d.local_data()[:] += float(t)
                if traced:
                    probe.record(probe.next_seq(self.rank), self.rank, t_in)

        probe.gauge = _inflight_gauge(orb)
        orb.serve(
            "diffuser", lambda ctx: Diffuser(), nthreads=BULK_SERVER_RANKS
        )

    if traced:
        _calibrate(out)
    for k in range(setups):
        timed = k == setups - 1
        with two_orbs(
            BULK_IDL, "bench_bulk_idl", serve, out, trace=trace
        ) as stack:
            rec = _LayerRecorder(stack, trace)
            try:
                results = stack.client_orb.run_spmd_client(
                    BULK_CLIENT_RANKS, _bulk_client, stack, base, seed,
                    seconds if timed else 0.0, rec, probe, name="bulk",
                    timeout=seconds + 120,
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                out.check(False, f"spmd client raised {exc!r}")
                continue
            _merge_bulk(out, results)
            if timed and traced:
                stack.timings["naming.bind_ms"] = results[0]["bind_ms"]
                rec.summarize(out, probe)
                barriers = [b for r in results for b in r["barrier"]]
                out.layers["rts.barrier_p50_us"] = layers.p50(barriers) * 1e6
    return out


def _bulk_client(
    c: Any,
    stack: Stack,
    base: np.ndarray,
    seed: int,
    seconds: float,
    rec: _LayerRecorder,
    probe: ServantProbe,
) -> dict[str, Any]:
    """One client rank: bind, first verified call (the end of set-up),
    then, given ``seconds``, the timed loop."""
    idl, comm = stack.idl, c.comm
    rank0 = c.rank == 0
    res: dict[str, Any] = {"checks": [], "calls": [], "barrier": []}
    start = time.perf_counter()
    proxies = {
        m: idl.diffuser._spmd_bind("diffuser", c.runtime, transfer=m)
        for m in METHODS
    }
    res["bind_ms"] = (time.perf_counter() - start) * 1e3
    d = idl.field_t.from_global(base, comm=comm)
    expected = d.local_data().copy()
    steps = random.Random(seed)  # the same t sequence on every rank
    total = 0

    def one_call(i: int) -> tuple[str, float, float, bool]:
        nonlocal total
        method = METHODS[i % 2]
        t = steps.randrange(1, 100)
        t_start = time.perf_counter()
        proxies[method].diffusion(t, d)
        t_end = time.perf_counter()
        total += t
        expected[:] += t
        return method, t_start, t_end, np.array_equal(d.local_data(), expected)

    res["checks"].append(one_call(0)[3])
    comm.barrier()
    res["setup_s"] = time.perf_counter() - stack.t0
    if seconds <= 0:
        return res
    for i in range(1, 5):  # warm-up, both methods
        res["checks"].append(one_call(i)[3])
    comm.barrier()
    with ExitStack() as on_rank0:
        if rank0:
            on_rank0.enter_context(rec)
            probe.reset()
        clock = _Clock(seconds)
        i = 5
        while comm.bcast(clock.running() if rank0 else None, root=0):
            t_b = time.perf_counter()
            comm.barrier()
            res["barrier"].append(time.perf_counter() - t_b)
            res["calls"].append(one_call(i))
            i += 1
        comm.barrier()
        res["clock"], res["loop_end"] = clock, time.perf_counter()
    res["final_ok"] = bool(np.array_equal(d.allgather(), base + total))
    return res


def _merge_bulk(out: Measured, results: list[dict]) -> None:
    """Fold the client ranks' results into ``out``; a collective call
    spans from the first rank's start to the last rank's return."""
    out.setups.append(max(r["setup_s"] for r in results))
    for r in results:
        for ok in r["checks"]:
            out.check(ok, "spmd diffusion left a wrong block")
    if "clock" not in results[0]:
        return
    r0, r1 = results
    out.check(r0["final_ok"] and r1["final_ok"], "final allgather is wrong")
    clock = r0["clock"]
    for seq, (a, b) in enumerate(zip(r0["calls"], r1["calls"])):
        method, start, end = a[0], min(a[1], b[1]), max(a[2], b[2])
        if out.check(a[3] and b[3], f"{method} call {seq} left a wrong block"):
            out.calls.append(Call(method, seq, start, end))
    clock.stop(out, r0["loop_end"])
