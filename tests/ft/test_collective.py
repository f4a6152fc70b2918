"""The ISSUE acceptance scenarios: a collective client on a lossy
socket fabric completes 100 invocations with retries (no hang, no
rank divergence), and with retries disabled every rank raises the
identical DeadlineExceeded at the identical collective index."""

import threading
import time

import numpy as np
import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultSchedule, FaultyFabric
from repro.ft.policy import DeadlineExceeded
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.rts.mpi import SUM

COLLECTIVE_IDL = """
typedef dsequence<double, 8192> vec;

interface accum {
    double checksum(in vec data);
};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(COLLECTIVE_IDL, module_name="collective_ft_idl")


def _servant_factory(idl):
    class Accum(idl.accum_skel):
        def checksum(self, data):
            total = data.local_data().sum()
            if self.comm is not None:
                total = self.comm.allreduce(total, op=SUM)
            return float(total)

    return lambda ctx: Accum()


class Valve:
    """Drops the listed frame kinds while armed (deterministic
    alternative to a seeded schedule for the deadline scenario)."""

    def __init__(self, kinds):
        self.kinds = frozenset(kinds)
        self.armed = False

    def decide(self, kind):
        if self.armed and kind in self.kinds:
            return ("drop",)
        return ()


def test_collective_client_completes_100_invocations_at_1pct_loss(idl):
    """Acceptance: seeded 1% frame drop on the client's socket fabric;
    a 2-thread collective client finishes 100 multiport invocations
    with retries, every rank seeing every correct result.

    Early retries (RTT-derived windows against the deduplicating
    server) must keep the ranks in lockstep with identical ft
    counters, and the faults must cost less than half of
    ``faults × timeout`` over the same 100 invocations run clean."""
    naming = NamingService()
    with SocketFabric("ft-acc-server") as sf, \
            SocketFabric("ft-acc-client") as cf:
        faulty = FaultyFabric(cf, FaultSchedule(seed=1234, drop=0.0))
        server = ORB(
            "ft-acc-server", fabric=sf, naming=naming, timeout=0.5
        )
        client = ORB(
            "ft-acc-client", fabric=faulty, naming=naming, timeout=0.5
        )
        with server, client:
            server.serve(
                "accum",
                _servant_factory(idl),
                nthreads=2,
                reply_cache_bytes=1 << 20,
            )
            policy = FtPolicy(
                max_retries=10, backoff_base_ms=2.0, backoff_cap_ms=20.0
            )
            n = 512

            def run(c):
                proxy = idl.accum._spmd_bind(
                    "accum",
                    c.runtime,
                    transfer="multiport",
                    ft_policy=policy,
                )
                seq = idl.vec.from_global(
                    np.ones(n, dtype=np.float64), comm=c.comm
                )

                def timed() -> tuple[list[float], float]:
                    start = time.monotonic()
                    sums = [proxy.checksum(seq) for _ in range(100)]
                    return sums, time.monotonic() - start

                # The clean pass also gives the binding its round-trip
                # samples (until the first, every window is the full
                # timeout); the seeded loss then covers the second.
                _, clean = timed()
                c.comm.barrier()
                if c.rank == 0:
                    faulty.schedule = FaultSchedule(seed=1234, drop=0.01)
                c.comm.barrier()
                sums, lossy = timed()
                return sums, lossy - clean, c.runtime.ft_stats.snapshot()

            results = client.run_spmd_client(2, run, timeout=300.0)
            (sums0, excess0, ft0), (sums1, excess1, ft1) = results
            assert sums0 == sums1 == [float(n)] * 100
            # The seeded schedule injected real faults; if not, this
            # test silently stopped testing the retry path.
            stats = faulty.fault_stats()
            assert stats["drop"] > 0
            assert max(excess0, excess1) < 0.5 * stats["drop"] * 0.5
            assert ft0 == ft1
            assert ft0["retries"] > 0


def test_disabled_retries_raise_identical_deadline_on_all_ranks(idl):
    """Acceptance: retries off, the request path cut — both ranks of
    the collective client raise the same DeadlineExceeded, naming the
    same collective index, after agreeing on the failure."""
    valve = Valve(kinds=("request",))
    naming = NamingService()
    with SocketFabric("ft-dl-server") as sf, \
            SocketFabric("ft-dl-client") as cf:
        faulty = FaultyFabric(cf, valve)
        server = ORB(
            "ft-dl-server", fabric=sf, naming=naming, timeout=0.3
        )
        client = ORB(
            "ft-dl-client", fabric=faulty, naming=naming, timeout=0.3
        )
        with server, client:
            server.serve("accum", _servant_factory(idl), nthreads=1)
            policy = FtPolicy(deadline_ms=300.0, max_retries=0)
            barrier = threading.Barrier(2)
            n = 64

            def run(c):
                proxy = idl.accum._spmd_bind(
                    "accum", c.runtime, ft_policy=policy
                )
                seq = idl.vec.from_global(
                    np.ones(n, dtype=np.float64), comm=c.comm
                )
                for _ in range(3):
                    assert proxy.checksum(seq) == float(n)
                barrier.wait()
                if c.rank == 0:
                    valve.armed = True
                barrier.wait()
                try:
                    proxy.checksum(seq)
                except DeadlineExceeded as exc:
                    return (
                        exc.collective_index,
                        exc.operation,
                        exc.attempts,
                        str(exc),
                    )
                return "no exception raised"

            r0, r1 = client.run_spmd_client(2, run, timeout=120.0)
            assert r0 == r1
            index, operation, attempts, _message = r0
            assert index == 3  # the fourth collective invocation
            assert operation == "checksum"
            assert attempts == 0
