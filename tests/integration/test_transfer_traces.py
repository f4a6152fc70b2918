"""Protocol-pattern tests reproducing Figures 2 and 3.

Figure 2 (centralized): run-time-system communication (gather at the
client, scatter at the server) surrounds a single thick network
transfer between the two communicating threads.

Figure 3 (multi-port): no run-time-system gather/scatter for argument
data; instead each client thread sends directly to every server thread
whose block it overlaps.

These tests run a real invocation and assert the exact message pattern
of each figure from what was observed: every frame that crossed the
fabric (through the public ``add_meter`` hook, which reports the
rank-bearing port labels ``client:<r>:data`` and ``<object>:data<r>``)
and every run-time-system gather, scatter and barrier (by wrapping
:class:`MessagePassingRTS`).  Each figure runs on the in-process
``Fabric`` and again on two ``SocketFabric`` endpoints over loopback
TCP.
"""

import re
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.orb import request as wire
from repro.orb.naming import NamingService
from repro.orb.request import DataChunk
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import (
    KIND_CONTROL,
    KIND_DATA,
    KIND_REPLY,
    KIND_REQUEST,
)
from repro.rts.interface import MessagePassingRTS

IDL = """
typedef dsequence<double> darray;
interface diff_object {
    void diffusion(in long timestep, inout darray data);
};
"""

OBJECT = "example"
PARAM = "data"
ITEMSIZE = np.dtype(np.float64).itemsize

_CLIENT_DATA = re.compile(r"client:(\d+):data$")
_SERVER_DATA = re.compile(re.escape(OBJECT) + r":data(\d+)$")


@dataclass(frozen=True)
class RtsCall:
    op: str
    comm: str
    rank: int
    root: int | None
    #: ``(src_rank, dst_rank)`` of every step of the schedule passed.
    edges: tuple

    @property
    def server(self) -> bool:
        return self.comm.startswith("server:")


@dataclass
class Observed:
    """Frames ``(src_label, dest_label, kind, nbytes)`` and RTS calls."""

    frames: list = field(default_factory=list)
    rts: list = field(default_factory=list)

    def meter(self, src, dest, kind, nbytes):
        if kind != KIND_CONTROL:  # the shutdown wake-up, not protocol
            self.frames.append((src.label, dest.label, kind, nbytes))

    def of_kind(self, kind):
        return [f for f in self.frames if f[2] == kind]

    def chunks(self, phase):
        """``(src_rank, dst_rank, nbytes)`` of every data frame of one
        phase: request chunks go client -> server data ports, reply
        chunks server -> client."""
        src_re, dst_re = (
            (_CLIENT_DATA, _SERVER_DATA)
            if phase == wire.PHASE_REQUEST
            else (_SERVER_DATA, _CLIENT_DATA)
        )
        out = []
        for src, dest, _, nbytes in self.of_kind(KIND_DATA):
            s, d = src_re.match(src), dst_re.match(dest)
            if s and d:
                out.append((int(s.group(1)), int(d.group(1)), nbytes))
        return out

    def rts_calls(self, op, server):
        return [c for c in self.rts if c.op == op and c.server == server]


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="trace_idl")


@pytest.fixture()
def observed(monkeypatch):
    seen = Observed()
    for op in ("gather_chunks", "scatter_chunks", "synchronize"):
        original = getattr(MessagePassingRTS, op)

        def wrapper(self, *args, _op=op, _original=original, **kwargs):
            steps = args[1] if len(args) > 1 else kwargs.get("steps", ())
            seen.rts.append(RtsCall(
                _op, self.comm.name, self.rank, kwargs.get("root"),
                tuple((s.src_rank, s.dst_rank) for s in steps),
            ))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MessagePassingRTS, op, wrapper)
    return seen


@pytest.fixture()
def orbs(request, observed):
    """``(server_orb, client_orb)`` on the class's ``FABRIC``, every
    fabric metered into ``observed``."""
    if request.cls.FABRIC == "inproc":
        orb = ORB(timeout=30.0)
        server = client = orb
        fabrics = [orb.fabric]
    else:
        naming = NamingService()
        fabrics = [SocketFabric("fig-server"), SocketFabric("fig-client")]
        server = ORB(
            "fig-server", fabric=fabrics[0], naming=naming, timeout=30.0
        )
        client = ORB(
            "fig-client", fabric=fabrics[1], naming=naming, timeout=30.0
        )
    for fabric in fabrics:
        fabric.add_meter(observed.meter)
    yield server, client
    client.shutdown()
    server.shutdown()
    for fabric in fabrics:
        fabric.remove_meter(observed.meter)
        if isinstance(fabric, SocketFabric):
            fabric.close()


def run_diffusion(orbs, idl, transfer, nclient, nserver, n=120):
    server, client = orbs

    class Impl(idl.diff_object_skel):
        def diffusion(self, timestep, data):
            data.local_data()[:] += timestep

    server.serve(OBJECT, lambda ctx: Impl(), nserver)

    def client_fn(c):
        diff = idl.diff_object._spmd_bind(
            OBJECT, c.runtime, transfer=transfer
        )
        seq = idl.darray.from_global(
            np.zeros(n), comm=c.comm
        )
        diff.diffusion(1, seq)
        return seq.allgather()

    results = client.run_spmd_client(nclient, client_fn)
    np.testing.assert_array_equal(results[0], np.ones(n))


def _non_root(calls, end):
    """The ranks on the far side of ``root`` in the schedules of
    ``calls``: sources of a gather (``end=0``), destinations of a
    scatter (``end=1``)."""
    return {
        edge[end]
        for call in calls
        for edge in call.edges
        if edge[end] != call.root
    }


class TestFigure2Centralized:
    FABRIC = "inproc"
    NCLIENT, NSERVER = 3, 4

    def test_pattern(self, orbs, observed, idl):
        run_diffusion(
            orbs, idl, "centralized", self.NCLIENT, self.NSERVER
        )
        # Client-side gather: every non-communicating client thread
        # contributes its block to thread 0 (the dotted lines of
        # Figure 2, left).
        client_gathers = observed.rts_calls("gather_chunks", server=False)
        assert {c.rank for c in client_gathers} == set(range(self.NCLIENT))
        assert all(c.root == 0 for c in client_gathers)
        assert _non_root(client_gathers, 0) == set(range(1, self.NCLIENT))
        # Exactly one request and one reply cross the network (the
        # thick black line).
        assert len(observed.of_kind(KIND_REQUEST)) == 1
        assert len(observed.of_kind(KIND_REPLY)) == 1
        # No direct thread-to-thread data chunks in this method.
        assert observed.of_kind(KIND_DATA) == []
        # Server-side scatter to every non-communicating thread, and a
        # mirror gather for the inout result.
        server_scatters = observed.rts_calls("scatter_chunks", server=True)
        assert all(c.root == 0 for c in server_scatters)
        assert _non_root(server_scatters, 1) == set(range(1, self.NSERVER))
        server_gathers = observed.rts_calls("gather_chunks", server=True)
        assert all(c.root == 0 for c in server_gathers)
        assert _non_root(server_gathers, 0) == set(range(1, self.NSERVER))
        # Client scatters the returned data back over its threads.
        client_scatters = observed.rts_calls("scatter_chunks", server=False)
        assert _non_root(client_scatters, 1) == set(range(1, self.NCLIENT))

    def test_synchronization_points(self, orbs, observed, idl):
        run_diffusion(orbs, idl, "centralized", 2, 2)

        def sequence(server, rank):
            return [
                c.op for c in observed.rts
                if c.server == server and c.rank == rank
            ]

        for rank in range(2):
            # Client: pre-invoke barrier, gather, ..., scatter,
            # post-invoke barrier.
            assert sequence(False, rank) == [
                "synchronize", "gather_chunks",
                "scatter_chunks", "synchronize",
            ]
            # Server: the post-invoke barrier separates the argument
            # scatter from the result gather.
            assert sequence(True, rank) == [
                "scatter_chunks", "synchronize", "gather_chunks",
            ]


class TestFigure3MultiPort:
    FABRIC = "inproc"
    NCLIENT, NSERVER = 3, 4

    def test_pattern(self, orbs, observed, idl):
        # 120 elements over 3 client threads (40 each) and 4 server
        # threads (30 each): client 0 -> servers {0,1}, client 1 ->
        # servers {1,2}, client 2 -> servers {2,3}.
        run_diffusion(orbs, idl, "multiport", self.NCLIENT, self.NSERVER)
        # The header still travels centralized: one request message,
        # answered by one reply message.
        assert len(observed.of_kind(KIND_REQUEST)) == 1
        assert len(observed.of_kind(KIND_REPLY)) == 1
        # Request-phase chunks: exactly the block-intersection pattern.
        request_chunks = {
            (s, d) for s, d, _ in observed.chunks(wire.PHASE_REQUEST)
        }
        assert request_chunks == {
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
        }
        # Reply-phase chunks mirror the pattern (server -> client).
        reply_chunks = {
            (s, d) for s, d, _ in observed.chunks(wire.PHASE_REPLY)
        }
        assert reply_chunks == {
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
        }
        # Every data frame is one of those chunks.
        assert len(observed.of_kind(KIND_DATA)) == 12
        # No run-time-system gather/scatter of argument data at all:
        # "communication is direct, no need for gather and scatter".
        assert [
            c for c in observed.rts if c.op != "synchronize"
        ] == []

    def test_chunk_volume_matches_argument(self, orbs, observed, idl):
        n = 120
        run_diffusion(orbs, idl, "multiport", 3, 4, n=n)
        # An element-free chunk of the same parameter is pure header.
        header = len(DataChunk(
            request_id=0, param=PARAM, phase=wire.PHASE_REQUEST,
            src_rank=0, dst_rank=0, global_lo=0, global_hi=0,
        ).encode())

        def elements(phase):
            return sum(
                (nbytes - header) // ITEMSIZE
                for _, _, nbytes in observed.chunks(phase)
            )

        sent = elements(wire.PHASE_REQUEST)
        returned = elements(wire.PHASE_REPLY)
        assert sent == n and returned == n

    def test_aligned_layouts_minimize_sends(self, orbs, observed, idl):
        """Equal client and server thread counts with blockwise layout
        on both sides: exactly one chunk per thread per direction —
        'only the minimum number of sends in each case' (§3.3)."""
        run_diffusion(orbs, idl, "multiport", 4, 4, n=128)
        request_chunks = observed.chunks(wire.PHASE_REQUEST)
        assert sorted((s, d) for s, d, _ in request_chunks) == [
            (r, r) for r in range(4)
        ]


class TestFigure2CentralizedSocket(TestFigure2Centralized):
    FABRIC = "socket"


class TestFigure3MultiPortSocket(TestFigure3MultiPort):
    FABRIC = "socket"
