"""Compare the two argument-transfer methods, live and simulated.

Live: runs the same invocation through the real ORB under both
methods with a meter on the fabric (``orb.fabric.add_meter``), and
prints the frames that actually crossed it — the message patterns of
the paper's Figures 2 and 3.

Simulated: prints the paper's Table 1, Table 2 and Figure 4
equivalents from the calibrated testbed model (same output as
``python -m repro.bench``).

Run:  python examples/transfer_comparison.py
"""

import re
from collections import Counter

import numpy as np

from repro import ORB, compile_idl
from repro.bench import figure4, format_figure4

IDL = """
typedef dsequence<double, 2048> darray;
interface worker {
    void process(inout darray data);
};
"""

idl = compile_idl(IDL, module_name="compare_idl")

NCLIENT, NSERVER, NELEMS = 3, 4, 1200

#: Figure 3: 400-element client blocks against 300-element server
#: blocks — each client thread sends to the server threads it overlaps.
FIGURE3_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]

_CLIENT_DATA = re.compile(r"client:(\d+):data$")
_SERVER_DATA = re.compile(r"worker:data(\d+)$")


class Worker(idl.worker_skel):
    def process(self, data):
        data.local_data()[:] *= 2.0


def run_method(transfer):
    """One collective invocation; returns every (src, dest, kind)
    frame the fabric carried for it."""
    frames = []
    orb = ORB()
    orb.fabric.add_meter(
        lambda src, dest, kind, nbytes: frames.append(
            (src.label, dest.label, kind)
        )
    )
    orb.serve("worker", lambda ctx: Worker(), NSERVER)

    def client(c):
        proxy = idl.worker._spmd_bind("worker", c.runtime, transfer=transfer)
        seq = idl.darray.from_global(np.ones(NELEMS), comm=c.comm)
        proxy.process(seq)
        return seq.allgather()

    results = orb.run_spmd_client(NCLIENT, client)
    observed = list(frames)  # before shutdown's control frame
    orb.shutdown()
    assert np.all(results[0] == 2.0)
    return observed


def request_edges(frames):
    """(client rank, server rank) of every client -> server chunk."""
    edges = []
    for src, dest, kind in frames:
        s, d = _CLIENT_DATA.match(src), _SERVER_DATA.match(dest)
        if kind == "data" and s and d:
            edges.append((int(s.group(1)), int(d.group(1))))
    return sorted(edges)


def describe(frames, transfer):
    counts = Counter(kind for _, _, kind in frames)
    print(f"--- {transfer} (client={NCLIENT}, server={NSERVER}) ---")
    for kind in ("request", "reply", "data"):
        print(f"  {kind:<8} frames          : {counts[kind]}")
    edges = request_edges(frames)
    if edges:
        print(f"  request-phase chunk edges: {edges}")
    print()
    return counts, edges


def main():
    print("=" * 64)
    print("LIVE (functional plane): message patterns of Figures 2 and 3")
    print("=" * 64)
    counts, edges = describe(run_method("centralized"), "centralized")
    # Figure 2: one thick request; the RTS moves the data, not the net.
    assert counts["request"] == 1 and counts["data"] == 0 and not edges
    counts, edges = describe(run_method("multiport"), "multiport")
    assert counts["request"] == 1
    assert edges == FIGURE3_EDGES, edges

    print("=" * 64)
    print("SIMULATED (performance plane): Figure 4 on the 1997 testbed")
    print("=" * 64)
    print(format_figure4(figure4()))
    print()
    print("run `python -m repro.bench` for Tables 1-2 and the ablations")
    print("OK")


if __name__ == "__main__":
    main()
