"""Round-trip-time estimation for attempt windows (RFC 6298).

A retrying invocation used to recover from one lost frame by waiting
out the full runtime timeout.  Against a server that deduplicates
requests (it advertises a reply cache in its reference), an early
retry is harmless — the cache drops it while the original executes,
or replays the recorded reply — so the client can time an attempt out
after a few measured round trips instead.

:class:`RttEstimator` keeps the smoothed round-trip time and its mean
deviation exactly as RFC 6298 §2 does for TCP's retransmission timer:
the first sample ``R`` sets ``SRTT = R`` and ``RTTVAR = R/2``; later
ones update ``RTTVAR = (1-β)·RTTVAR + β·|SRTT-R|`` and then
``SRTT = (1-α)·SRTT + α·R``.  The retransmission timeout is
``max(MIN_RTO, SRTT + K·RTTVAR)``.  Callers apply Karn's rule (sample
only invocations that completed on their first attempt, whose reply
cannot belong to an earlier send) and the per-attempt doubling.

The gains and the floor are constants, not knobs: RFC 6298's one
second floor suits wide-area TCP, while an ORB invocation over a LAN
or loopback completes in milliseconds, so the floor here only has to
absorb scheduler jitter on a busy host.
"""

from __future__ import annotations

#: Gain of the smoothed round-trip time (RFC 6298 α).
ALPHA = 1 / 8
#: Gain of the round-trip deviation (RFC 6298 β).
BETA = 1 / 4
#: Deviation multiplier of the timeout (RFC 6298 K).
K = 4
#: Floor of the retransmission timeout, in seconds.
MIN_RTO = 0.05


class RttEstimator:
    """SRTT/RTTVAR state of one binding's operation (seconds)."""

    __slots__ = ("srtt", "rttvar")

    def __init__(self) -> None:
        self.srtt: float | None = None
        self.rttvar: float | None = None

    def sample(self, rtt: float) -> None:
        """Fold in one measured round trip."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
            return
        self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
        self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt

    def rto(self) -> float | None:
        """The retransmission timeout, or ``None`` before any sample."""
        if self.srtt is None:
            return None
        return max(MIN_RTO, self.srtt + K * self.rttvar)
