"""RTT-derived attempt windows (repro.ft.rtt + the engines' use of it).

Unit tests pin the RFC 6298 estimator and the window rule of
``_FtInvocation``; the end-to-end tests show a lost frame costing a
short window instead of the full runtime timeout, and that the short
window only ever applies against a deduplicating server.
"""

import time
from types import SimpleNamespace

import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultyFabric
from repro.ft.rtt import MIN_RTO, RttEstimator
from repro.orb.reference import ObjectReference
from repro.orb.transfer import _FtInvocation
from repro.orb.transport import Fabric, PortAddress
from tests.ft.test_retries import Valve

ADAPTIVE_IDL = """
typedef dsequence<double, 4096> vec;

interface slowpoke {
    double ping(in double x);
    vec echo(in vec data);
};
"""

RETRYING = FtPolicy(max_retries=4, backoff_base_ms=1.0, backoff_cap_ms=5.0)


@pytest.fixture(scope="module")
def idl():
    return compile_idl(ADAPTIVE_IDL, module_name="adaptive_timeout_idl")


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------


class TestEstimator:
    def test_no_timeout_before_the_first_sample(self):
        assert RttEstimator().rto() is None

    def test_first_sample_sets_srtt_and_half_rttvar(self):
        est = RttEstimator()
        est.sample(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.rttvar == pytest.approx(0.1)
        assert est.rto() == pytest.approx(0.2 + 4 * 0.1)

    def test_later_samples_follow_rfc6298(self):
        est = RttEstimator()
        est.sample(0.2)
        est.sample(0.4)
        # RTTVAR first, from the old SRTT; then SRTT.
        rttvar = 0.75 * 0.1 + 0.25 * abs(0.2 - 0.4)
        srtt = 0.875 * 0.2 + 0.125 * 0.4
        assert est.rttvar == pytest.approx(rttvar)
        assert est.srtt == pytest.approx(srtt)
        assert est.rto() == pytest.approx(srtt + 4 * rttvar)

    def test_timeout_never_drops_below_the_floor(self):
        est = RttEstimator()
        for _ in range(50):
            est.sample(0.001)
        assert est.rto() == MIN_RTO


# ---------------------------------------------------------------------------
# The window rule
# ---------------------------------------------------------------------------


def _ctl(policy=RETRYING, dedup=True, timeout=2.0, srtt=0.1, rttvar=0.05):
    """An invocation controller over a stub runtime whose binding
    estimator already holds ``srtt``/``rttvar`` (None = no sample)."""
    runtime = SimpleNamespace(timeout=timeout, rank=0, rtt_estimators={})
    ref = ObjectReference(
        object_key="obj",
        repo_id="IDL:obj:1.0",
        request_port=PortAddress(1, "req"),
        dedup=dedup,
    )
    ctl = _FtInvocation(
        runtime, ref, "centralized", SimpleNamespace(name="op"), policy, 1
    )
    if ctl.rtt is not None and srtt is not None:
        ctl.rtt.srtt, ctl.rtt.rttvar = srtt, rttvar
    return ctl


class TestWindow:
    def test_window_doubles_per_attempt(self):
        ctl = _ctl()  # rto = 0.1 + 4 * 0.05 = 0.3
        windows = []
        for attempt in range(3):
            ctl.attempts = attempt
            windows.append(ctl.short_window())
        assert windows == pytest.approx([0.3, 0.6, 1.2])

    def test_window_is_capped_at_the_runtime_timeout(self):
        ctl = _ctl()
        ctl.attempts = 3  # 0.3 * 8 = 2.4 > 2.0
        assert ctl.short_window() is None
        assert ctl.attempt_timeout() == 2.0
        assert ctl.window_ms() == 2000.0

    def test_last_attempt_waits_the_full_timeout(self):
        ctl = _ctl(policy=FtPolicy(max_retries=1))
        assert ctl.short_window() == pytest.approx(0.3)
        ctl.attempts = 1
        assert ctl.short_window() is None
        assert ctl.attempt_timeout() == 2.0

    def test_full_timeout_until_the_first_sample(self):
        ctl = _ctl(srtt=None)
        assert ctl.short_window() is None
        assert ctl.attempt_timeout() == 2.0

    def test_window_is_timed_from_the_send(self):
        ctl = _ctl()
        ctl.sent_at = time.monotonic() - 0.2
        assert 0.0 < ctl.attempt_timeout() <= 0.1 + 1e-3
        ctl.sent_at = time.monotonic() - 5.0
        assert ctl.attempt_timeout() == 1e-3  # expired: a fast timeout
        assert ctl.window_ms() == pytest.approx(300.0)

    def test_deadline_still_clamps_the_window(self):
        ctl = _ctl(policy=FtPolicy(max_retries=4, deadline_ms=50.0))
        assert ctl.attempt_timeout() <= 0.05

    @pytest.mark.parametrize(
        "policy, dedup",
        [
            (FtPolicy(max_retries=0), True),
            (None, True),
            (RETRYING, False),
            (FtPolicy(max_retries=4, retryable_categories=("TRANSIENT",)),
             True),
        ],
        ids=["max_retries=0", "no-policy", "no-reply-cache",
             "timeouts-not-retried"],
    )
    def test_full_timeout_unless_retrying_a_dedup_server(self, policy, dedup):
        ctl = _ctl(policy=policy, dedup=dedup)
        assert ctl.rtt is None
        assert ctl.short_window() is None
        assert ctl.attempt_timeout() == 2.0
        ctl.sample_rtt()  # a no-op without an estimator

    def test_karn_rule_samples_first_attempts_only(self):
        ctl = _ctl(srtt=None)
        ctl.attempts = 1
        ctl.sample_rtt()
        assert ctl.rtt.srtt is None
        ctl.attempts = 0
        ctl.sent_at = time.monotonic() - 0.01
        ctl.sample_rtt()
        assert ctl.rtt.srtt == pytest.approx(0.01, abs=5e-3)

    def test_estimators_are_per_binding_and_operation(self):
        first = _ctl(srtt=None)
        again = _FtInvocation(
            first.runtime,
            ObjectReference("obj", "IDL:obj:1.0", PortAddress(1, "req"),
                            dedup=True),
            "centralized", SimpleNamespace(name="op"), RETRYING, 2,
        )
        other_op = _FtInvocation(
            first.runtime,
            ObjectReference("obj", "IDL:obj:1.0", PortAddress(1, "req"),
                            dedup=True),
            "centralized", SimpleNamespace(name="other"), RETRYING, 3,
        )
        assert again.rtt is first.rtt
        assert other_op.rtt is not first.rtt


# ---------------------------------------------------------------------------
# End to end on the in-process fabric
# ---------------------------------------------------------------------------


def _serve(orb, idl, calls, delay, **kwargs):
    class Servant(idl.slowpoke_skel):
        def ping(self, x):
            time.sleep(delay[0])
            calls.append(x)
            return x * 2.0

        def echo(self, data):
            calls.append("echo")
            return data

    orb.serve("slowpoke", lambda ctx: Servant(), nthreads=1, **kwargs)


def _orb(valve):
    return ORB(
        "adaptive-test",
        fabric=FaultyFabric(Fabric("adaptive"), valve),
        timeout=2.0,
    )


def _warm(call, n=5):
    """Clean first attempts: they give the binding its RTT samples."""
    for _ in range(n):
        call()


class TestEndToEnd:
    def test_serve_with_reply_cache_advertises_dedup(self, idl):
        with ORB("adaptive-ref") as orb:
            _serve(orb, idl, [], [0.0], reply_cache_bytes=1 << 20)
            assert orb.naming.resolve("slowpoke").dedup
        with ORB("adaptive-ref-nocache") as orb:
            _serve(orb, idl, [], [0.0])
            assert not orb.naming.resolve("slowpoke").dedup

    def test_dropped_request_recovers_in_a_short_window(self, idl):
        valve = Valve("drop", kinds=("request",), limit=1)
        calls = []
        with _orb(valve) as orb:
            _serve(orb, idl, calls, [0.0], reply_cache_bytes=1 << 20)
            with orb.client_runtime(label="adaptive-req") as runtime:
                proxy = idl.slowpoke._bind(
                    "slowpoke", runtime, ft_policy=RETRYING
                )
                _warm(lambda: proxy.ping(1.0))
                valve.armed = True
                start = time.monotonic()
                assert proxy.ping(21.0) == 42.0
                elapsed = time.monotonic() - start
                retries = runtime.ft_stats.snapshot()["retries"]
        assert valve.injected == 1
        assert elapsed < 0.4
        assert retries == 1
        assert calls.count(21.0) == 1

    def test_dropped_data_frame_recovers_with_one_execution(self, idl):
        # The retry re-sends header and chunks: the server drops the
        # header as in-progress, the chunks complete the first
        # attempt's collect, and the servant runs once.
        valve = Valve("drop", kinds=("data",), limit=1)
        calls = []
        with _orb(valve) as orb:
            _serve(orb, idl, calls, [0.0], reply_cache_bytes=1 << 20)
            with orb.client_runtime(label="adaptive-data") as runtime:
                proxy = idl.slowpoke._bind(
                    "slowpoke", runtime, transfer="multiport",
                    ft_policy=RETRYING,
                )
                data = idl.vec.from_global([1.0, 2.0, 3.0])
                _warm(lambda: proxy.echo(data))
                valve.armed = True
                start = time.monotonic()
                result = proxy.echo(data)
                elapsed = time.monotonic() - start
                retries = runtime.ft_stats.snapshot()["retries"]
        assert list(result.local_data()) == [1.0, 2.0, 3.0]
        assert valve.injected == 1
        assert elapsed < 0.4
        assert retries == 1
        assert calls.count("echo") == 6

    def test_slow_servant_behind_a_cache_executes_once(self, idl):
        # 150 ms is past the short window: the early retries are
        # spurious, and the reply cache drops them as in-progress.
        calls = []
        delay = [0.0]
        with ORB("adaptive-slow", timeout=2.0) as orb:
            _serve(orb, idl, calls, delay, reply_cache_bytes=1 << 20)
            with orb.client_runtime(label="adaptive-slow") as runtime:
                proxy = idl.slowpoke._bind(
                    "slowpoke", runtime, ft_policy=RETRYING
                )
                _warm(lambda: proxy.ping(1.0))
                delay[0] = 0.15
                assert proxy.ping(8.0) == 16.0
                retries = runtime.ft_stats.snapshot()["retries"]
        assert calls.count(8.0) == 1
        assert retries >= 1

    def test_slow_servant_without_a_cache_is_never_retried(self, idl):
        calls = []
        delay = [0.0]
        with ORB("adaptive-slow-nocache", timeout=2.0) as orb:
            _serve(orb, idl, calls, delay)
            with orb.client_runtime(label="adaptive-nocache") as runtime:
                proxy = idl.slowpoke._bind(
                    "slowpoke", runtime, ft_policy=RETRYING
                )
                _warm(lambda: proxy.ping(1.0))
                delay[0] = 0.15
                assert proxy.ping(8.0) == 16.0
                retries = runtime.ft_stats.snapshot()["retries"]
        assert calls.count(8.0) == 1
        assert retries == 0
