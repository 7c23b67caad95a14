"""Deadline arithmetic and the retry backoff policy."""

import math

import pytest

from repro.faults import (
    DEFAULT_DEADLINE_MS,
    Deadline,
    RetryPolicy,
    default_deadline_ms,
    default_forward_timeout_ms,
    default_pool_recover_s,
)


class TestDeadline:
    def test_after_ms_counts_down(self):
        deadline = Deadline.after_ms(200)
        assert 0.0 < deadline.remaining() <= 0.2
        assert not deadline.expired()
        assert deadline.remaining_or_none() == pytest.approx(
            deadline.remaining(), abs=0.01)

    def test_never_deadline(self):
        deadline = Deadline.never()
        assert deadline.remaining() == math.inf
        assert deadline.remaining_or_none() is None
        assert not deadline.expired()

    def test_none_means_never(self):
        assert Deadline.after(None).remaining() == math.inf
        assert Deadline.after_ms(None).remaining() == math.inf

    def test_past_deadline_is_expired(self):
        deadline = Deadline.after(-1.0)
        assert deadline.expired()
        # Clamped: a bounded wait gets 0, never a negative timeout.
        assert deadline.remaining() == 0.0

    def test_after_and_after_ms_agree(self):
        a = Deadline.after(0.25)
        b = Deadline.after_ms(250)
        assert abs(a.expires_at - b.expires_at) < 0.05


class TestEnvDefaults:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_DEADLINE_MS", "REPRO_FORWARD_TIMEOUT_MS",
                     "REPRO_POOL_RECOVER_S"):
            monkeypatch.delenv(name, raising=False)
        assert default_deadline_ms() == DEFAULT_DEADLINE_MS
        # The watchdog threshold defaults to the request deadline.
        assert default_forward_timeout_ms() == default_deadline_ms()
        assert default_pool_recover_s() == 60.0

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_MS", "1500")
        monkeypatch.setenv("REPRO_POOL_RECOVER_S", "2.5")
        assert default_deadline_ms() == 1500.0
        assert default_forward_timeout_ms() == 1500.0
        assert default_pool_recover_s() == 2.5
        monkeypatch.setenv("REPRO_FORWARD_TIMEOUT_MS", "300")
        assert default_forward_timeout_ms() == 300.0

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_MS", "0")
        with pytest.raises(ValueError, match="positive"):
            default_deadline_ms()
        for raw in ("nan", "inf", "-1"):
            monkeypatch.setenv("REPRO_POOL_RECOVER_S", raw)
            with pytest.raises(ValueError, match="REPRO_POOL_RECOVER_S"):
                default_pool_recover_s()


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        delays = [policy.delay(a) for a in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_shaves_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.5, seed=0)
        for _ in range(50):
            delay = policy.delay(0)
            assert 0.5 <= delay <= 1.0

    def test_seeded_schedules_replay(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay(i) for i in range(6)] == \
            [b.delay(i) for i in range(6)]

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.01, jitter=0.0)
        assert policy.delay(0, retry_after=2.0) == 2.0
        # ...but never shortens a larger backoff.
        slow = RetryPolicy(base_delay=5.0, max_delay=5.0, jitter=0.0)
        assert slow.delay(0, retry_after=1.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(-1)
