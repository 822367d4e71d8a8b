"""The runtime half of ARC007: ``REPRO_SANITIZE=1`` event-order checks.

The static rule proves every heap push carries a ``push_seq``
tiebreaker; the sanitizer is its dynamic complement -- an assert in the
engine's pop loop that the popped event stream is strictly increasing.
These tests pin the property the sanitizer must have to stay on in CI:
it changes no results (same heap, same pops, only an extra comparison
per pop), across strategies with very different event patterns.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import LAB, ArcHW, BaselineAtomic
from repro.gpu import RTX4090_SIM, simulate_kernel
from repro.trace import mixed_locality_trace, scattered_trace
from tests.test_engine_dispatch import fold_gpu, fold_trace


def small_gpu():
    return dataclasses.replace(
        RTX4090_SIM, name="tiny", num_sms=2, subcores_per_sm=2,
        num_rops=4, num_partitions=2,
    )


@pytest.mark.parametrize("strategy", [BaselineAtomic(), LAB(), ArcHW()],
                         ids=lambda s: type(s).__name__)
def test_sanitizer_is_result_neutral(monkeypatch, strategy):
    # Equal-time ties are common in these traces, so the run exercises
    # the tiebreaker ordering the sanitizer checks.
    trace = mixed_locality_trace(n_batches=120, seed=3)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = simulate_kernel(trace, small_gpu(), strategy)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    checked = simulate_kernel(trace, small_gpu(), strategy)
    assert dataclasses.asdict(checked) == dataclasses.asdict(plain)


def test_sanitizer_is_result_neutral_on_folded_idle_batches(monkeypatch):
    # Runs of idle batches execute inside their preceding event; the
    # event stream the assert checks must stay ordered across them.
    trace = fold_trace()
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = simulate_kernel(trace, fold_gpu(), BaselineAtomic())
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    checked = simulate_kernel(trace, fold_gpu(), BaselineAtomic())
    assert dataclasses.asdict(checked) == dataclasses.asdict(plain)


def test_sanitizer_zero_means_off(monkeypatch):
    trace = scattered_trace(n_batches=40, seed=1)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    result = simulate_kernel(trace, small_gpu(), BaselineAtomic())
    assert result.total_cycles > 0
