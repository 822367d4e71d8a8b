"""``REPRO_SANITIZE=1`` event-order checks in the engine.

Every tuple the engine pushes onto its ready heap is ``(time, subcore,
push_seq, cursor, run_end)``.  ``push_seq`` is unique and increases with
every push, so equal-time events pop in a fixed order and no comparison
reaches the cursor payload after it.  The sanitizer asserts in the event
loop that the stream of ``(time, subcore, push_seq)`` it takes off the
heap is strictly increasing.  These tests pin that the assert fires when a push
goes back in time, and that it changes no results (same heap, same
pops, only an extra comparison per pop), across strategies with very
different event patterns.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import LAB, ArcHW, BaselineAtomic
from repro.gpu import RTX4090_SIM, engine, simulate_kernel
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


def test_sanitizer_catches_a_push_that_goes_back_in_time(monkeypatch):
    # A sub-core's next event replaces its current one on the ready heap
    # (the ROP heaps of floats go through heapreplace too).
    real_heapreplace = engine.heapreplace

    def backwards(heap, item):
        # Every ready-heap push lands before the kernel started.
        if isinstance(item, tuple):
            item = (-1.0, *item[1:])
        return real_heapreplace(heap, item)

    monkeypatch.setattr(engine, "heapreplace", backwards)
    trace = mixed_locality_trace(n_batches=120, seed=3)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    simulate_kernel(trace, small_gpu(), BaselineAtomic())
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(AssertionError, match="event-tie order violated"):
        simulate_kernel(trace, small_gpu(), BaselineAtomic())
