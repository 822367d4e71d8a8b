"""Deterministic projections of simulation results for benchmarks.

:func:`repro.bench.metrics.sim_digest` is the one result digest that
perfbench's bit-identity checks and the tier-1 cell pins
(``tests/test_cell_pins.py``) compare.  Performance itself is measured
by ``perfbench/`` (see ``BENCHMARK.json``).
"""
