"""Benchmark harness tests: registry, schema, runner determinism, comparator.

The comparator tests run against *hand-built* synthetic documents, so
every verdict path (improved / ok / regressed / mismatch / usage error)
is exercised without timing noise.  The runner tests execute real tiny
scenarios (registered only for the duration of a test via monkeypatch)
and assert the determinism contract: the non-timing half of a BENCH
document is identical across repeated runs.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    FORMAT_VERSION,
    SCENARIOS,
    Scenario,
    Tolerances,
    bench_filename,
    cheap_scenario_names,
    compare_reports,
    get_scenario,
    make_envelope,
    run_scenario,
    scenario_names,
    validate_report,
)
from repro.trace import coalesced_trace, mixed_locality_trace


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


def test_registry_has_the_documented_scenarios():
    assert scenario_names() == [
        "cache_warm_vs_cold",
        "engine_smoke",
        "parallel_scaling",
        "table2_sweep_small",
        "telemetry_on_off",
    ]
    assert set(cheap_scenario_names()) <= set(scenario_names())
    # The expensive spawn-pool scenario must never run on every PR.
    assert "parallel_scaling" not in cheap_scenario_names()


def test_get_scenario_round_trips_and_counts_cells():
    scenario = get_scenario("engine_smoke")
    assert scenario.name == "engine_smoke"
    assert scenario.mode == "engine"
    assert scenario.cell_count() == (
        len(scenario.traces) * len(scenario.gpus) * len(scenario.strategies)
    )


def test_get_scenario_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="engine_smoke"):
        get_scenario("nope")


def test_registered_strategies_and_gpus_exist():
    from repro.experiments.runner import STRATEGY_FACTORIES
    from repro.gpu import SIMULATED_GPUS

    for scenario in SCENARIOS.values():
        for strategy in scenario.strategies:
            assert strategy in STRATEGY_FACTORIES, (scenario.name, strategy)
        for gpu in scenario.gpus:
            assert gpu in SIMULATED_GPUS, (scenario.name, gpu)


def test_bench_filename():
    assert bench_filename("engine_smoke") == "BENCH_engine_smoke.json"


# --------------------------------------------------------------------- #
# Schema
# --------------------------------------------------------------------- #


def test_envelope_carries_provenance():
    doc = make_envelope("engine_smoke", {"repeats": 3})
    assert doc["format"] == FORMAT_VERSION
    assert doc["scenario"] == "engine_smoke"
    assert doc["config"] == {"repeats": 3}
    assert isinstance(doc["engine_fingerprint"], str)
    assert set(doc["machine"]) == {"platform", "machine", "python",
                                   "cpu_count"}
    # A fresh envelope is not yet a valid report: no cells, no aggregate.
    assert validate_report(doc)


def _synthetic_cell(cell_id: str, wall: float = 10.0, cycles: int = 1000,
                    digest: str = "d0") -> dict:
    return {
        "id": cell_id,
        "trace": cell_id.split("|")[0],
        "gpu": "3060-Sim",
        "strategy": cell_id.split("|")[-1],
        "variant": None,
        "wall_ms": {"median": wall, "iqr": 0.0, "min": wall, "max": wall,
                    "mean": wall, "n": 3},
        "deterministic": {
            "sim_cycles": cycles, "rop_ops": 64, "lane_ops": 256,
            "trace_fingerprint": "f0", "sim_digest": digest,
            "repeat_stable": True, "phase_cycles": None,
        },
        "throughput": {"batches_per_sec": 100.0},
    }


def _synthetic_doc(scenario: str = "synthetic", wall: float = 10.0,
                   fingerprint: str = "engine-a") -> dict:
    return {
        "format": FORMAT_VERSION,
        "scenario": scenario,
        "created_unix": 0.0,
        "machine": {"platform": "test", "machine": "x", "python": "3",
                    "cpu_count": 1},
        "git": {"sha": None, "dirty": None},
        "engine_fingerprint": fingerprint,
        "config": {},
        "cells": [
            _synthetic_cell("t0|3060-Sim|baseline", wall=wall),
            _synthetic_cell("t0|3060-Sim|ARC-HW", wall=wall / 2,
                            cycles=500, digest="d1"),
        ],
        "aggregate": {
            "wall_ms_total": wall * 6, "cells": 2, "runs": 6,
            "cells_per_sec": 6 / (wall * 6 / 1e3),
            "peak_rss_kb": 50_000,
            "cache": None, "telemetry_overhead": None, "parallel": None,
        },
    }


def test_validate_report_accepts_synthetic_and_json_round_trip():
    doc = _synthetic_doc()
    assert validate_report(doc) == []
    assert validate_report(json.loads(json.dumps(doc))) == []


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(format=99), "format"),
    (lambda d: d.update(scenario=""), "scenario"),
    (lambda d: d.update(engine_fingerprint=None), "engine_fingerprint"),
    (lambda d: d.update(cells=[]), "cells"),
    (lambda d: d.update(aggregate=None), "aggregate"),
    (lambda d: d["cells"][0].pop("wall_ms"), "wall_ms"),
    (lambda d: d["cells"][0]["wall_ms"].pop("median"), "median"),
    (lambda d: d["cells"][1]["deterministic"].pop("sim_digest"),
     "sim_digest"),
    (lambda d: d["aggregate"].pop("cells_per_sec"), "cells_per_sec"),
    (lambda d: d["cells"].__setitem__(1, d["cells"][0]), "duplicate"),
])
def test_validate_report_flags_violations(mutate, fragment):
    doc = _synthetic_doc()
    mutate(doc)
    problems = validate_report(doc)
    assert problems and any(fragment in p for p in problems), problems


# --------------------------------------------------------------------- #
# Comparator verdicts (synthetic baselines: no timing noise)
# --------------------------------------------------------------------- #


def test_compare_identical_documents_passes():
    comparison = compare_reports(_synthetic_doc(), _synthetic_doc())
    assert comparison.verdict == "ok"
    assert comparison.passed
    assert comparison.exit_code == 0
    assert comparison.failures() == []


def test_compare_within_tolerance_is_ok():
    fresh = _synthetic_doc(wall=12.0)  # 1.2x < the 0.5 default band
    comparison = compare_reports(_synthetic_doc(), fresh)
    assert comparison.verdict == "ok"
    assert comparison.exit_code == 0


def test_compare_improvement_passes_and_is_reported():
    fresh = _synthetic_doc(wall=4.0)  # 2.5x faster
    comparison = compare_reports(_synthetic_doc(), fresh)
    # The overall verdict is the *worst* entry -- deterministic fields
    # unchanged read "ok" -- but the improvement passes and is surfaced.
    assert comparison.verdict in ("ok", "improved")
    assert comparison.passed
    assert comparison.exit_code == 0
    assert comparison.counts()["improved"] > 0
    assert "improved" in comparison.render_text()


def test_compare_timing_regression_fails():
    fresh = _synthetic_doc(wall=30.0)  # 3x slower
    comparison = compare_reports(_synthetic_doc(), fresh)
    assert comparison.verdict == "regressed"
    assert not comparison.passed
    assert comparison.exit_code == 1
    metrics = {entry.metric for entry in comparison.failures()}
    assert any("wall_ms.median" in metric for metric in metrics)
    # ...but a looser tolerance forgives the same delta.
    loose = compare_reports(_synthetic_doc(), fresh,
                            Tolerances(timing_frac=5.0, rss_frac=5.0))
    assert loose.passed


def test_compare_deterministic_drift_is_a_mismatch():
    fresh = _synthetic_doc()
    fresh["cells"][0]["deterministic"]["sim_cycles"] += 1
    comparison = compare_reports(_synthetic_doc(), fresh)
    assert comparison.verdict == "mismatch"
    assert comparison.exit_code == 1
    # Deterministic drift is never excused by timing tolerances.
    still = compare_reports(_synthetic_doc(), fresh,
                            Tolerances(timing_frac=100.0, rss_frac=100.0))
    assert not still.passed


def test_compare_missing_cell_is_a_structure_mismatch():
    fresh = _synthetic_doc()
    del fresh["cells"][1]
    fresh["aggregate"]["cells"] = 1
    comparison = compare_reports(_synthetic_doc(), fresh)
    assert comparison.verdict == "mismatch"
    assert any(entry.kind == "structure"
               for entry in comparison.failures())


def test_compare_engine_fingerprint_change_is_a_note_not_a_failure():
    fresh = _synthetic_doc(fingerprint="engine-b")
    comparison = compare_reports(_synthetic_doc(), fresh)
    assert comparison.passed
    assert any("engine source changed" in note for note in comparison.notes)


def test_compare_usage_errors_raise_value_error():
    with pytest.raises(ValueError, match="scenario mismatch"):
        compare_reports(_synthetic_doc("a"), _synthetic_doc("b"))
    broken = _synthetic_doc()
    broken["cells"] = []
    with pytest.raises(ValueError, match="not schema-valid"):
        compare_reports(broken, _synthetic_doc())


def test_comparison_to_dict_is_json_serializable():
    comparison = compare_reports(_synthetic_doc(), _synthetic_doc(wall=30.0))
    payload = json.loads(json.dumps(comparison.to_dict()))
    assert payload["verdict"] == "regressed"
    assert payload["passed"] is False
    assert payload["counts"]["regressed"] >= 1


# --------------------------------------------------------------------- #
# Runner determinism (real tiny scenarios)
# --------------------------------------------------------------------- #


def _tiny_trace():
    return coalesced_trace(n_batches=40, n_slots=32, num_params=2, seed=9,
                           name="tiny-bench")


def _tiny_trace_mixed():
    return mixed_locality_trace(n_batches=30, n_slots=64, num_params=2,
                                seed=10, name="tiny-bench-mixed")


def _register_tiny(monkeypatch, mode: str, **overrides) -> str:
    name = f"tiny_{mode}"
    spec = dict(
        name=name, description="test scenario", mode=mode, cheap=True,
        repeats=2, traces=(("tiny", _tiny_trace),), gpus=("3060-Sim",),
        strategies=("baseline", "ARC-HW"),
    )
    spec.update(overrides)
    monkeypatch.setitem(SCENARIOS, name, Scenario(**spec))
    return name


def _strip_timing(doc: dict) -> dict:
    """The half of a BENCH document that must be run-invariant."""
    return {
        "scenario": doc["scenario"],
        "engine_fingerprint": doc["engine_fingerprint"],
        "config": doc["config"],
        "cells": [
            {"id": cell["id"], "trace": cell["trace"], "gpu": cell["gpu"],
             "strategy": cell["strategy"], "variant": cell["variant"],
             "deterministic": cell["deterministic"],
             "n": cell["wall_ms"]["n"]}
            for cell in doc["cells"]
        ],
        "aggregate_counts": {"cells": doc["aggregate"]["cells"],
                             "runs": doc["aggregate"]["runs"]},
        "cache_hit_rates": (
            None if doc["aggregate"]["cache"] is None else
            {key: doc["aggregate"]["cache"][key]
             for key in ("cold_hit_rate", "warm_hit_rate")}
        ),
    }


def test_engine_scenario_document_is_valid_and_deterministic(monkeypatch):
    name = _register_tiny(monkeypatch, "engine")
    first = run_scenario(name)
    second = run_scenario(name)
    assert validate_report(first) == []
    assert _strip_timing(first) == _strip_timing(second)
    for cell in first["cells"]:
        assert cell["deterministic"]["repeat_stable"] is True
        assert cell["deterministic"]["phase_cycles"] is None


def test_engine_scenario_repeats_override(monkeypatch):
    name = _register_tiny(monkeypatch, "engine")
    doc = run_scenario(name, repeats=4)
    assert doc["config"]["repeats"] == 4
    assert all(cell["wall_ms"]["n"] == 4 for cell in doc["cells"])
    with pytest.raises(ValueError, match="repeats"):
        run_scenario(name, repeats=0)


def test_telemetry_scenario_pairs_cells_and_records_phases(monkeypatch):
    name = _register_tiny(monkeypatch, "telemetry",
                          strategies=("baseline",))
    doc = run_scenario(name)
    assert validate_report(doc) == []
    variants = {cell["variant"] for cell in doc["cells"]}
    assert variants == {"off", "on"}
    overhead = doc["aggregate"]["telemetry_overhead"]
    assert overhead["bit_identical"] is True
    assert overhead["overhead_ratio"] > 0
    from repro.gpu.telemetry import PHASES

    for cell in doc["cells"]:
        phases = cell["deterministic"]["phase_cycles"]
        if cell["variant"] == "off":
            assert phases is None
        else:
            assert set(phases) == set(PHASES)
            assert all(value >= 0 for value in phases.values())


def test_cache_scenario_measures_cold_miss_then_warm_hits(monkeypatch):
    name = _register_tiny(monkeypatch, "cache", repeats=1,
                          strategies=("baseline",))
    doc = run_scenario(name)
    assert validate_report(doc) == []
    cache = doc["aggregate"]["cache"]
    assert cache["cold_hit_rate"] == 0.0
    assert cache["warm_hit_rate"] == 1.0
    assert cache["warm_speedup"] > 0
    # Warm results replay from disk bit-identically.
    by_variant = {}
    for cell in doc["cells"]:
        by_variant.setdefault(cell["variant"], []).append(
            cell["deterministic"]["sim_digest"]
        )
    assert by_variant["cold"] == by_variant["warm"]


def test_cache_scenario_leaves_no_cache_state_behind(monkeypatch):
    from repro.experiments import diskcache

    name = _register_tiny(monkeypatch, "cache", repeats=1,
                          strategies=("baseline",))
    before = diskcache.active_cache()
    run_scenario(name)
    assert diskcache.active_cache() is before


def test_multi_trace_scenario_skips_swb_on_ineligible_traces(monkeypatch):
    name = _register_tiny(
        monkeypatch, "engine",
        traces=(("tiny", _tiny_trace), ("tiny-mixed", _tiny_trace_mixed)),
        strategies=("baseline", "ARC-SW-B-8"),
    )
    doc = run_scenario(name)
    ids = {cell["id"] for cell in doc["cells"]}
    eligible = {"SW-B" in cell_id for cell_id in ids}
    # Both traces here are butterfly-eligible synthetics, so SW-B rows
    # exist; the registry helper must still produce unique ids per trace.
    assert True in eligible
    assert len(ids) == len(doc["cells"])


def test_run_scenario_round_trips_through_compare(monkeypatch):
    """A freshly-measured document compares clean against itself."""
    name = _register_tiny(monkeypatch, "engine", repeats=1,
                          strategies=("baseline",))
    doc = run_scenario(name)
    baseline = json.loads(json.dumps(doc))
    comparison = compare_reports(baseline, copy.deepcopy(doc),
                                 Tolerances(timing_frac=10.0))
    assert comparison.passed


# --------------------------------------------------------------------- #
# History collation (repro bench --history)
# --------------------------------------------------------------------- #


def _bench_doc(scenario, created, sha="a" * 40, dirty=False,
               fingerprint="f" * 64, wall=100.0):
    return {
        "scenario": scenario,
        "created_unix": created,
        "git": {"sha": sha, "dirty": dirty},
        "engine_fingerprint": fingerprint,
        "aggregate": {
            "wall_ms_total": wall,
            "cells_per_sec": 10.0,
            "peak_rss_kb": 4096,
        },
        "cells": [{"key": "k1"}, {"key": "k2"}],
    }


def test_load_reports_keeps_bench_documents_and_reports_junk(tmp_path):
    from repro.bench import load_reports

    (tmp_path / "runs" / "r1").mkdir(parents=True)
    good = tmp_path / "runs" / "r1" / "BENCH_engine_smoke.json"
    good.write_text(json.dumps(_bench_doc("engine_smoke", 100)))
    (tmp_path / "broken.json").write_text("{torn")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "other.json").write_text(json.dumps({"scenario": "x"}))
    (tmp_path / "notes.txt").write_text("not json, not scanned")

    documents, skipped = load_reports(tmp_path)
    assert [doc["_source"] for doc in documents] \
        == ["runs/r1/BENCH_engine_smoke.json"]
    reasons = dict(item.split(": ", 1) for item in skipped)
    assert "unreadable" in reasons["broken.json"]
    assert reasons["list.json"] == "not a JSON object"
    assert "missing created_unix" in reasons["other.json"]


def test_collate_history_sorts_by_scenario_then_time(tmp_path):
    from repro.bench import HISTORY_COLUMNS, collate_history, load_reports

    docs = [
        ("c.json", _bench_doc("engine_smoke", 300)),
        ("a.json", _bench_doc("parallel_scaling", 100)),
        ("b.json", _bench_doc("engine_smoke", 200, dirty=True)),
    ]
    for name, doc in docs:
        (tmp_path / name).write_text(json.dumps(doc))
    reports, skipped = load_reports(tmp_path)
    assert skipped == []
    rows = collate_history(reports)
    assert [(r["scenario"], r["created_unix"]) for r in rows] == [
        ("engine_smoke", 200), ("engine_smoke", 300),
        ("parallel_scaling", 100),
    ]
    assert all(tuple(row) == HISTORY_COLUMNS for row in rows)
    assert rows[0]["dirty"] is True
    assert rows[0]["engine_fingerprint"] == "f" * 12  # truncated
    assert rows[0]["cells"] == 2
    assert rows[0]["source"] == "b.json"


def test_collate_history_tolerates_thin_provenance():
    from repro.bench import collate_history

    doc = {
        "scenario": "engine_smoke",
        "created_unix": 50,
        "aggregate": {},
        "cells": [],
        "_source": "thin.json",
    }
    [row] = collate_history([doc])
    assert row["git_sha"] is None
    assert row["engine_fingerprint"] is None
    assert row["wall_ms_total"] is None
    assert row["cells"] == 0


def test_collate_history_deltas_within_scenario_and_machine(tmp_path):
    """delta_wall_ms compares a run to the previous run of the *same
    scenario on the same machine hash*: cross-host pairs and each
    machine's first run collate with no delta."""
    from repro.bench import collate_history, load_reports, machine_hash

    host_a = {"platform": "Linux-x", "machine": "x86_64",
              "python": "3.12.0", "cpu_count": 8}
    host_b = {"platform": "Darwin-y", "machine": "arm64",
              "python": "3.12.0", "cpu_count": 10}
    runs = [
        ("r1.json", 100, host_a, 100.0),
        ("r2.json", 200, host_a, 130.0),
        ("r3.json", 300, host_b, 500.0),   # new host: no delta
        ("r4.json", 400, host_a, 90.0),    # vs r2, not r3
    ]
    for name, created, machine, wall in runs:
        doc = _bench_doc("engine_smoke", created, wall=wall)
        doc["machine"] = machine
        (tmp_path / name).write_text(json.dumps(doc))
    other = _bench_doc("parallel_scaling", 250, wall=1000.0)
    other["machine"] = host_a
    (tmp_path / "other.json").write_text(json.dumps(other))

    reports, skipped = load_reports(tmp_path)
    assert skipped == []
    rows = collate_history(reports)
    by_source = {row["source"]: row for row in rows}
    assert by_source["r1.json"]["delta_wall_ms"] is None
    assert by_source["r2.json"]["delta_wall_ms"] == pytest.approx(30.0)
    assert by_source["r3.json"]["delta_wall_ms"] is None
    assert by_source["r4.json"]["delta_wall_ms"] == pytest.approx(-40.0)
    # The other scenario's run interleaves in time but never pairs.
    assert by_source["other.json"]["delta_wall_ms"] is None
    assert by_source["r1.json"]["machine"] == machine_hash(host_a)
    assert by_source["r3.json"]["machine"] == machine_hash(host_b)
    # The hash is order-insensitive content identity.
    assert machine_hash(dict(reversed(list(host_a.items())))) \
        == machine_hash(host_a)
    assert machine_hash(None) is None


def test_collate_history_skips_deltas_without_machine_provenance():
    from repro.bench import collate_history

    docs = [
        {"scenario": "engine_smoke", "created_unix": t,
         "aggregate": {"wall_ms_total": 100.0 + t}, "cells": [],
         "_source": f"t{t}.json"}
        for t in (1, 2)
    ]
    rows = collate_history(docs)
    assert [row["delta_wall_ms"] for row in rows] == [None, None]
    assert [row["machine"] for row in rows] == [None, None]
