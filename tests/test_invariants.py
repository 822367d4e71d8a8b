"""The invariants that keep cached and parallel results trustworthy.

Each is checked against the live package, so a class, field or module
added later is covered without editing this file:

* **Fingerprint completeness.**  Perturbing any field of a dataclass
  that defines its own ``fingerprint`` or ``to_dict`` changes that
  method's output, so no cache key misses an input.
* **Strategy conformance.**  Every concrete :class:`AtomicStrategy` is
  exported, plans through ``plan_shape`` and does not override
  ``plan_batch`` (which the engine never calls), binds a report name,
  is keyable by ``strategy_fingerprint`` and has an idle plan without
  traffic.  ``tests/test_strategy_properties.py`` runs its runtime
  properties over the same discovered set.
* **Engine determinism.**  ``repro/{core,gpu,trace}`` reads no clock,
  no global or unseeded RNG, and iterates no set or ``dict.values()``,
  so serial, pool and cached runs stay bit-identical.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core
from repro.core.base import AtomicStrategy
from repro.experiments.diskcache import strategy_fingerprint
from repro.gpu import RTX3060_SIM, GPUConfig
from repro.gpu.stats import SimResult
from repro.obs.tracing import SpanContext
from repro.profiling.timeline import TimelineSummary
from repro.service.request import ServiceResponse
from repro.trace import KernelTrace

MODULES = [importlib.import_module(info.name) for info in
           pkgutil.walk_packages(repro.__path__, "repro.")
           if not info.name.endswith("__main__")]

# Fingerprint completeness ----------------------------------------------


#: One sample per fingerprinted dataclass; no field None or empty.
SAMPLES = {
    KernelTrace: lambda: KernelTrace(
        lane_slots=np.zeros((2, 32), dtype=np.int32), num_params=2,
        n_slots=4, compute_cycles=np.array([3.0, 4.0]),
        values=np.ones((2, 32, 2)), name="t"),
    # One partition of two ROPs stays valid when either count changes.
    GPUConfig: lambda: dataclasses.replace(
        RTX3060_SIM, num_rops=2, num_partitions=1),
    SimResult: lambda: SimResult("baseline", "3060-Sim", "t", extra={"k": 1}),
    SpanContext: lambda: SpanContext("t", "s"),
    TimelineSummary: lambda: TimelineSummary(
        "t", "g", "s", 1.0, 2, 3, 4, 5, 6, saturated_frac={"lsu": 0.5},
        interconnect_utilization=0.5, hot_slots=[(1, 2.0, 3)]),
    ServiceResponse: lambda: ServiceResponse(
        "c", "k", SAMPLES[SimResult](), "worker", latency_ms=1.0, trace_id="t",
        span_id="s", exec_span_id="e"),
}

#: Fields left out on purpose.  Renaming a trace must not invalidate
#: cached results; the encoded result is derived from ``result``.
COSMETIC = {(KernelTrace, "name"), (ServiceResponse, "_result_json")}


def _rebuilt(obj, **changes):
    """*obj* with *changes*, built without ``__init__``: validation and
    memoized digests must not get in the way of a perturbation."""
    new = object.__new__(type(obj))
    for field in dataclasses.fields(obj):
        value = changes.get(field.name, getattr(obj, field.name))
        object.__setattr__(new, field.name, value)
    return new


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, np.ndarray):
        changed = value.copy()
        changed.flat[0] += 1
        return changed
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return _rebuilt(value, **{first: _perturb(getattr(value, first))})
    if isinstance(value, dict) and value:
        return dict(list(value.items())[:-1])
    if isinstance(value, list) and value:
        return value[:-1]
    raise AssertionError(f"cannot perturb sample value {value!r}")


def _digest(obj):
    methods = [getattr(obj, name) for name in ("fingerprint", "to_dict")
               if name in vars(type(obj))]
    return [method() if callable(method) else method for method in methods]


def test_every_fingerprinted_dataclass_is_sampled():
    found = {cls for module in MODULES for cls in vars(module).values()
             if inspect.isclass(cls) and cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)
             and ({"fingerprint", "to_dict"} & set(vars(cls)))}
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_every_field_reaches_the_fingerprint(cls):
    sample = SAMPLES[cls]()
    reference = _digest(sample)
    for field in dataclasses.fields(cls):
        if (cls, field.name) in COSMETIC:
            continue
        changed = _rebuilt(
            sample, **{field.name: _perturb(getattr(sample, field.name))})
        assert _digest(changed) != reference, (
            f"{cls.__name__}: changing {field.name} leaves its "
            "fingerprint/to_dict unchanged")


# Strategy conformance --------------------------------------------------


def concrete_strategies() -> "list[type[AtomicStrategy]]":
    """Every concrete, public :class:`AtomicStrategy` the package defines."""
    found, stack = set(), [AtomicStrategy]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if (sub.__module__.startswith("repro.")
                    and not sub.__name__.startswith("_")
                    and not inspect.isabstract(sub)):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def planning_problems(cls) -> "list[str]":
    """How *cls* departs from the one planning path the engine takes."""
    own = cls.__mro__[:cls.__mro__.index(AtomicStrategy)]
    problems = []
    if not any("plan_shape" in vars(klass) for klass in own):
        problems.append(f"{cls.__name__} does not implement plan_shape")
    problems += [f"{klass.__name__} overrides plan_batch, which the engine "
                 "never calls" for klass in own if "plan_batch" in vars(klass)]
    return problems


def test_planning_check_rejects_planted_mutants():
    class Overriding(repro.core.LAB):
        def plan_batch(self, batch, engine):
            return super().plan_batch(batch, engine)

    class Unplanned(AtomicStrategy):
        name = "unplanned"

    assert planning_problems(Overriding) == [
        "Overriding overrides plan_batch, which the engine never calls"]
    assert planning_problems(Unplanned) == [
        "Unplanned does not implement plan_shape"]


@pytest.mark.parametrize("cls", concrete_strategies(),
                         ids=lambda cls: cls.__name__)
def test_strategy_conforms(cls):
    name = cls.__name__
    assert getattr(repro.core, name, None) is cls and name in repro.core.__all__, (
        f"{name} is not exported from repro.core")
    assert not planning_problems(cls)
    strategy = cls()
    assert strategy.name != AtomicStrategy.name, f"{name} binds no report name"
    strategy_fingerprint(strategy)  # raises on a non-scalar parameter
    trace = KernelTrace(np.zeros((1, 32), dtype=np.int32), 1, 1)
    strategy.begin_kernel(trace, RTX3060_SIM)
    idle = strategy.idle_plan()
    assert not (idle.requests or idle.ru_values or idle.sm_buffer_ops
                or idle.l1_tag_ops), f"{name}.idle_plan carries traffic"


def test_every_registered_strategy_is_discovered():
    from repro.experiments.runner import STRATEGY_FACTORIES

    assert {type(make()) for make in STRATEGY_FACTORIES.values()} <= set(
        concrete_strategies())


# Engine determinism ----------------------------------------------------

ENGINE_ROOT = Path(repro.__file__).parent
ENGINE_FILES = sorted(path for package in ("core", "gpu", "trace")
                      for path in (ENGINE_ROOT / package).rglob("*.py"))

BANNED_MODULES = {"random", "time", "datetime"}
#: ``np.random`` names that construct an explicitly seeded generator.
SEEDED_RNG = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
              "SFC64", "MT19937", "BitGenerator"}
ORDER_KEEPING = {"list", "tuple", "enumerate", "iter"}


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _is_set(node) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in ("set", "frozenset")
    return (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub))
            and (_is_set(node.left) or _is_set(node.right)))


def nondeterminism(source: str) -> "list[str]":
    """``line: construct`` for each nondeterministic construct in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            found += [f"{line}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in BANNED_MODULES]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in BANNED_MODULES or (
                    module == "numpy.random"
                    and {a.name for a in node.names} - SEEDED_RNG):
                found.append(f"{line}: from {module} import")
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            head, _, tail = name.rpartition(".")
            if head in ("np.random", "numpy.random") and tail not in SEEDED_RNG:
                found.append(f"{line}: legacy {name}()")
            if tail == "default_rng" and not node.keywords and (
                    not node.args or (isinstance(node.args[0], ast.Constant)
                                      and node.args[0].value is None)):
                found.append(f"{line}: unseeded {name}()")
            if name in ORDER_KEEPING and node.args and _is_set(node.args[0]):
                found.append(f"{line}: {name}() over a set")
        elif isinstance(node, (ast.For, ast.comprehension)) and (
                _is_set(node.iter) or isinstance(node.iter, ast.Call)
                and _dotted(node.iter.func).endswith(".values")):
            found.append(f"{node.iter.lineno}: iteration over a set or "
                         "dict.values()")
    return found


@pytest.mark.parametrize("path", ENGINE_FILES,
                         ids=lambda path: str(path.relative_to(ENGINE_ROOT)))
def test_engine_source_is_deterministic(path):
    assert nondeterminism(path.read_text()) == []


def test_nondeterminism_scan_catches_each_construct():
    for source in ("import time", "from datetime import datetime",
                   "import random", "np.random.rand(3)",
                   "np.random.default_rng()", "for x in set(a): pass",
                   "y = [v for v in d.values()]", "list({1, 2} | s)"):
        assert nondeterminism(source), source
    assert nondeterminism("rng = np.random.default_rng(seed)\n"
                          "for x in sorted(set(a)): pass\n"
                          "y = [k for k in d.items()]") == []
