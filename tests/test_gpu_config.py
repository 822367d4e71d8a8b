"""Tests for repro.gpu.config: presets, validation, derived quantities."""

import dataclasses

import pytest

from repro.gpu import RTX3060_SIM, RTX4090_SIM, SIMULATED_GPUS, CostModel, GPUConfig
from repro.gpu.config import MEMORY_DOMAIN_NS


def test_presets_match_paper_table1():
    assert RTX4090_SIM.num_sms == 128
    assert RTX4090_SIM.num_rops == 176
    assert RTX4090_SIM.subcores_per_sm == 4
    assert RTX4090_SIM.clock_ghz == pytest.approx(2.24)
    assert RTX4090_SIM.l2_mib == pytest.approx(72.0)
    assert RTX3060_SIM.num_sms == 28
    assert RTX3060_SIM.num_rops == 48
    assert RTX3060_SIM.clock_ghz == pytest.approx(1.32)
    assert RTX3060_SIM.l2_mib == pytest.approx(3.0)


def test_sm_to_rop_ratio_is_worse_on_4090():
    """§3.2: the 4090 has 4.57x the SMs but only 3.6x the ROPs."""
    assert RTX4090_SIM.num_sms / RTX3060_SIM.num_sms == pytest.approx(4.57, abs=0.01)
    assert RTX4090_SIM.num_rops / RTX3060_SIM.num_rops == pytest.approx(3.67, abs=0.01)
    assert RTX4090_SIM.sm_to_rop_ratio > RTX3060_SIM.sm_to_rop_ratio


def test_num_subcores():
    assert RTX4090_SIM.num_subcores == 128 * 4
    assert RTX3060_SIM.num_subcores == 28 * 4


def test_rops_per_partition_divides_evenly():
    for gpu in SIMULATED_GPUS.values():
        assert gpu.rops_per_partition * gpu.num_partitions == gpu.num_rops


def test_cycles_to_ms():
    assert RTX4090_SIM.cycles_to_ms(2.24e6) == pytest.approx(1.0)
    assert RTX3060_SIM.cycles_to_ms(1.32e6) == pytest.approx(1.0)


def test_with_cost_override_returns_new_config():
    tweaked = RTX4090_SIM.with_cost(atomic_service=9.0)
    assert tweaked.cost.atomic_service == 9.0
    assert RTX4090_SIM.cost.atomic_service != 9.0
    assert tweaked.num_sms == RTX4090_SIM.num_sms


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RTX4090_SIM.num_sms = 1


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_sms", 0),
        ("num_rops", 0),
        ("lsu_queue_depth", 0),
        ("interconnect_bw", 0.0),
    ],
)
def test_invalid_configs_rejected(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(RTX4090_SIM, **{field: value})


def test_rop_partition_mismatch_rejected():
    with pytest.raises(ValueError):
        dataclasses.replace(RTX4090_SIM, num_rops=177)


def test_default_cost_model_values_positive():
    cost = CostModel()
    for f in dataclasses.fields(cost):
        assert getattr(cost, f.name) > 0, f.name


def test_simulated_gpus_registry_keys():
    assert set(SIMULATED_GPUS) == {"4090-Sim", "3060-Sim"}
    for name, gpu in SIMULATED_GPUS.items():
        assert isinstance(gpu, GPUConfig)
        assert gpu.name == name


def test_fingerprint_memoized_per_instance():
    """The digest is computed once and cached on the (frozen) instance:
    in-memory memoization keys on it for every get_result call, so it
    must stay a cheap attribute read, and the cache must not leak into
    field-based equality or serialization."""
    config = dataclasses.replace(RTX4090_SIM)
    first = config.fingerprint()
    assert config.fingerprint() is first  # cached, not recomputed
    assert first == RTX4090_SIM.fingerprint()  # content, not identity
    assert "_fingerprint" not in config.to_dict()
    assert config == dataclasses.replace(RTX4090_SIM)


def test_fingerprint_cache_not_inherited_by_copies():
    config = dataclasses.replace(RTX4090_SIM)
    config.fingerprint()
    ablated = config.with_cost(atomic_service=99.0)
    assert ablated.fingerprint() != config.fingerprint()


@pytest.mark.parametrize("gpu", list(SIMULATED_GPUS.values()),
                         ids=lambda gpu: gpu.name)
def test_presets_convert_memory_domain_ns_at_their_clock(gpu):
    """The ns domain enters the simulator at one site: each memory-domain
    cost is its nanosecond time times the preset's shader clock, and
    every other cost keeps its cycle default."""
    default = CostModel()
    for field in dataclasses.fields(CostModel):
        value = getattr(gpu.cost, field.name)
        if field.name in MEMORY_DOMAIN_NS:
            assert value == MEMORY_DOMAIN_NS[field.name] * gpu.clock_ghz
        else:
            assert value == getattr(default, field.name), field.name


@pytest.mark.parametrize("clock_ghz", [0.0, -1.0])
def test_scaled_to_clock_rejects_non_positive_clock(clock_ghz):
    with pytest.raises(ValueError, match="clock_ghz"):
        CostModel.scaled_to_clock(clock_ghz)
