"""Tests for the workload layer: scenes, registry, training, capture."""

from collections import Counter

import numpy as np
import pytest

from repro.trace.analysis import intra_warp_locality
from repro.workloads import (
    APPLICATIONS,
    WORKLOAD_KEYS,
    CubemapWorkload,
    GaussianWorkload,
    SphereWorkload,
    load_workload,
)
from repro.workloads.base import _concat_traces
from repro.workloads.scenes import (
    clustered_gaussian_scene,
    clustered_sphere_scene,
    perturbed_gaussian_scene,
    perturbed_sphere_scene,
)


def tiny_gaussian_workload(**overrides):
    params = dict(
        key="t3d", dataset="d", description="x", n_gaussians=120,
        base_scale=0.15, extent=1.0, width=64, height=64, seed=1,
    )
    params.update(overrides)
    return GaussianWorkload(**params)


def tiny_sphere_workload(**overrides):
    params = dict(
        key="tps", dataset="d", description="x", n_spheres=80,
        base_radius=0.16, extent=1.0, width=64, height=64, seed=2,
    )
    params.update(overrides)
    return SphereWorkload(**params)


def tiny_cubemap_workload(**overrides):
    params = dict(
        key="tnv", dataset="d", description="x", cubemap_resolution=8,
        width=64, height=64, seed=3, trace_views=2,
    )
    params.update(overrides)
    return CubemapWorkload(**params)


class TestScenes:
    def test_clustered_scene_deterministic(self):
        a = clustered_gaussian_scene(50, seed=7)
        b = clustered_gaussian_scene(50, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = clustered_gaussian_scene(50, seed=8)
        assert not np.array_equal(a.positions, c.positions)

    def test_clustered_scene_within_extent(self):
        scene = clustered_gaussian_scene(200, seed=1, extent=1.0)
        assert np.abs(scene.positions).max() < 3.0

    def test_perturbed_keeps_geometry_near_reference(self):
        reference = clustered_gaussian_scene(60, seed=2)
        perturbed = perturbed_gaussian_scene(reference, seed=3, noise=0.01)
        distance = np.linalg.norm(
            perturbed.positions - reference.positions, axis=1
        )
        assert distance.max() < 0.1
        assert (perturbed.colors == 0.5).all()  # appearance reset

    def test_perturbed_sphere_scene(self):
        reference = clustered_sphere_scene(40, seed=4)
        perturbed = perturbed_sphere_scene(reference, seed=5)
        assert len(perturbed) == 40
        assert not np.array_equal(perturbed.centers, reference.centers)

    def test_quaternions_stay_normalized(self):
        reference = clustered_gaussian_scene(30, seed=6)
        perturbed = perturbed_gaussian_scene(reference, seed=7)
        norms = np.linalg.norm(perturbed.quaternions, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestRegistry:
    def test_all_twelve_workloads_listed(self):
        assert len(WORKLOAD_KEYS) == 12
        assert [k.split("-")[0] for k in WORKLOAD_KEYS].count("3D") == 6
        assert [k.split("-")[0] for k in WORKLOAD_KEYS].count("NV") == 4
        assert [k.split("-")[0] for k in WORKLOAD_KEYS].count("PS") == 2

    def test_application_prefixes(self):
        assert set(APPLICATIONS) == {"3D", "NV", "PS"}

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            load_workload("3D-XX")

    def test_load_returns_fresh_unbuilt_instances(self):
        a = load_workload("3D-LE")
        b = load_workload("3D-LE")
        assert a is not b
        assert not a._built

    def test_pulsar_workloads_ineligible_for_butterfly(self):
        for key in ("PS-SS", "PS-SL"):
            assert not load_workload(key).bfly_eligible

    def test_table2_dataset_names(self):
        assert load_workload("3D-PR").dataset == "DBCOLMAP-Playroom"
        assert load_workload("NV-BB").dataset == "KeenanCrane-Bob"
        assert load_workload("PS-SL").dataset == "SyntheticSpheres-Large"


class TestTrainingLoop:
    def test_gaussian_training_improves_psnr(self):
        workload = tiny_gaussian_workload()
        report = workload.train(iterations=25)
        assert report.iterations == 25
        assert report.psnr_end > report.psnr_start
        assert report.final_loss < report.losses[0]

    def test_sphere_training_reduces_loss(self):
        workload = tiny_sphere_workload()
        report = workload.train(iterations=20)
        assert report.final_loss < report.losses[0]

    def test_cubemap_training_reduces_loss(self):
        workload = tiny_cubemap_workload()
        report = workload.train(iterations=15)
        assert report.final_loss < report.losses[0] / 2

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            tiny_gaussian_workload().train(iterations=0)

    def test_final_loss_requires_iterations(self):
        from repro.workloads.base import TrainingReport
        with pytest.raises(ValueError):
            TrainingReport(workload="x").final_loss


class TestCapture:
    def test_gaussian_trace_has_high_locality(self):
        trace = tiny_gaussian_workload().capture_trace()
        assert intra_warp_locality(trace) > 0.99  # paper Observation 1

    def test_cubemap_trace_has_low_locality(self):
        trace = tiny_cubemap_workload().capture_trace()
        assert intra_warp_locality(trace) < 0.5

    def test_trace_views_concatenate_with_warp_offsets(self):
        single = tiny_gaussian_workload(trace_views=1).capture_trace()
        double = tiny_gaussian_workload(trace_views=2).capture_trace()
        assert double.n_batches > single.n_batches
        assert double.warp_id.max() > single.warp_id.max()

    def test_capture_with_values_allows_verification(self):
        trace = tiny_gaussian_workload().capture_trace(with_values=True)
        sums = trace.reference_sums()
        assert np.isfinite(sums).all()
        assert np.abs(sums).sum() > 0

    def test_warmup_steps_change_the_trace(self):
        cold = tiny_gaussian_workload().capture_trace()
        warm = tiny_gaussian_workload().capture_trace(warmup_steps=5)
        assert cold.n_batches != warm.n_batches or not np.array_equal(
            cold.lane_slots, warm.lane_slots
        )

    def test_invalid_trace_views_rejected(self):
        with pytest.raises(ValueError):
            tiny_gaussian_workload(trace_views=0)

    def test_concat_requires_matching_params(self):
        a = tiny_gaussian_workload().capture_trace()
        b = tiny_cubemap_workload().capture_trace()
        with pytest.raises(ValueError):
            _concat_traces([a, b], name="bad")
        with pytest.raises(ValueError):
            _concat_traces([], name="empty")

    def test_forward_stats(self):
        pairs, pixels = tiny_gaussian_workload().forward_stats()
        assert pixels == 64 * 64
        assert pairs > 0

    def test_quality_returns_finite_psnr(self):
        value = tiny_gaussian_workload().quality(0)
        assert np.isfinite(value)
        assert value > 5.0


@pytest.fixture
def render_calls(monkeypatch):
    """Count forward renders, losses and backward passes of every renderer.

    A forward render is one ``rasterize`` (splat renderers) or one
    cubemap sampling pass; target renders are forward renders too.
    """
    from repro.render import spheres, splatting, texture

    calls = Counter()

    def count(owner, name, kind):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for module in (splatting, spheres):
        count(module, "rasterize", "forward")
        count(module, "rasterize_backward", "backward")
        count(module, "l1_loss", "loss")
    count(texture, "l1_loss", "loss")
    count(texture.CubemapRenderer, "_sample_context", "forward")
    count(texture.CubemapRenderer, "backward", "backward")
    return calls


WORKLOAD_FACTORIES = pytest.mark.parametrize(
    "make", [tiny_gaussian_workload, tiny_sphere_workload,
             tiny_cubemap_workload],
    ids=["gaussian", "sphere", "cubemap"],
)


class TestCaptureWork:
    """Capture reads forward state: no target, loss or backward unless
    gradient values are asked for."""

    @WORKLOAD_FACTORIES
    def test_capture_runs_one_forward_per_trace_view(self, render_calls, make):
        workload = make(trace_views=2)
        workload.capture_trace()
        assert render_calls == {"forward": 2}

    @WORKLOAD_FACTORIES
    def test_capture_with_values_runs_the_backward(self, render_calls, make):
        workload = make(trace_views=2)
        workload.capture_trace(with_values=True)
        # Per traced view: model forward, its target, loss and backward.
        assert render_calls == {"forward": 4, "loss": 2, "backward": 2}

    @WORKLOAD_FACTORIES
    def test_forward_stats_runs_no_backward(self, render_calls, make):
        make().forward_stats()
        assert render_calls == {"forward": 1}

    @WORKLOAD_FACTORIES
    def test_quality_renders_one_target_once(self, render_calls, make):
        workload = make()
        workload.quality(0)
        assert render_calls == {"forward": 2}
        workload.quality(0)
        assert render_calls == {"forward": 3}
