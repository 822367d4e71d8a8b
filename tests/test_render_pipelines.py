"""End-to-end gradient checks and training smoke tests for all three
differentiable renderers (3DGS, Pulsar spheres, NvDiffRec cubemaps)."""

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.gaussians import GaussianScene
from repro.render.splatting import GaussianRenderer
from repro.render.spheres import SphereRenderer, SphereScene
from repro.render.texture import Cubemap, CubemapRenderer, procedural_cubemap

RNG = np.random.default_rng(0)


def check_gradients(renderer, scene_params, camera, target, gradients,
                    samples=6, eps=1e-6, rel=2e-4):
    """Central-difference check of a few entries of every gradient array."""
    rng = np.random.default_rng(42)
    for name, analytic in gradients.items():
        flat = scene_params[name].reshape(-1)
        flat_grad = analytic.reshape(-1)
        candidates = np.nonzero(np.abs(flat_grad) > 1e-12)[0]
        if len(candidates) == 0:
            continue
        picks = rng.choice(candidates, size=min(samples, len(candidates)),
                           replace=False)
        for index in picks:
            original = flat[index]
            flat[index] = original + eps
            plus = renderer.loss_only(camera, target)
            flat[index] = original - eps
            minus = renderer.loss_only(camera, target)
            flat[index] = original
            numeric = (plus - minus) / (2 * eps)
            assert flat_grad[index] == pytest.approx(
                numeric, rel=rel, abs=1e-9
            ), f"{name}[{index}]"


class TestGaussianPipeline:
    def setup_method(self):
        self.scene = GaussianScene.random(10, extent=0.6, seed=3,
                                          base_scale=0.15)
        self.camera = Camera.looking_at([0.2, -0.3, -3.0], [0, 0, 0],
                                        width=32, height=32)
        self.target = RNG.uniform(0, 1, (32, 32, 3))
        self.renderer = GaussianRenderer(self.scene)

    def test_full_pipeline_gradients_match_numeric(self):
        context = self.renderer.forward(self.camera)
        result = self.renderer.backward(self.camera, context, self.target)
        check_gradients(self.renderer, self.scene.parameters(), self.camera,
                        self.target, result.gradients)

    def test_loss_positive_for_mismatched_target(self):
        context = self.renderer.forward(self.camera)
        result = self.renderer.backward(self.camera, context, self.target)
        assert result.loss > 0

    def test_render_returns_image(self):
        image = self.renderer.render(self.camera)
        assert image.shape == (32, 32, 3)

    def test_trace_capture_optional(self):
        context = self.renderer.forward(self.camera)
        without = self.renderer.backward(self.camera, context, self.target)
        assert without.trace is None
        context = self.renderer.forward(self.camera)
        with_trace = self.renderer.backward(
            self.camera, context, self.target, capture_trace=True
        )
        assert with_trace.trace is not None
        assert with_trace.trace.bfly_eligible
        assert self.renderer.trace(context).fingerprint \
            == with_trace.trace.fingerprint

    def test_gradient_descent_reduces_loss(self):
        from repro.render.optim import Adam
        optimizer = Adam(lr=0.01)
        losses = []
        for _ in range(12):
            context = self.renderer.forward(self.camera)
            result = self.renderer.backward(self.camera, context, self.target)
            optimizer.step(self.scene.parameters(), result.gradients)
            losses.append(result.loss)
        assert losses[-1] < losses[0]


class TestSpherePipeline:
    def setup_method(self):
        self.scene = SphereScene.random(8, extent=0.6, seed=5,
                                        base_radius=0.18)
        self.camera = Camera.looking_at([0.1, 0.2, -3.0], [0, 0, 0],
                                        width=32, height=32)
        self.target = RNG.uniform(0, 1, (32, 32, 3))
        self.renderer = SphereRenderer(self.scene)

    def test_full_pipeline_gradients_match_numeric(self):
        context = self.renderer.forward(self.camera)
        result = self.renderer.backward(self.camera, context, self.target)
        check_gradients(self.renderer, self.scene.parameters(), self.camera,
                        self.target, result.gradients)

    def test_backward_requires_forward(self):
        renderer = SphereRenderer(self.scene)
        context = self.renderer.forward(self.camera)
        with pytest.raises(RuntimeError):
            renderer.backward(self.camera, context, self.target)

    def test_trace_marked_bfly_ineligible(self):
        """Pulsar kernels keep divergence; SW-B must not apply (§7.2)."""
        context = self.renderer.forward(self.camera)
        result = self.renderer.backward(
            self.camera, context, self.target, capture_trace=True
        )
        assert result.trace is not None
        assert not result.trace.bfly_eligible
        assert self.renderer.trace(context).fingerprint \
            == result.trace.fingerprint

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            SphereScene.random(0)
        with pytest.raises(ValueError):
            SphereScene(
                centers=np.zeros((2, 3)),
                log_radii=np.zeros(3),
                colors=np.zeros((2, 3)),
                opacity_logits=np.zeros(2),
            )


class TestCubemapPipeline:
    def setup_method(self):
        self.cubemap = Cubemap.constant(12, 0.35)
        self.renderer = CubemapRenderer(self.cubemap)
        self.camera = Camera.looking_at([0, 0, -2.8], [0, 0, 0],
                                        width=32, height=32)
        reference = procedural_cubemap(12, seed=2)
        self.target = CubemapRenderer(reference).forward(self.camera)

    def test_texel_gradients_match_numeric(self):
        image = self.renderer.forward(self.camera)
        _, gradients, _ = self.renderer.backward(
            self.camera, image, self.target
        )
        check_gradients(self.renderer, self.cubemap.parameters(),
                        self.camera, self.target, gradients)

    def test_miss_pixels_show_background(self):
        renderer = CubemapRenderer(
            self.cubemap, background=np.array([0.9, 0.0, 0.0])
        )
        image = renderer.forward(self.camera)
        corner = image[0, 0]
        np.testing.assert_allclose(corner, [0.9, 0.0, 0.0])

    def test_trace_uses_texel_slots(self):
        image = self.renderer.forward(self.camera)
        _, _, trace = self.renderer.backward(
            self.camera, image, self.target, capture_trace=True
        )
        assert trace.num_params == 3
        assert trace.n_slots == self.cubemap.n_texels
        active = trace.lane_slots[trace.lane_slots >= 0]
        assert active.max() < self.cubemap.n_texels
        assert self.renderer.trace().fingerprint == trace.fingerprint
        with pytest.raises(RuntimeError):
            CubemapRenderer(self.cubemap).trace()

    def test_training_converges(self):
        from repro.render.optim import Adam
        optimizer = Adam(lr=0.05)
        first = last = None
        for _ in range(15):
            image = self.renderer.forward(self.camera)
            loss, gradients, _ = self.renderer.backward(
                self.camera, image, self.target
            )
            optimizer.step(self.cubemap.parameters(), gradients)
            if first is None:
                first = loss
            last = loss
        assert last < first / 2

    def test_cubemap_validation(self):
        with pytest.raises(ValueError):
            Cubemap(np.zeros((5, 4, 4, 3)))
        with pytest.raises(ValueError):
            Cubemap(np.zeros((6, 4, 5, 3)))
        with pytest.raises(ValueError):
            CubemapRenderer(self.cubemap, sphere_radius=0.0)

    def test_procedural_cubemap_in_unit_range(self):
        cubemap = procedural_cubemap(16, seed=9)
        assert cubemap.texels.min() >= 0.0
        assert cubemap.texels.max() <= 1.0
