"""Tests for the tile rasterizer: compositing, termination, traces."""

import numpy as np
import pytest

from repro.render.rasterizer import (
    ALPHA_MIN,
    N_SCREEN_PARAMS,
    SKIP_CYCLES,
    T_MIN,
    TILE,
    WARPS_PER_TILE,
    Splats,
    rasterize,
    rasterize_backward,
    warp_trace,
)
from repro.trace.events import INACTIVE


def make_splats(mean2d, colors=None, depth=None, sigma=4.0, opacity=0.8):
    mean2d = np.atleast_2d(np.asarray(mean2d, dtype=float))
    n = len(mean2d)
    inv_var = 1.0 / sigma**2
    return Splats(
        mean2d=mean2d,
        conic=np.tile([inv_var, 0.0, inv_var], (n, 1)),
        radius=np.full(n, 3.0 * sigma),
        depth=np.arange(n, dtype=float) + 1 if depth is None else np.asarray(depth, float),
        colors=np.tile([1.0, 0.5, 0.25], (n, 1)) if colors is None else np.asarray(colors, float),
        opacities=np.full(n, opacity),
    )


class TestForward:
    def test_dimension_validation(self):
        splats = make_splats([[8.0, 8.0]])
        with pytest.raises(ValueError):
            rasterize(splats, 30, 32)

    def test_background_fills_empty_image(self):
        splats = make_splats([[8.0, 8.0]])
        splats.radius[:] = 0.0  # disabled
        out = rasterize(splats, 32, 32, background=np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(
            out.image, np.broadcast_to([0.1, 0.2, 0.3], out.image.shape)
        )

    def test_single_splat_peak_at_center(self):
        splats = make_splats([[16.0, 16.0]])
        out = rasterize(splats, 32, 32)
        peak = out.image[:, :, 0].max()
        y, x = np.unravel_index(out.image[:, :, 0].argmax(),
                                out.image.shape[:2])
        assert peak == pytest.approx(0.8 * 1.0, abs=0.05)
        assert abs(x - 16) <= 1 and abs(y - 16) <= 1

    def test_image_in_unit_range(self):
        rng = np.random.default_rng(0)
        splats = make_splats(rng.uniform(0, 64, size=(30, 2)))
        out = rasterize(splats, 64, 64)
        assert out.image.min() >= 0.0
        assert out.image.max() <= 1.0 + 1e-9

    def test_front_to_back_order_occludes(self):
        """An opaque near splat hides a far one at the shared center."""
        near_first = make_splats(
            [[16.0, 16.0], [16.0, 16.0]],
            colors=[[1, 0, 0], [0, 1, 0]],
            depth=[1.0, 2.0], opacity=0.98,
        )
        out = rasterize(near_first, 32, 32)
        center = out.image[16, 16]
        assert center[0] > 10 * center[1]  # red dominates

    def test_depth_sorting_independent_of_input_order(self):
        a = make_splats([[16.0, 16.0], [16.0, 16.0]],
                        colors=[[1, 0, 0], [0, 1, 0]], depth=[1.0, 2.0])
        b = make_splats([[16.0, 16.0], [16.0, 16.0]],
                        colors=[[0, 1, 0], [1, 0, 0]], depth=[2.0, 1.0])
        np.testing.assert_allclose(
            rasterize(a, 32, 32).image, rasterize(b, 32, 32).image,
            atol=1e-12,
        )

    def test_transmittance_terminates_deep_stacks(self):
        """Once T < T_MIN, later splats contribute exactly nothing."""
        n = 40
        splats = make_splats(
            np.tile([16.0, 16.0], (n, 1)),
            colors=np.tile([0.5, 0.5, 0.5], (n, 1)),
            depth=np.arange(n, dtype=float),
            opacity=0.9,
        )
        out = rasterize(splats, 32, 32)
        [tile] = [t for t in out.tiles if t.x0 == 16 and t.y0 == 16]
        # Global pixel (16, 16) is local (0, 0) of this tile.
        alphas = tile.alpha[0]
        # With alpha 0.9, T crosses 1e-4 after ~4 splats: the tail is zero.
        assert (alphas[8:] == 0.0).all()
        assert alphas[0] > 0

    def test_alpha_min_threshold_drops_faint_contributions(self):
        splats = make_splats([[16.0, 16.0]], opacity=ALPHA_MIN * 0.9)
        out = rasterize(splats, 32, 32)
        assert out.image.max() == 0.0

    def test_forward_pairs_counts_tile_work(self):
        splats = make_splats([[16.0, 16.0]])
        out = rasterize(splats, 64, 64)
        # sigma=4 -> radius 12 -> covers the 4 tiles around the corner...
        # here centered in tile (1,1): extent spans several tiles.
        assert out.n_pixel_splat_pairs % (TILE * TILE) == 0
        assert out.n_pixel_splat_pairs > 0


class TestBackward:
    def run_case(self, capture=False, with_values=False):
        rng = np.random.default_rng(1)
        splats = make_splats(rng.uniform(4, 28, size=(6, 2)), sigma=3.0)
        splats.colors[:] = rng.uniform(0.2, 0.8, size=(6, 3))
        out = rasterize(splats, 32, 32)
        grad_image = rng.standard_normal(out.image.shape) * 1e-2
        backward = rasterize_backward(
            out, grad_image, capture_trace=capture, with_values=with_values
        )
        return splats, out, grad_image, backward

    def test_shapes(self):
        splats, _, _, backward = self.run_case()
        assert backward.grad_mean2d.shape == (6, 2)
        assert backward.grad_conic.shape == (6, 3)
        assert backward.grad_colors.shape == (6, 3)
        assert backward.grad_opacities.shape == (6,)
        assert backward.trace is None

    def test_grad_image_shape_checked(self):
        splats, out, _, _ = self.run_case()
        with pytest.raises(ValueError):
            rasterize_backward(out, np.zeros((8, 8, 3)))

    def test_color_gradient_matches_numeric(self):
        splats, out, grad_image, backward = self.run_case()
        eps = 1e-6
        index = int(np.abs(backward.grad_colors[:, 0]).argmax())
        splats.colors[index, 0] += eps
        plus = rasterize(splats, 32, 32).image
        splats.colors[index, 0] -= 2 * eps
        minus = rasterize(splats, 32, 32).image
        splats.colors[index, 0] += eps
        numeric = float(np.sum((plus - minus) * grad_image) / (2 * eps))
        assert backward.grad_colors[index, 0] == pytest.approx(
            numeric, rel=1e-5, abs=1e-10
        )

    def test_mean_gradient_matches_numeric(self):
        splats, out, grad_image, backward = self.run_case()
        eps = 1e-6
        index = int(np.abs(backward.grad_mean2d[:, 0]).argmax())
        splats.mean2d[index, 0] += eps
        plus = rasterize(splats, 32, 32).image
        splats.mean2d[index, 0] -= 2 * eps
        minus = rasterize(splats, 32, 32).image
        splats.mean2d[index, 0] += eps
        numeric = float(np.sum((plus - minus) * grad_image) / (2 * eps))
        assert backward.grad_mean2d[index, 0] == pytest.approx(
            numeric, rel=1e-5, abs=1e-10
        )

    def test_trace_structure(self):
        splats, out, _, backward = self.run_case(capture=True)
        trace = backward.trace
        assert trace is not None
        assert trace.num_params == N_SCREEN_PARAMS
        # One batch per (tile, splat, warp).
        expected = sum(
            len(t.splat_ids) * WARPS_PER_TILE for t in out.raster.tiles
        ) if hasattr(out, "raster") else trace.n_batches
        assert trace.n_batches == sum(
            len(t.splat_ids) * WARPS_PER_TILE for t in out.tiles
        )
        assert trace.lane_slots.max() < len(splats)

    def test_forward_trace_is_the_backward_trace(self):
        """The trace reads only forward state; the backward pass adds values."""
        _, out, _, backward = self.run_case(capture=True)
        assert warp_trace(out).fingerprint == backward.trace.fingerprint
        _, out, _, valued = self.run_case(capture=True, with_values=True)
        forward = warp_trace(out)
        assert forward.values is None
        np.testing.assert_array_equal(forward.lane_slots,
                                      valued.trace.lane_slots)
        np.testing.assert_array_equal(forward.compute_cycles,
                                      valued.trace.compute_cycles)

    def test_trace_compute_cycles_distinguish_empty_warps(self):
        _, _, _, backward = self.run_case(capture=True)
        trace = backward.trace
        compute = trace.compute_cycles_per_batch
        empty = trace.active_lane_counts == 0
        assert (compute[empty] == SKIP_CYCLES).all()
        if (~empty).any():
            assert (compute[~empty] > SKIP_CYCLES).all()

    def test_trace_values_sum_to_screen_gradients(self):
        """The captured per-lane values scatter-add to the same gradients
        the backward pass reports -- the atomics' ground truth."""
        splats, _, _, backward = self.run_case(capture=True,
                                               with_values=True)
        sums = backward.trace.reference_sums()
        np.testing.assert_allclose(sums[:, 0], backward.grad_mean2d[:, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(sums[:, 5:8], backward.grad_colors,
                                   atol=1e-12)
        np.testing.assert_allclose(sums[:, 8], backward.grad_opacities,
                                   atol=1e-12)

    def test_trace_batches_back_to_front_per_warp(self):
        """The backward kernel walks splats back-to-front (paper Fig. 5)."""
        splats, out, _, backward = self.run_case(capture=True)
        trace = backward.trace
        [first_tile] = out.tiles[:1]
        warp0 = trace.warp_id == first_tile.tile_index * WARPS_PER_TILE
        slots = trace.lane_slots[warp0]
        # Each batch's slot (where any lane is active) must follow the
        # reversed depth order of the tile's splat list.
        reversed_ids = first_tile.splat_ids[::-1]
        for batch, expected in zip(slots, reversed_ids):
            active = batch[batch != INACTIVE]
            if len(active):
                assert (active == expected).all()
