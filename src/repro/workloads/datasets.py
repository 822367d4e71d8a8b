"""The paper's Table 2 workload registry (3DGS, NvDiffRec, Pulsar).

Twelve workloads across three raster-based differentiable rendering
applications.  Dataset *scale* knobs (primitive count, resolution, scene
extent) mirror the relative complexity of the paper's datasets: the
DB-COLMAP scenes (PR, DR) are large photorealistic environments with many
primitives -- where the paper measures the worst atomic bottleneck and the
biggest ARC speedups -- while the NeRF-Synthetic objects (LE, SH) are
medium-sized, and the NvDiffRec/Pulsar workloads stress different atomic
traffic shapes (scattered texels; divergent sphere kernels).
"""

from __future__ import annotations


from repro.render.optim import Adam
from repro.render.splatting import GaussianRenderer
from repro.render.spheres import SphereRenderer
from repro.render.texture import Cubemap, CubemapRenderer, procedural_cubemap
from repro.workloads.base import ForwardOutcome, IterationOutcome, Workload
from repro.workloads.scenes import (
    clustered_gaussian_scene,
    clustered_sphere_scene,
    perturbed_gaussian_scene,
    perturbed_sphere_scene,
)

__all__ = [
    "GaussianWorkload",
    "SphereWorkload",
    "CubemapWorkload",
    "WORKLOAD_KEYS",
    "APPLICATIONS",
    "load_workload",
    "all_workloads",
]


class _SplatWorkload(Workload):
    """A scene rendered through the shared tile rasterizer (3DGS, Pulsar)."""

    def parameters(self):
        """The trainable scene arrays (updated in place)."""
        return self.scene.parameters()

    def forward(self, view_index, capture_trace=False):
        """Forward pass on one training view; the trace reads its state."""
        self.ensure_built()
        camera = self.cameras[view_index]
        context = self.renderer.forward(camera)
        trace = (
            self.renderer.trace(context, trace_name=self.key)
            if capture_trace else None
        )
        return ForwardOutcome(
            trace=trace,
            forward_pairs=context.forward_pairs,
            n_pixels=camera.width * camera.height,
        )

    def iteration(self, view_index, capture_trace=False, with_values=False):
        """Forward + loss + backward on one training view."""
        self.ensure_built()
        camera = self.cameras[view_index]
        context = self.renderer.forward(camera)
        result = self.renderer.backward(
            camera, context, self.target(view_index),
            capture_trace=capture_trace, with_values=with_values,
            trace_name=self.key,
        )
        return IterationOutcome(
            loss=result.loss, gradients=result.gradients, trace=result.trace
        )


class GaussianWorkload(_SplatWorkload):
    """3D Gaussian Splatting scene fitting (the paper's "3D" rows)."""

    bfly_eligible = True

    def __init__(self, key, dataset, description, n_gaussians,
                 width=96, height=96, extent=1.0, n_clusters=12,
                 base_scale=0.05, seed=0, compute_cycles=280.0, **kwargs):
        super().__init__(
            key=key, app="3DGS", dataset=dataset, description=description,
            width=width, height=height, seed=seed, **kwargs,
        )
        self.n_gaussians = n_gaussians
        self.extent = extent
        self.n_clusters = n_clusters
        self.base_scale = base_scale
        self.compute_cycles = compute_cycles

    def _build(self) -> None:
        reference = clustered_gaussian_scene(
            self.n_gaussians, seed=self.seed, extent=self.extent,
            n_clusters=self.n_clusters, base_scale=self.base_scale,
        )
        self.reference = GaussianRenderer(reference)
        self.scene = perturbed_gaussian_scene(reference, seed=self.seed + 1)
        self.renderer = GaussianRenderer(
            self.scene, compute_cycles=self.compute_cycles
        )

    def default_optimizer(self) -> Adam:
        """Adam with the per-parameter learning rates 3DGS-style training uses."""
        return Adam(
            lr=0.01,
            lr_overrides={
                "positions": 0.002,
                "log_scales": 0.004,
                "quaternions": 0.002,
                "colors": 0.02,
                "opacity_logits": 0.02,
            },
        )


class SphereWorkload(_SplatWorkload):
    """Pulsar sphere-based rendering (the paper's "PS" rows).

    Pulsar's gradient kernel could not eliminate thread divergence, so the
    SW-B (butterfly) variant is inapplicable (§7.2).
    """

    bfly_eligible = False

    def __init__(self, key, dataset, description, n_spheres,
                 width=96, height=96, extent=1.0, n_clusters=10,
                 base_radius=0.06, seed=0, compute_cycles=200.0, **kwargs):
        super().__init__(
            key=key, app="Pulsar", dataset=dataset, description=description,
            width=width, height=height, seed=seed, **kwargs,
        )
        self.n_spheres = n_spheres
        self.extent = extent
        self.n_clusters = n_clusters
        self.base_radius = base_radius
        self.compute_cycles = compute_cycles

    def _build(self) -> None:
        reference = clustered_sphere_scene(
            self.n_spheres, seed=self.seed, extent=self.extent,
            n_clusters=self.n_clusters, base_radius=self.base_radius,
        )
        self.reference = SphereRenderer(reference)
        self.scene = perturbed_sphere_scene(reference, seed=self.seed + 1)
        self.renderer = SphereRenderer(
            self.scene, compute_cycles=self.compute_cycles
        )

    def default_optimizer(self) -> Adam:
        """Adam with the per-parameter learning rates 3DGS-style training uses."""
        return Adam(
            lr=0.01,
            lr_overrides={
                "centers": 0.002,
                "log_radii": 0.004,
                "colors": 0.02,
                "opacity_logits": 0.02,
            },
        )


class CubemapWorkload(Workload):
    """NvDiffRec specular-cubemap learning (the paper's "NV" rows)."""

    bfly_eligible = True
    trace_views = 4  # NV kernels are small; capture a few launches
    #: NvDiffRec's loss is a plain image difference (no D-SSIM windows).
    loss_channel_cycles = 30.0
    #: Forward work per pixel in compositing-pair equivalents: ray-sphere
    #: intersection, reflection, cube-face selection, 4-tap bilinear.
    FORWARD_TAPS = 12

    def __init__(self, key, dataset, description, cubemap_resolution,
                 width=128, height=128, n_blobs=24, sphere_radius=1.0,
                 seed=0, compute_cycles=180.0, **kwargs):
        super().__init__(
            key=key, app="NvDiffRec", dataset=dataset,
            description=description, width=width, height=height,
            camera_radius=2.6, seed=seed, **kwargs,
        )
        self.cubemap_resolution = cubemap_resolution
        self.n_blobs = n_blobs
        self.sphere_radius = sphere_radius
        self.compute_cycles = compute_cycles

    def _build(self) -> None:
        reference = procedural_cubemap(
            self.cubemap_resolution, seed=self.seed, n_blobs=self.n_blobs
        )
        self.reference = CubemapRenderer(
            reference, sphere_radius=self.sphere_radius
        )
        self.cubemap = Cubemap.constant(self.cubemap_resolution, 0.4)
        self.renderer = CubemapRenderer(
            self.cubemap, sphere_radius=self.sphere_radius,
            compute_cycles=self.compute_cycles,
        )

    def parameters(self):
        """The trainable cubemap texels (updated in place)."""
        return self.cubemap.parameters()

    def default_optimizer(self) -> Adam:
        """Adam with the per-parameter learning rates 3DGS-style training uses."""
        return Adam(lr=0.05)

    def forward(self, view_index, capture_trace=False):
        """Forward pass on one training view; the trace reads its state."""
        self.ensure_built()
        camera = self.cameras[view_index]
        self.renderer.forward(camera)
        n_pixels = camera.width * camera.height
        return ForwardOutcome(
            trace=(
                self.renderer.trace(trace_name=self.key)
                if capture_trace else None
            ),
            forward_pairs=n_pixels * self.FORWARD_TAPS,
            n_pixels=n_pixels,
        )

    def iteration(self, view_index, capture_trace=False, with_values=False):
        """Forward + loss + backward on one training view."""
        self.ensure_built()
        camera = self.cameras[view_index]
        image = self.renderer.forward(camera)
        loss, gradients, trace = self.renderer.backward(
            camera, image, self.target(view_index),
            capture_trace=capture_trace, with_values=with_values,
            trace_name=self.key,
        )
        return IterationOutcome(loss=loss, gradients=gradients, trace=trace)


def _registry() -> dict:
    """Factories for all 12 Table 2 workloads (fresh instance per call)."""
    return {
        # 3DGS -- NeRF-Synthetic (medium object scenes)
        "3D-LE": lambda: GaussianWorkload(
            "3D-LE", "NerfSynthetic-Lego", "3DGS on a Lego-scale object",
            n_gaussians=1150, base_scale=0.13, extent=1.8, n_clusters=30,
            width=192, height=160, trace_views=2, seed=10,
        ),
        "3D-SH": lambda: GaussianWorkload(
            "3D-SH", "NerfSynthetic-Ship", "3DGS on a Ship-scale object",
            n_gaussians=1350, base_scale=0.125, extent=1.85, n_clusters=24,
            width=192, height=160, trace_views=2, seed=11,
        ),
        # 3DGS -- DB COLMAP (large photorealistic scenes, worst bottleneck)
        "3D-PR": lambda: GaussianWorkload(
            "3D-PR", "DBCOLMAP-Playroom", "3DGS on a Playroom-scale scene",
            n_gaussians=1400, base_scale=0.165, extent=1.9, n_clusters=40,
            width=192, height=176, trace_views=2, seed=12,
        ),
        "3D-DR": lambda: GaussianWorkload(
            "3D-DR", "DBCOLMAP-DrJohnson", "3DGS on a DrJohnson-scale scene",
            n_gaussians=1550, base_scale=0.17, extent=2.0, n_clusters=44,
            width=192, height=176, trace_views=2, seed=13,
        ),
        # 3DGS -- Tanks & Temples (medium-large outdoor scenes)
        "3D-TK": lambda: GaussianWorkload(
            "3D-TK", "TanksTemples-Truck", "3DGS on a Truck-scale scene",
            n_gaussians=1250, base_scale=0.15, extent=1.85, n_clusters=32,
            width=192, height=160, trace_views=2, seed=14,
        ),
        "3D-TA": lambda: GaussianWorkload(
            "3D-TA", "TanksTemples-Train", "3DGS on a Train-scale scene",
            n_gaussians=1300, base_scale=0.145, extent=1.9, n_clusters=34,
            width=192, height=160, trace_views=2, seed=15,
        ),
        # NvDiffRec -- Keenan Crane meshes + NeRF-Synthetic
        "NV-BB": lambda: CubemapWorkload(
            "NV-BB", "KeenanCrane-Bob", "NvDiffRec cubemap, Bob mesh",
            cubemap_resolution=10, width=192, height=192,
            trace_views=8, seed=20,
        ),
        "NV-SP": lambda: CubemapWorkload(
            "NV-SP", "KeenanCrane-Spot", "NvDiffRec cubemap, Spot mesh",
            cubemap_resolution=10, width=176, height=176, n_blobs=32,
            trace_views=8, seed=21,
        ),
        "NV-LE": lambda: CubemapWorkload(
            "NV-LE", "NerfSynthetic-Lego", "NvDiffRec cubemap, Lego scene",
            cubemap_resolution=10, width=192, height=192,
            sphere_radius=1.2, compute_cycles=200.0,
            trace_views=8, seed=22,
        ),
        "NV-SH": lambda: CubemapWorkload(
            "NV-SH", "NerfSynthetic-Ship", "NvDiffRec cubemap, Ship scene",
            cubemap_resolution=10, width=176, height=176, n_blobs=32,
            sphere_radius=1.2, compute_cycles=200.0,
            trace_views=8, seed=23,
        ),
        # Pulsar -- synthetic sphere datasets
        "PS-SS": lambda: SphereWorkload(
            "PS-SS", "SyntheticSpheres-Small", "Pulsar, small sphere cloud",
            n_spheres=700, base_radius=0.13, extent=1.5, n_clusters=16,
            width=192, height=160, trace_views=2, seed=30,
        ),
        "PS-SL": lambda: SphereWorkload(
            "PS-SL", "SyntheticSpheres-Large", "Pulsar, large sphere cloud",
            n_spheres=1400, base_radius=0.11, extent=1.8, n_clusters=28,
            width=224, height=176, trace_views=2, seed=31,
        ),
    }


#: All workload keys in Table 2 order.
WORKLOAD_KEYS: tuple[str, ...] = tuple(_registry())

#: Application prefix of each workload key.
APPLICATIONS = {"3D": "3DGS", "NV": "NvDiffRec", "PS": "Pulsar"}


def load_workload(key: str) -> Workload:
    """Instantiate (but do not build) the workload named *key*."""
    registry = _registry()
    if key not in registry:
        raise KeyError(
            f"unknown workload {key!r}; choose from {sorted(registry)}"
        )
    return registry[key]()


def all_workloads() -> list[Workload]:
    """Fresh instances of all 12 workloads, in Table 2 order."""
    return [load_workload(key) for key in WORKLOAD_KEYS]
