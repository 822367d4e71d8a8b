"""Pulsar-style differentiable sphere rendering (§6 workload "PS").

Pulsar (Lassner & Zollhofer 2021) represents scenes as opaque-ish spheres
and rasterizes them with soft edges so coverage is differentiable.  We model
each projected sphere as an isotropic screen-space splat whose footprint
scales with the projected radius, and reuse the shared tile compositor.
The backward kernel accumulates gradients for the same per-primitive
parameter block as the other workloads, and its atomic trace comes from
the forward pass through the shared :func:`~repro.render.rasterizer.warp_trace`.
Pulsar's kernel cannot eliminate thread divergence, so its traces are
marked ineligible for ARC-SW's butterfly variant (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.loss import l1_loss, l1_loss_grad
from repro.render.rasterizer import (
    Splats,
    rasterize,
    rasterize_backward,
    warp_trace,
)
from repro.render.splatting import GradientsAndTrace, RenderContext
from repro.trace.events import KernelTrace

__all__ = ["SphereScene", "SphereRenderer"]

#: Footprint: the splat's Gaussian sigma is the projected radius over this.
SIGMA_DIVISOR = 2.0


@dataclass
class SphereScene:
    """Learnable sphere cloud: centers, log radii, colors, opacity logits."""

    centers: np.ndarray
    log_radii: np.ndarray
    colors: np.ndarray
    opacity_logits: np.ndarray

    #: Gradient parameters accumulated atomically per sphere.
    ATOMIC_PARAMS = 9

    def __post_init__(self) -> None:
        n = len(self.centers)
        shapes = {
            "centers": (n, 3),
            "log_radii": (n,),
            "colors": (n, 3),
            "opacity_logits": (n,),
        }
        for name, shape in shapes.items():
            value = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def radii(self) -> np.ndarray:
        return np.exp(self.log_radii)

    @property
    def opacities(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.opacity_logits))

    def parameters(self) -> dict[str, np.ndarray]:
        """Named learnable arrays (views, not copies) for optimizers."""
        return {
            "centers": self.centers,
            "log_radii": self.log_radii,
            "colors": self.colors,
            "opacity_logits": self.opacity_logits,
        }

    @classmethod
    def random(cls, n_spheres: int, extent: float = 1.0, seed: int = 0,
               base_radius: float = 0.08) -> "SphereScene":
        if n_spheres <= 0:
            raise ValueError("n_spheres must be positive")
        rng = np.random.default_rng(seed)
        return cls(
            centers=rng.uniform(-extent, extent, size=(n_spheres, 3)),
            log_radii=np.log(base_radius)
            + rng.uniform(-0.5, 0.5, size=n_spheres),
            colors=rng.uniform(0.05, 0.95, size=(n_spheres, 3)),
            opacity_logits=rng.uniform(0.5, 2.5, size=n_spheres),
        )


@dataclass
class _SphereProjection:
    """Per-sphere projection intermediates kept for backward."""

    t: np.ndarray        # (N, 3) camera-space centers
    sigma: np.ndarray    # (N,) splat sigma in pixels
    valid: np.ndarray    # (N,)


class SphereRenderer:
    """Differentiable renderer for a :class:`SphereScene`."""

    def __init__(self, scene: SphereScene,
                 background: np.ndarray | None = None,
                 compute_cycles: float = 90.0):
        self.scene = scene
        self.background = (
            np.zeros(3) if background is None
            else np.asarray(background, dtype=np.float64)
        )
        self.compute_cycles = compute_cycles
        self._last_projection: _SphereProjection | None = None

    def _project(self, camera: Camera) -> tuple[Splats, _SphereProjection]:
        scene = self.scene
        t = camera.world_to_camera(scene.centers)
        depth = t[:, 2]
        valid = depth > camera.near
        safe_z = np.where(valid, depth, 1.0)

        mean2d = np.stack(
            [
                camera.fx * t[:, 0] / safe_z + camera.cx,
                camera.fy * t[:, 1] / safe_z + camera.cy,
            ],
            axis=1,
        )
        mean2d = np.where(valid[:, None], mean2d, 0.0)
        sigma = camera.fx * scene.radii / (SIGMA_DIVISOR * safe_z)
        sigma = np.maximum(sigma, 1e-6)
        inv_var = 1.0 / sigma**2
        conic = np.stack(
            [inv_var, np.zeros_like(inv_var), inv_var], axis=1
        )
        radius = np.where(valid, np.ceil(3.0 * sigma), 0.0)
        splats = Splats(
            mean2d=mean2d,
            conic=conic,
            radius=radius,
            depth=depth,
            colors=np.clip(scene.colors, 0.0, 1.0),
            opacities=scene.opacities,
        )
        return splats, _SphereProjection(t=t, sigma=sigma, valid=valid)

    def forward(self, camera: Camera) -> RenderContext:
        """Render the spheres from *camera*; keep backward intermediates."""
        splats, projection = self._project(camera)
        raster = rasterize(
            splats, camera.width, camera.height, self.background
        )
        self._last_projection = projection
        return RenderContext(image=raster.image, projected=None, raster=raster)

    def render(self, camera: Camera) -> np.ndarray:
        """Convenience: just the (H, W, 3) image."""
        return self.forward(camera).image

    def trace(self, context: RenderContext,
              trace_name: str = "pulsar") -> KernelTrace:
        """Atomic trace of the gradient kernel, from forward state alone."""
        return warp_trace(
            context.raster,
            compute_cycles=self.compute_cycles,
            bfly_eligible=False,  # Pulsar cannot remove divergence (§7.2)
            trace_name=trace_name,
        )

    def backward(
        self,
        camera: Camera,
        context: RenderContext,
        target: np.ndarray,
        capture_trace: bool = False,
        with_values: bool = False,
        trace_name: str = "pulsar",
    ) -> GradientsAndTrace:
        """L1 loss against *target* and gradients for all parameters.

        *capture_trace* adds :meth:`trace`'s trace, with the per-lane
        gradients as values when *with_values* is set.
        """
        if self._last_projection is None:
            raise RuntimeError("backward called before forward")
        projection = self._last_projection
        loss = l1_loss(context.image, target)
        grad_image = l1_loss_grad(context.image, target)
        screen = rasterize_backward(
            context.raster,
            grad_image,
            capture_trace=capture_trace,
            with_values=with_values,
            compute_cycles=self.compute_cycles,
            bfly_eligible=False,  # Pulsar cannot remove divergence (§7.2)
            trace_name=trace_name,
        )

        scene = self.scene
        t = projection.t
        valid = projection.valid
        safe_z = np.where(valid, t[:, 2], 1.0)
        fx, fy = camera.fx, camera.fy
        inv_z = 1.0 / safe_z

        grad_mean2d = np.where(valid[:, None], screen.grad_mean2d, 0.0)
        grad_conic = np.where(valid[:, None], screen.grad_conic, 0.0)

        # conic = diag(sigma^-2): only xx and yy entries depend on sigma.
        sigma = projection.sigma
        grad_sigma = (grad_conic[:, 0] + grad_conic[:, 2]) * (-2.0 / sigma**3)
        # sigma = fx * r / (SIGMA_DIVISOR * z).
        grad_log_radii = grad_sigma * sigma  # d sigma / d log r = sigma
        grad_z_from_sigma = -grad_sigma * sigma * inv_z

        grad_t = np.zeros_like(t)
        grad_t[:, 0] = grad_mean2d[:, 0] * fx * inv_z
        grad_t[:, 1] = grad_mean2d[:, 1] * fy * inv_z
        grad_t[:, 2] = (
            -grad_mean2d[:, 0] * fx * t[:, 0] * inv_z**2
            - grad_mean2d[:, 1] * fy * t[:, 1] * inv_z**2
            + grad_z_from_sigma
        )
        grad_centers = grad_t @ camera.rotation
        grad_centers[~valid] = 0.0
        grad_log_radii = np.where(valid, grad_log_radii, 0.0)

        opacities = scene.opacities
        gradients = {
            "centers": grad_centers,
            "log_radii": grad_log_radii,
            "colors": screen.grad_colors,
            "opacity_logits": screen.grad_opacities
            * opacities * (1.0 - opacities),
        }
        return GradientsAndTrace(
            loss=loss, gradients=gradients, trace=screen.trace, screen=screen
        )

    def loss_only(self, camera: Camera, target: np.ndarray) -> float:
        """Forward + loss without keeping gradients (for grad checks)."""
        return l1_loss(self.forward(camera).image, target)
