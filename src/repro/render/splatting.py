"""End-to-end differentiable 3D Gaussian splatting (forward + backward).

``GaussianRenderer`` composes the projection (:mod:`repro.render.projection`)
and the tile rasterizer (:mod:`repro.render.rasterizer`) into the full 3DGS
pipeline: render an image, compare against a target, and back-propagate the
loss to every scene parameter.  :meth:`GaussianRenderer.trace` reads the
warp-level atomic trace of the gradient-accumulation stage -- the kernel
the ARC paper identifies as the training bottleneck -- off the forward
pass; the backward pass captures the same trace with gradient values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.gaussians import GaussianScene
from repro.render.loss import l1_loss, l1_loss_grad
from repro.render.projection import (
    ProjectedGaussians,
    project_backward,
    project_gaussians,
)
from repro.render.rasterizer import (
    BackwardOutput,
    RasterOutput,
    Splats,
    rasterize,
    rasterize_backward,
    warp_trace,
)
from repro.trace.events import KernelTrace

__all__ = ["GaussianRenderer", "RenderContext", "GradientsAndTrace"]


@dataclass
class RenderContext:
    """Forward intermediates needed by the backward pass."""

    image: np.ndarray
    projected: ProjectedGaussians
    raster: RasterOutput
    #: Pre-clamp SH evaluation, kept when the scene has SH color.
    sh_pre_clamp: np.ndarray | None = None

    @property
    def forward_pairs(self) -> int:
        """(pixel, splat) compositing pairs -- forward compute work."""
        return self.raster.n_pixel_splat_pairs


@dataclass
class GradientsAndTrace:
    """Backward result: loss value, parameter gradients, optional trace."""

    loss: float
    gradients: dict[str, np.ndarray]
    trace: KernelTrace | None
    screen: BackwardOutput


class GaussianRenderer:
    """Differentiable renderer for a :class:`GaussianScene`."""

    def __init__(self, scene: GaussianScene,
                 background: np.ndarray | None = None,
                 compute_cycles: float = 120.0):
        self.scene = scene
        self.background = (
            np.zeros(3) if background is None
            else np.asarray(background, dtype=np.float64)
        )
        self.compute_cycles = compute_cycles

    def forward(self, camera: Camera) -> RenderContext:
        """Render the scene from *camera*; keep backward intermediates."""
        from repro.render.sh import SHGaussianScene, eval_sh_colors

        projected = project_gaussians(self.scene, camera)
        sh_pre_clamp = None
        if isinstance(self.scene, SHGaussianScene):
            colors, sh_pre_clamp = eval_sh_colors(
                self.scene.sh_coeffs, self.scene.positions, camera.position
            )
        else:
            colors = self.scene.colors
        splats = Splats(
            mean2d=projected.mean2d,
            conic=projected.conic,
            radius=projected.radius,
            depth=projected.depth,
            colors=np.clip(colors, 0.0, 1.0),
            opacities=self.scene.opacities,
        )
        raster = rasterize(
            splats, camera.width, camera.height, self.background
        )
        return RenderContext(
            image=raster.image, projected=projected, raster=raster,
            sh_pre_clamp=sh_pre_clamp,
        )

    def render(self, camera: Camera) -> np.ndarray:
        """Convenience: just the (H, W, 3) image."""
        return self.forward(camera).image

    def trace(self, context: RenderContext,
              trace_name: str = "3dgs") -> KernelTrace:
        """Atomic trace of the gradient kernel, from forward state alone."""
        return warp_trace(
            context.raster,
            compute_cycles=self.compute_cycles,
            bfly_eligible=True,
            trace_name=trace_name,
        )

    def backward(
        self,
        camera: Camera,
        context: RenderContext,
        target: np.ndarray,
        capture_trace: bool = False,
        with_values: bool = False,
        trace_name: str = "3dgs",
    ) -> GradientsAndTrace:
        """L1 loss against *target* and gradients for all parameters.

        *capture_trace* adds :meth:`trace`'s trace, with the per-lane
        gradients as values when *with_values* is set.
        """
        loss = l1_loss(context.image, target)
        grad_image = l1_loss_grad(context.image, target)

        screen = rasterize_backward(
            context.raster,
            grad_image,
            capture_trace=capture_trace,
            with_values=with_values,
            compute_cycles=self.compute_cycles,
            bfly_eligible=True,
            trace_name=trace_name,
        )
        geometry = project_backward(
            self.scene,
            camera,
            context.projected,
            screen.grad_mean2d,
            screen.grad_conic,
        )

        opacities = self.scene.opacities
        gradients = {
            "positions": geometry["positions"],
            "log_scales": geometry["log_scales"],
            "quaternions": geometry["quaternions"],
            "opacity_logits": screen.grad_opacities
            * opacities * (1.0 - opacities),
        }
        if context.sh_pre_clamp is not None:
            from repro.render.sh import eval_sh_backward

            # The rasterizer clips colors to [0, 1]; the upper clip gates.
            gated = np.where(
                context.sh_pre_clamp <= 1.0, screen.grad_colors, 0.0
            )
            grad_sh, grad_pos_sh = eval_sh_backward(
                self.scene.sh_coeffs,
                self.scene.positions,
                camera.position,
                context.sh_pre_clamp,
                gated,
            )
            gradients["sh_coeffs"] = grad_sh
            gradients["positions"] = gradients["positions"] + grad_pos_sh
        else:
            gradients["colors"] = screen.grad_colors
        return GradientsAndTrace(
            loss=loss, gradients=gradients, trace=screen.trace, screen=screen
        )

    def loss_only(self, camera: Camera, target: np.ndarray) -> float:
        """Forward + loss without keeping gradients (for grad checks)."""
        return l1_loss(self.forward(camera).image, target)
