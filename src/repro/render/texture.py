"""NvDiffRec-style cubemap texture learning (§6 workload "NV").

NvDiffRec (Munkberg et al. 2022) learns material/lighting parameters by
differentiable rendering; the paper's evaluation trains a *specular cubemap
texture* from rendered mesh images.  We reproduce that task with a fixed
mirror sphere: each pixel's view ray reflects off the sphere and samples
the learnable cubemap with bilinear filtering.  The backward pass scatters
``dL/dC`` into the four bilinear texels of each hit pixel.  Which lanes
scatter, and to which texels, is fixed by the forward pass's sampling
state, so :meth:`CubemapRenderer.trace` reads the atomic trace off it;
only the trace's gradient values need the backward pass.

Atomic-traffic character (and why it matters for ARC): neighbouring pixels
reflect into *nearby but different* texels, so a warp's lanes split into
several same-address groups, and background/miss lanes are inactive.  This
is the low intra-warp-locality, many-inactive-threads regime where the
paper reports CCCL gains little (§7.2, Figure 26).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.warp import WARP_SIZE
from repro.render.camera import Camera
from repro.render.loss import l1_loss, l1_loss_grad
from repro.trace.events import INACTIVE, KernelTrace

__all__ = ["Cubemap", "CubemapRenderer", "procedural_cubemap"]

#: Image tile edge used for warp mapping (matches the rasterizer).
_TILE = 16
_WARPS_PER_TILE = _TILE * _TILE // WARP_SIZE
#: Channels scattered atomically per texel update.
N_TEXEL_PARAMS = 3
#: Bilinear filtering touches four texels per sample.
BILINEAR_CORNERS = 4


@dataclass
class Cubemap:
    """A learnable 6-face RGB cubemap."""

    texels: np.ndarray  # (6, R, R, 3)

    def __post_init__(self) -> None:
        texels = np.ascontiguousarray(self.texels, dtype=np.float64)
        if texels.ndim != 4 or texels.shape[0] != 6 or texels.shape[3] != 3:
            raise ValueError("texels must have shape (6, R, R, 3)")
        if texels.shape[1] != texels.shape[2]:
            raise ValueError("cubemap faces must be square")
        object.__setattr__(self, "texels", texels)

    @property
    def resolution(self) -> int:
        return self.texels.shape[1]

    @property
    def n_texels(self) -> int:
        return 6 * self.resolution**2

    def parameters(self) -> dict[str, np.ndarray]:
        """Named learnable arrays (views, not copies) for optimizers."""
        return {"texels": self.texels}

    @classmethod
    def constant(cls, resolution: int, value: float = 0.5) -> "Cubemap":
        return cls(np.full((6, resolution, resolution, 3), value))


def procedural_cubemap(resolution: int, seed: int = 0,
                       n_blobs: int = 24) -> Cubemap:
    """A colourful target environment map (Gaussian blobs per face)."""
    rng = np.random.default_rng(seed)
    texels = np.full((6, resolution, resolution, 3), 0.1)
    grid = (np.arange(resolution) + 0.5) / resolution
    v, u = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(n_blobs):
        face = rng.integers(0, 6)
        center = rng.uniform(0.1, 0.9, size=2)
        width = rng.uniform(0.05, 0.25)
        color = rng.uniform(0.2, 1.0, size=3)
        blob = np.exp(
            -((u - center[0]) ** 2 + (v - center[1]) ** 2) / (2 * width**2)
        )
        texels[face] += blob[:, :, None] * color
    return Cubemap(np.clip(texels, 0.0, 1.0))


def _direction_to_cube(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map unit directions to (face, u, v) with u, v in [-1, 1]."""
    x, y, z = directions[..., 0], directions[..., 1], directions[..., 2]
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.zeros(directions.shape[:-1], dtype=np.int64)
    u = np.zeros_like(x)
    v = np.zeros_like(x)

    # +x / -x
    m = (ax >= ay) & (ax >= az)
    pos = m & (x >= 0)
    neg = m & (x < 0)
    face[pos], face[neg] = 0, 1
    with np.errstate(divide="ignore", invalid="ignore"):
        u[pos], v[pos] = -z[pos] / ax[pos], -y[pos] / ax[pos]
        u[neg], v[neg] = z[neg] / ax[neg], -y[neg] / ax[neg]
        # +y / -y
        m = (ay > ax) & (ay >= az)
        pos = m & (y >= 0)
        neg = m & (y < 0)
        face[pos], face[neg] = 2, 3
        u[pos], v[pos] = x[pos] / ay[pos], z[pos] / ay[pos]
        u[neg], v[neg] = x[neg] / ay[neg], -z[neg] / ay[neg]
        # +z / -z
        m = (az > ax) & (az > ay)
        pos = m & (z >= 0)
        neg = m & (z < 0)
        face[pos], face[neg] = 4, 5
        u[pos], v[pos] = x[pos] / az[pos], -y[pos] / az[pos]
        u[neg], v[neg] = -x[neg] / az[neg], -y[neg] / az[neg]
    return face, u, v


@dataclass
class _SampleContext:
    """Bilinear sampling state kept for backward and trace capture."""

    hit: np.ndarray            # (H, W) bool
    texel_flat: np.ndarray     # (H, W, 4) flat texel index per corner
    weights: np.ndarray        # (H, W, 4) bilinear weights


class CubemapRenderer:
    """Mirror-sphere renderer over a learnable cubemap."""

    def __init__(self, cubemap: Cubemap, sphere_radius: float = 1.0,
                 background: np.ndarray | None = None,
                 compute_cycles: float = 60.0):
        if sphere_radius <= 0:
            raise ValueError("sphere_radius must be positive")
        self.cubemap = cubemap
        self.sphere_radius = sphere_radius
        self.background = (
            np.zeros(3) if background is None
            else np.asarray(background, dtype=np.float64)
        )
        self.compute_cycles = compute_cycles
        self._last_context: _SampleContext | None = None

    # ------------------------------------------------------------------ #

    def _reflection_dirs(self, camera: Camera) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel reflection directions and the hit mask."""
        h, w = camera.height, camera.width
        ys, xs = np.meshgrid(np.arange(h) + 0.5, np.arange(w) + 0.5,
                             indexing="ij")
        dirs_cam = np.stack(
            [
                (xs - camera.cx) / camera.fx,
                (ys - camera.cy) / camera.fy,
                np.ones_like(xs),
            ],
            axis=-1,
        )
        dirs_cam /= np.linalg.norm(dirs_cam, axis=-1, keepdims=True)
        dirs = dirs_cam @ camera.rotation  # world-space ray directions

        origin = camera.position
        # |o + t d|^2 = rho^2 -> t^2 + 2 (o.d) t + |o|^2 - rho^2 = 0.
        b = dirs @ origin
        c = origin @ origin - self.sphere_radius**2
        disc = b**2 - c
        hit = disc > 0.0
        t_hit = -b - np.sqrt(np.where(hit, disc, 0.0))
        hit &= t_hit > 0.0

        points = origin + t_hit[..., None] * dirs
        normals = points / self.sphere_radius
        reflections = dirs - 2.0 * np.sum(dirs * normals, axis=-1,
                                          keepdims=True) * normals
        return reflections, hit

    def _sample_context(self, camera: Camera) -> _SampleContext:
        reflections, hit = self._reflection_dirs(camera)
        face, u, v = _direction_to_cube(
            np.where(hit[..., None], reflections, np.array([0.0, 0.0, 1.0]))
        )
        res = self.cubemap.resolution
        uf = np.clip((u * 0.5 + 0.5) * res - 0.5, 0.0, res - 1.0)
        vf = np.clip((v * 0.5 + 0.5) * res - 0.5, 0.0, res - 1.0)
        u0 = np.floor(uf).astype(np.int64)
        v0 = np.floor(vf).astype(np.int64)
        u1 = np.minimum(u0 + 1, res - 1)
        v1 = np.minimum(v0 + 1, res - 1)
        du = uf - u0
        dv = vf - v0

        weights = np.stack(
            [
                (1 - du) * (1 - dv),
                du * (1 - dv),
                (1 - du) * dv,
                du * dv,
            ],
            axis=-1,
        )
        base = face * res * res
        texel_flat = np.stack(
            [
                base + v0 * res + u0,
                base + v0 * res + u1,
                base + v1 * res + u0,
                base + v1 * res + u1,
            ],
            axis=-1,
        )
        return _SampleContext(hit=hit, texel_flat=texel_flat, weights=weights)

    # ------------------------------------------------------------------ #

    def forward(self, camera: Camera) -> np.ndarray:
        """Render the mirror sphere under the current cubemap."""
        if camera.width % _TILE or camera.height % _TILE:
            raise ValueError(f"image dimensions must be multiples of {_TILE}")
        ctx = self._sample_context(camera)
        flat = self.cubemap.texels.reshape(-1, 3)
        sampled = np.einsum(
            "hwk,hwkc->hwc", ctx.weights, flat[ctx.texel_flat]
        )
        image = np.where(ctx.hit[..., None], sampled, self.background)
        self._last_context = ctx
        return image

    render = forward

    def backward(
        self,
        camera: Camera,
        image: np.ndarray,
        target: np.ndarray,
        capture_trace: bool = False,
        with_values: bool = False,
        trace_name: str = "nvdiff",
    ):
        """L1 loss and texel gradients; optionally :meth:`trace`'s trace,
        with the per-corner gradients as values when *with_values* is set."""
        if self._last_context is None:
            raise RuntimeError("backward called before forward")
        ctx = self._last_context
        loss = l1_loss(image, target)
        grad_image = l1_loss_grad(image, target)
        grad_image = np.where(ctx.hit[..., None], grad_image, 0.0)

        grad_flat = np.zeros((self.cubemap.n_texels, 3))
        contrib = ctx.weights[..., None] * grad_image[..., None, :]
        np.add.at(
            grad_flat,
            ctx.texel_flat.reshape(-1),
            contrib.reshape(-1, 3),
        )

        trace = None
        if capture_trace:
            trace = self.trace(trace_name, contrib if with_values else None)
        gradients = {
            "texels": grad_flat.reshape(self.cubemap.texels.shape)
        }
        return loss, gradients, trace

    def loss_only(self, camera: Camera, target: np.ndarray) -> float:
        """Forward + loss without keeping gradients (for grad checks)."""
        return l1_loss(self.forward(camera), target)

    # ------------------------------------------------------------------ #

    def trace(self, trace_name: str = "nvdiff",
              contrib: np.ndarray | None = None) -> KernelTrace:
        """Atomic trace of the last forward pass's gradient kernel.

        Per tile, one batch per warp per bilinear corner.  *contrib*, the
        backward pass's ``(H, W, 4, 3)`` per-corner gradients, becomes
        the trace's values.
        """
        if self._last_context is None:
            raise RuntimeError("trace called before forward")
        ctx = self._last_context
        h, w = ctx.hit.shape
        tiles_y, tiles_x = h // _TILE, w // _TILE

        # (H, W) -> (tiles, 256) pixel-major inside each tile.
        def tile_pixels(array):
            reshaped = array.reshape(
                tiles_y, _TILE, tiles_x, _TILE, *array.shape[2:]
            )
            return reshaped.transpose(
                0, 2, 1, 3, *range(4, reshaped.ndim)
            ).reshape(tiles_y * tiles_x, _TILE * _TILE, *array.shape[2:])

        hit_tiles = tile_pixels(ctx.hit)                  # (T, 256)
        texel_tiles = tile_pixels(ctx.texel_flat)         # (T, 256, 4)
        n_tiles = tiles_y * tiles_x

        lanes = np.where(
            hit_tiles[:, :, None], texel_tiles, INACTIVE
        )  # (T, 256, 4)
        # (T, warps, 32, corners) -> batches ordered corner-major per warp.
        lanes = lanes.reshape(n_tiles, _WARPS_PER_TILE, WARP_SIZE,
                              BILINEAR_CORNERS)
        lanes = lanes.transpose(0, 3, 1, 2)  # (T, 4, warps, 32)
        lane_slots = lanes.reshape(-1, WARP_SIZE)

        warp_ids = np.tile(
            np.repeat(np.arange(_WARPS_PER_TILE), 1),
            n_tiles * BILINEAR_CORNERS,
        ).reshape(n_tiles, BILINEAR_CORNERS, _WARPS_PER_TILE)
        warp_ids += (
            np.arange(n_tiles)[:, None, None] * _WARPS_PER_TILE
        )
        warp_ids = warp_ids.reshape(-1)

        values = None
        if contrib is not None:
            contrib_tiles = tile_pixels(contrib)  # (T, 256, 4, 3)
            values = contrib_tiles.reshape(
                n_tiles, _WARPS_PER_TILE, WARP_SIZE, BILINEAR_CORNERS, 3
            ).transpose(0, 3, 1, 2, 4).reshape(-1, WARP_SIZE, 3)

        # Warps whose rays all miss the sphere early-out cheaply.
        any_active = (lane_slots != INACTIVE).any(axis=1)
        compute = np.where(any_active, self.compute_cycles, 10.0)

        return KernelTrace(
            lane_slots=lane_slots,
            num_params=N_TEXEL_PARAMS,
            n_slots=self.cubemap.n_texels,
            warp_id=warp_ids,
            compute_cycles=compute,
            values=values,
            bfly_eligible=True,
            name=trace_name,
        )
