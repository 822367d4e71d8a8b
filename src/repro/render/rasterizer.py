"""Tile-based alpha-compositing rasterizer with atomic-trace capture.

Forward pass mirrors the 3DGS renderer: the screen is divided into 16x16
tiles, each tile gets the depth-sorted list of splats overlapping it, and
every pixel composites them front to back, terminating once transmittance
drops below 1e-4.

Backward pass mirrors the paper's Figure 5 kernel: each pixel walks its
tile's splat list and computes gradient contributions for the nine
screen-space parameters the real kernel accumulates *atomically*
(2D mean x/y, conic xx/xy/yy, color r/g/b, opacity).

:func:`warp_trace` builds that kernel's warp-level atomic trace -- one
batch per (tile, splat, warp) -- from the forward pass alone: a lane's
activity is fixed by the same dynamic conditions (in-extent, alpha
threshold, transmittance termination) that the forward pass decides and
that cause control divergence on a real GPU (paper Observations 1 and
2).  Only the per-lane gradient *values* need the backward pass, which
hands them to the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.warp import WARP_SIZE
from repro.trace.events import INACTIVE, KernelTrace

__all__ = [
    "TILE",
    "WARPS_PER_TILE",
    "Splats",
    "RasterOutput",
    "BackwardOutput",
    "rasterize",
    "rasterize_backward",
    "warp_trace",
]

#: Tile edge in pixels (3DGS uses 16x16 thread blocks).
TILE = 16
#: 16*16 pixels / 32 lanes.
WARPS_PER_TILE = TILE * TILE // WARP_SIZE

#: Minimum alpha for a splat to contribute to a pixel (1/255, as in 3DGS).
ALPHA_MIN = 1.0 / 255.0
#: Maximum alpha per splat (numerical guard, as in 3DGS).
ALPHA_MAX = 0.99
#: Transmittance below which a pixel stops compositing.
T_MIN = 1e-4

#: Parameters accumulated atomically per splat in the backward kernel.
N_SCREEN_PARAMS = 9

#: Cycles a warp spends on a splat all its lanes skip (early-out checks).
SKIP_CYCLES = 10.0


@dataclass
class Splats:
    """Screen-space splats ready for rasterization (any primitive type)."""

    mean2d: np.ndarray      # (N, 2)
    conic: np.ndarray       # (N, 3) inverse 2D covariance (xx, xy, yy)
    radius: np.ndarray      # (N,) extent in pixels; 0 disables the splat
    depth: np.ndarray       # (N,) for front-to-back ordering
    colors: np.ndarray      # (N, 3) RGB in [0, 1]
    opacities: np.ndarray   # (N,) in (0, 1)

    def __post_init__(self) -> None:
        n = len(self.mean2d)
        shapes = {
            "mean2d": (n, 2), "conic": (n, 3), "radius": (n,),
            "depth": (n,), "colors": (n, 3), "opacities": (n,),
        }
        for name, shape in shapes.items():
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.mean2d)


@dataclass
class _TileWork:
    """One tile's compositing intermediates, kept for the backward pass."""

    tile_index: int
    x0: int
    y0: int
    splat_ids: np.ndarray        # (G,) depth-sorted global splat indices
    alpha: np.ndarray            # (P, G) effective alpha after termination
    transmittance: np.ndarray    # (P, G) T before each splat
    dx: np.ndarray               # (P, G)
    dy: np.ndarray               # (P, G)
    final_t: np.ndarray          # (P,)


@dataclass
class RasterOutput:
    """Rendered image plus everything the backward pass and trace need."""

    image: np.ndarray            # (H, W, 3)
    splats: Splats
    width: int
    height: int
    background: np.ndarray      # (3,)
    tiles: list[_TileWork] = field(default_factory=list)

    @property
    def n_pixel_splat_pairs(self) -> int:
        """Total (pixel, splat) pairs composited -- forward-work metric."""
        return sum(t.alpha.size for t in self.tiles)


@dataclass
class BackwardOutput:
    """Screen-space gradients and (optionally) the atomic trace."""

    grad_mean2d: np.ndarray      # (N, 2)
    grad_conic: np.ndarray       # (N, 3)
    grad_colors: np.ndarray      # (N, 3)
    grad_opacities: np.ndarray   # (N,)
    trace: KernelTrace | None = None


def _tile_bins(splats: Splats, width: int, height: int) -> list[np.ndarray]:
    """Splat ids per tile (row-major tile order)."""
    tiles_x = width // TILE
    tiles_y = height // TILE
    bins: list[list[int]] = [[] for _ in range(tiles_x * tiles_y)]
    live = np.nonzero(splats.radius > 0)[0]
    mean = splats.mean2d
    radius = splats.radius
    for idx in live:
        x_lo = max(int((mean[idx, 0] - radius[idx]) // TILE), 0)
        x_hi = min(int((mean[idx, 0] + radius[idx]) // TILE), tiles_x - 1)
        y_lo = max(int((mean[idx, 1] - radius[idx]) // TILE), 0)
        y_hi = min(int((mean[idx, 1] + radius[idx]) // TILE), tiles_y - 1)
        if x_hi < 0 or y_hi < 0 or x_lo >= tiles_x or y_lo >= tiles_y:
            continue
        for ty in range(y_lo, y_hi + 1):
            row = ty * tiles_x
            for tx in range(x_lo, x_hi + 1):
                bins[row + tx].append(idx)
    return [np.asarray(b, dtype=np.int64) for b in bins]


def _exclusive_cumprod(values: np.ndarray) -> np.ndarray:
    """Exclusive product along the last axis, starting at 1."""
    result = np.ones_like(values)
    np.cumprod(values[..., :-1], axis=-1, out=result[..., 1:])
    return result


def rasterize(
    splats: Splats,
    width: int,
    height: int,
    background: np.ndarray | None = None,
) -> RasterOutput:
    """Composite *splats* into an image, front to back per tile.

    *width* and *height* must be multiples of the 16-pixel tile size.
    """
    if width % TILE or height % TILE:
        raise ValueError(f"image dimensions must be multiples of {TILE}")
    background = (
        np.zeros(3) if background is None
        else np.asarray(background, dtype=np.float64)
    )
    if background.shape != (3,):
        raise ValueError("background must be an RGB triple")

    image = np.tile(background, (height, width, 1))
    output = RasterOutput(
        image=image, splats=splats, width=width, height=height,
        background=background,
    )

    bins = _tile_bins(splats, width, height)
    tiles_x = width // TILE
    # Pixel coordinates inside a tile (pixel centers), row-major.
    local = np.arange(TILE * TILE)
    px_local = (local % TILE) + 0.5
    py_local = (local // TILE) + 0.5

    for tile_index, ids in enumerate(bins):
        if len(ids) == 0:
            continue
        order = np.argsort(splats.depth[ids], kind="stable")
        ids = ids[order]
        x0 = (tile_index % tiles_x) * TILE
        y0 = (tile_index // tiles_x) * TILE

        dx = (x0 + px_local)[:, None] - splats.mean2d[ids, 0][None, :]
        dy = (y0 + py_local)[:, None] - splats.mean2d[ids, 1][None, :]
        cxx = splats.conic[ids, 0][None, :]
        cxy = splats.conic[ids, 1][None, :]
        cyy = splats.conic[ids, 2][None, :]
        power = -0.5 * (cxx * dx * dx + cyy * dy * dy) - cxy * dx * dy

        alpha = np.minimum(
            splats.opacities[ids][None, :] * np.exp(power), ALPHA_MAX
        )
        alpha = np.where((power <= 0.0) & (alpha >= ALPHA_MIN), alpha, 0.0)

        # Front-to-back termination: once transmittance crosses T_MIN the
        # pixel is done; zeroing later alphas freezes the cumulative
        # product, which exactly reproduces the sequential semantics.
        t_raw = _exclusive_cumprod(1.0 - alpha)
        alpha = np.where(t_raw < T_MIN, 0.0, alpha)
        transmittance = _exclusive_cumprod(1.0 - alpha)
        final_t = transmittance[:, -1] * (1.0 - alpha[:, -1])

        weights = alpha * transmittance
        tile_rgb = weights @ splats.colors[ids] + final_t[:, None] * background
        image[y0:y0 + TILE, x0:x0 + TILE] = tile_rgb.reshape(TILE, TILE, 3)

        output.tiles.append(
            _TileWork(
                tile_index=tile_index, x0=x0, y0=y0, splat_ids=ids,
                alpha=alpha, transmittance=transmittance,
                dx=dx, dy=dy, final_t=final_t,
            )
        )
    return output


def warp_trace(
    output: RasterOutput,
    compute_cycles: float = 120.0,
    bfly_eligible: bool = True,
    trace_name: str = "",
    tile_values: "list[np.ndarray] | None" = None,
) -> KernelTrace:
    """Atomic trace of the backward kernel, from the forward pass's state.

    The trace has one slot per splat and ``N_SCREEN_PARAMS`` atomic adds
    per active lane, matching the structure of the real 3DGS backward
    kernel.  *tile_values*, one ``(P, G, N_SCREEN_PARAMS)`` array of
    per-pixel gradient contributions per tile of ``output.tiles``, are
    attached as the trace's values; they come from
    :func:`rasterize_backward`.
    """
    lane_slot_chunks: list[np.ndarray] = []
    warp_id_chunks: list[np.ndarray] = []
    compute_chunks: list[np.ndarray] = []
    for tile in output.tiles:
        n_splats = len(tile.splat_ids)
        # Batches ordered back-to-front per warp.  Pixel p (row-major in
        # the tile) maps to lane p % 32 of warp p // 32, exactly like a
        # 16x16 CUDA block.
        act = (tile.alpha > 0.0).T.reshape(
            n_splats, WARPS_PER_TILE, WARP_SIZE
        )
        act = act[::-1]  # the backward kernel walks splats back-to-front
        gid = tile.splat_ids[::-1, None, None]
        lanes = np.where(act, gid, INACTIVE)          # (G, W, 32)
        lane_slot_chunks.append(lanes.reshape(-1, WARP_SIZE))
        # Warps with no active lane fail the early-out checks quickly and
        # skip the gradient math entirely.
        any_active = act.any(axis=2)
        compute_chunks.append(
            np.where(any_active, compute_cycles, SKIP_CYCLES).reshape(-1)
        )
        warp_base = tile.tile_index * WARPS_PER_TILE
        warp_id_chunks.append(
            np.tile(np.arange(warp_base, warp_base + WARPS_PER_TILE),
                    n_splats)
        )

    values = None
    if lane_slot_chunks:
        lane_slots = np.concatenate(lane_slot_chunks)
        warp_ids = np.concatenate(warp_id_chunks)
        compute = np.concatenate(compute_chunks)
    else:
        lane_slots = np.zeros((0, WARP_SIZE), dtype=np.int64)
        warp_ids = np.zeros(0, dtype=np.int64)
        compute = np.zeros(0)
    if tile_values is not None:
        # (P, G, 9) -> (G, W, 32, 9), back-to-front like the lanes.
        value_chunks = [
            vals.transpose(1, 0, 2).reshape(
                -1, WARPS_PER_TILE, WARP_SIZE, N_SCREEN_PARAMS
            )[::-1].reshape(-1, WARP_SIZE, N_SCREEN_PARAMS)
            for vals in tile_values
        ]
        values = (
            np.concatenate(value_chunks) if value_chunks
            else np.zeros((0, WARP_SIZE, N_SCREEN_PARAMS))
        )
    return KernelTrace(
        lane_slots=lane_slots,
        num_params=N_SCREEN_PARAMS,
        n_slots=max(len(output.splats), 1),
        warp_id=warp_ids,
        compute_cycles=compute,
        values=values,
        bfly_eligible=bfly_eligible,
        name=trace_name,
    )


def rasterize_backward(
    output: RasterOutput,
    grad_image: np.ndarray,
    capture_trace: bool = False,
    with_values: bool = False,
    compute_cycles: float = 120.0,
    bfly_eligible: bool = True,
    trace_name: str = "",
) -> BackwardOutput:
    """Backward pass of :func:`rasterize` plus optional trace capture.

    With *capture_trace* the result carries :func:`warp_trace`'s trace,
    with this pass's per-lane gradients as its values when *with_values*
    is set.
    """
    splats = output.splats
    if grad_image.shape != output.image.shape:
        raise ValueError("grad_image must match the rendered image shape")

    n = len(splats)
    grad_mean2d = np.zeros((n, 2))
    grad_conic = np.zeros((n, 3))
    grad_colors = np.zeros((n, 3))
    grad_opacities = np.zeros(n)
    tile_values: list[np.ndarray] = []

    for tile in output.tiles:
        ids = tile.splat_ids
        n_splats = len(ids)
        pixel_grad = grad_image[
            tile.y0:tile.y0 + TILE, tile.x0:tile.x0 + TILE
        ].reshape(TILE * TILE, 3)

        alpha = tile.alpha
        trans = tile.transmittance
        weights = alpha * trans                       # (P, G)
        colors = splats.colors[ids]                    # (G, 3)
        active = alpha > 0.0

        # Suffix sums: S[p, j] = sum_{k > j} w[p,k] c[k] + final_T * bg.
        wc = weights[:, :, None] * colors[None, :, :]  # (P, G, 3)
        suffix = np.zeros_like(wc)
        if n_splats > 1:
            suffix[:, :-1] = np.cumsum(wc[:, ::-1], axis=1)[:, ::-1][:, 1:]
        suffix += (tile.final_t[:, None] * output.background[None, :])[:, None, :]

        one_minus_alpha = np.where(active, 1.0 - alpha, 1.0)
        dc_dalpha = colors[None, :, :] * trans[:, :, None] - suffix / one_minus_alpha[:, :, None]
        grad_alpha = np.einsum("pc,pgc->pg", pixel_grad, dc_dalpha)
        grad_alpha = np.where(active, grad_alpha, 0.0)

        # alpha = opacity * exp(power); the ALPHA_MAX clamp blocks gradients.
        clamped = alpha >= ALPHA_MAX
        grad_alpha_eff = np.where(clamped, 0.0, grad_alpha)
        opac = splats.opacities[ids][None, :]
        grad_opac_pg = grad_alpha_eff * np.where(active, alpha / opac, 0.0)
        grad_power = grad_alpha_eff * alpha

        cxx = splats.conic[ids, 0][None, :]
        cxy = splats.conic[ids, 1][None, :]
        cyy = splats.conic[ids, 2][None, :]
        dx, dy = tile.dx, tile.dy
        # d(power)/d(dx) with delta = pixel - mean; d(delta)/d(mean) = -1.
        grad_mean_x = grad_power * (cxx * dx + cxy * dy)
        grad_mean_y = grad_power * (cyy * dy + cxy * dx)
        grad_cxx = grad_power * (-0.5 * dx * dx)
        grad_cxy = grad_power * (-dx * dy)
        grad_cyy = grad_power * (-0.5 * dy * dy)
        grad_col_pg = weights[:, :, None] * pixel_grad[:, None, :]  # (P, G, 3)
        grad_col_pg = np.where(active[:, :, None], grad_col_pg, 0.0)

        # Scatter-add per splat (the reference semantics of the atomics).
        np.add.at(grad_mean2d[:, 0], ids, grad_mean_x.sum(axis=0))
        np.add.at(grad_mean2d[:, 1], ids, grad_mean_y.sum(axis=0))
        np.add.at(grad_conic[:, 0], ids, grad_cxx.sum(axis=0))
        np.add.at(grad_conic[:, 1], ids, grad_cxy.sum(axis=0))
        np.add.at(grad_conic[:, 2], ids, grad_cyy.sum(axis=0))
        np.add.at(grad_colors, ids, grad_col_pg.sum(axis=0))
        np.add.at(grad_opacities, ids, grad_opac_pg.sum(axis=0))

        if capture_trace and with_values:
            tile_values.append(np.stack(
                [
                    grad_mean_x, grad_mean_y, grad_cxx, grad_cxy, grad_cyy,
                    grad_col_pg[:, :, 0], grad_col_pg[:, :, 1],
                    grad_col_pg[:, :, 2], grad_opac_pg,
                ],
                axis=-1,
            ))  # (P, G, 9)

    trace = None
    if capture_trace:
        trace = warp_trace(
            output,
            compute_cycles=compute_cycles,
            bfly_eligible=bfly_eligible,
            trace_name=trace_name,
            tile_values=tile_values if with_values else None,
        )

    return BackwardOutput(
        grad_mean2d=grad_mean2d,
        grad_conic=grad_conic,
        grad_colors=grad_colors,
        grad_opacities=grad_opacities,
        trace=trace,
    )
