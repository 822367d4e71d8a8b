"""Workload abstraction: a trainable scene plus its atomic-trace capture.

A :class:`Workload` bundles everything one row of the paper's Table 2
needs: a ground-truth scene whose target images are rendered on first
use, a trainable model, a training loop, and capture of the
gradient-computation kernel's warp atomic trace for the simulator.

The trace comes from the forward pass: which lanes issue atomics, and to
which primitives, is decided there (in-extent, alpha threshold,
transmittance termination).  Only the trace's gradient *values* need a
target, a loss and a backward pass.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.render.camera import Camera, orbit_cameras
from repro.render.loss import psnr
from repro.render.optim import Adam
from repro.trace.events import KernelTrace

__all__ = ["ForwardOutcome", "IterationOutcome", "TrainingReport", "Workload"]


@dataclass
class ForwardOutcome:
    """Result of one forward pass on one view."""

    trace: KernelTrace | None
    forward_pairs: int
    n_pixels: int


@dataclass
class IterationOutcome:
    """Result of one training iteration on one view."""

    loss: float
    gradients: dict[str, np.ndarray]
    trace: KernelTrace | None


@dataclass
class TrainingReport:
    """Loss/quality trajectory of a training run."""

    workload: str
    losses: list[float] = field(default_factory=list)
    psnr_start: float = 0.0
    psnr_end: float = 0.0
    wall_seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no iterations recorded")
        return self.losses[-1]


class Workload(ABC):
    """One evaluated workload (application x dataset) from Table 2."""

    #: Set by subclasses: can the SW-B kernel transformation be applied?
    bfly_eligible: bool = True
    #: Kernel launches concatenated into one capture (throughput view).
    trace_views: int = 1
    #: Override for the loss kernel's per-channel cycles (None -> use the
    #: GPU cost model's default, which includes 3DGS's D-SSIM term).
    loss_channel_cycles: "float | None" = None

    def __init__(
        self,
        key: str,
        app: str,
        dataset: str,
        description: str,
        n_views: int = 12,
        width: int = 96,
        height: int = 96,
        camera_radius: float = 3.2,
        seed: int = 0,
        trace_views: int | None = None,
    ):
        self.key = key
        self.app = app
        self.dataset = dataset
        self.description = description
        self.n_views = n_views
        self.width = width
        self.height = height
        self.camera_radius = camera_radius
        self.seed = seed
        if trace_views is not None:
            if trace_views <= 0:
                raise ValueError("trace_views must be positive")
            self.trace_views = trace_views
        self._built = False
        self.cameras: list[Camera] = []
        self._targets: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def ensure_built(self) -> None:
        """Build scene, cameras and renderers once, lazily."""
        if self._built:
            return
        self.cameras = orbit_cameras(
            self.n_views,
            radius=self.camera_radius,
            width=self.width,
            height=self.height,
        )
        self._build()
        self._built = True

    @abstractmethod
    def _build(self) -> None:
        """Set ``self.reference``, the ground-truth scene's renderer, and
        ``self.renderer``, the trainable model's (separate instances)."""

    def target(self, view_index: int) -> np.ndarray:
        """Ground-truth image of one view, rendered on first use."""
        self.ensure_built()
        image = self._targets.get(view_index)
        if image is None:
            image = self.reference.render(self.cameras[view_index])
            self._targets[view_index] = image
        return image

    @abstractmethod
    def parameters(self) -> dict[str, np.ndarray]:
        """The trainable parameter arrays (updated in place)."""

    @abstractmethod
    def forward(
        self, view_index: int, capture_trace: bool = False
    ) -> ForwardOutcome:
        """Forward pass on one view; the trace reads only its state."""

    @abstractmethod
    def iteration(
        self,
        view_index: int,
        capture_trace: bool = False,
        with_values: bool = False,
    ) -> IterationOutcome:
        """Forward + loss + backward on one view."""

    def render_view(self, view_index: int) -> np.ndarray:
        """Render the current model from one training view."""
        self.ensure_built()
        return self.renderer.render(self.cameras[view_index])

    def default_optimizer(self) -> Adam:
        """Optimizer used by :meth:`train` when none is supplied."""
        return Adam(lr=0.01)

    # ------------------------------------------------------------------ #
    # Training and capture
    # ------------------------------------------------------------------ #

    def train(
        self,
        iterations: int,
        optimizer=None,
        eval_view: int = 0,
    ) -> TrainingReport:
        """Optimize the model for *iterations* single-view steps."""
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.ensure_built()
        optimizer = optimizer or self.default_optimizer()
        report = TrainingReport(workload=self.key)
        report.psnr_start = self.quality(eval_view)
        started = time.perf_counter()
        for step in range(iterations):
            view = step % self.n_views
            outcome = self.iteration(view)
            optimizer.step(self.parameters(), outcome.gradients)
            report.losses.append(outcome.loss)
        report.wall_seconds = time.perf_counter() - started
        report.psnr_end = self.quality(eval_view)
        return report

    def quality(self, view_index: int = 0) -> float:
        """PSNR of the current model on one training view."""
        return psnr(self.render_view(view_index), self.target(view_index))

    def capture_trace(
        self,
        with_values: bool = False,
        start_view: int = 0,
        warmup_steps: int = 0,
    ) -> KernelTrace:
        """Atomic trace of the gradient kernel over ``trace_views`` views.

        Consecutive kernel launches are concatenated (same hardware warps
        run back-to-back launches on the same sub-cores), which is the
        throughput picture the paper's per-kernel measurements average
        over.  Optional warmup optimizer steps move the model off its
        exact initialization first.

        Each view's trace comes from its forward pass; only
        *with_values*, whose values are gradients, runs the loss and the
        backward pass (on lazily rendered targets) for the traced views.
        """
        self.ensure_built()
        if warmup_steps:
            optimizer = self.default_optimizer()
            for step in range(warmup_steps):
                outcome = self.iteration(step % self.n_views)
                optimizer.step(self.parameters(), outcome.gradients)

        traces = []
        for offset in range(self.trace_views):
            view = (start_view + offset) % self.n_views
            if with_values:
                outcome = self.iteration(
                    view, capture_trace=True, with_values=True
                )
            else:
                outcome = self.forward(view, capture_trace=True)
            if outcome.trace is None:
                raise RuntimeError(
                    f"workload {self.key} produced no trace for view {view}"
                )
            traces.append(outcome.trace)
        return _concat_traces(traces, name=self.key)

    def forward_stats(self, view_index: int = 0) -> tuple[int, int]:
        """(compositing pairs, pixel count) of one forward pass."""
        outcome = self.forward(view_index)
        return outcome.forward_pairs, outcome.n_pixels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.key}: {self.description}>"


def _concat_traces(traces: list[KernelTrace], name: str) -> KernelTrace:
    """Concatenate back-to-back kernel launches into one trace.

    Warp ids are offset per launch: the hardware block scheduler does not
    pin a tile to the same SM across launches, so consecutive launches
    spread their blocks independently.
    """
    if not traces:
        raise ValueError("no traces to concatenate")
    first = traces[0]
    if len(traces) == 1:
        return KernelTrace(
            lane_slots=first.lane_slots,
            num_params=first.num_params,
            n_slots=first.n_slots,
            warp_id=first.warp_id,
            compute_cycles=first.compute_cycles,
            values=first.values,
            bfly_eligible=first.bfly_eligible,
            name=name,
        )
    if any(t.num_params != first.num_params for t in traces):
        raise ValueError("traces disagree on num_params")
    has_values = all(t.values is not None for t in traces)
    warp_chunks = []
    offset = 0
    for t in traces:
        warp_chunks.append(t.warp_id + offset)
        offset += int(t.warp_id.max(initial=-1)) + 1
    return KernelTrace(
        lane_slots=np.concatenate([t.lane_slots for t in traces]),
        num_params=first.num_params,
        n_slots=max(t.n_slots for t in traces),
        warp_id=np.concatenate(warp_chunks),
        compute_cycles=np.concatenate(
            [t.compute_cycles_per_batch for t in traces]
        ),
        values=(
            np.concatenate([t.values for t in traces]) if has_values else None
        ),
        bfly_eligible=all(t.bfly_eligible for t in traces),
        name=name,
    )
