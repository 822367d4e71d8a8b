"""repro: reproduction of "ARC: Warp-level Adaptive Atomic Reduction in
GPUs to Accelerate Differentiable Rendering" (ASPLOS 2025).

The package has four layers:

* :mod:`repro.gpu` -- a cycle-approximate GPU simulator (SM sub-cores, LSU
  queues, interconnect, L2 ROP atomic units) with the paper's Table 1
  configurations;
* :mod:`repro.core` -- ARC itself (ARC-HW and both ARC-SW variants) plus
  every comparison point of the evaluation (atomicAdd baseline, CCCL
  warp reduction, LAB/LAB-ideal, PHI);
* :mod:`repro.render` / :mod:`repro.workloads` -- real differentiable
  renderers (3D Gaussian splatting, Pulsar spheres, NvDiffRec cubemaps)
  whose forward passes fix the warp-level atomic traces of their gradient
  kernels, which the simulator replays, organized into the paper's
  Table 2 workload registry;
* :mod:`repro.profiling` / :mod:`repro.experiments` -- the measurement
  machinery behind every figure and table of the evaluation.

Quickstart::

    from repro import RTX4090_SIM, simulate_kernel
    from repro.core import ArcSWButterfly, BaselineAtomic
    from repro.workloads import load_workload

    trace = load_workload("3D-LE").capture_trace()
    base = simulate_kernel(trace, RTX4090_SIM, BaselineAtomic())
    arc = simulate_kernel(trace, RTX4090_SIM, ArcSWButterfly(16))
    print(f"gradient-kernel speedup: {arc.speedup_over(base):.2f}x")
"""

from repro.core import (
    LAB,
    PHI,
    ArcHW,
    ArcSWButterfly,
    ArcSWSerialized,
    AtomicStrategy,
    BaselineAtomic,
    CCCLReduce,
    LABIdeal,
)
from repro.gpu import (
    RTX3060_SIM,
    RTX4090_SIM,
    SIMULATED_GPUS,
    GPUConfig,
    SimResult,
    simulate_kernel,
)
from repro.trace import KernelTrace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GPUConfig",
    "RTX4090_SIM",
    "RTX3060_SIM",
    "SIMULATED_GPUS",
    "SimResult",
    "simulate_kernel",
    "KernelTrace",
    "AtomicStrategy",
    "BaselineAtomic",
    "ArcSWButterfly",
    "ArcSWSerialized",
    "ArcHW",
    "CCCLReduce",
    "LAB",
    "LABIdeal",
    "PHI",
]
