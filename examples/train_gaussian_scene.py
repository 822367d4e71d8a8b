"""Train a 3D Gaussian scene end to end and time every pipeline phase.

Reproduces the paper's Figure 2/3 training loop on the 3DGS substrate:
render, L1 loss, backward, Adam step -- and reports reconstruction quality
(PSNR) before and after, plus the simulated per-phase time breakdown
(Figure 4) and the end-to-end speedup ARC-SW delivers (Figure 22's
"end-to-end" bars).

Run:  python examples/train_gaussian_scene.py
"""

# Demo scenes are small (a 96x96 image is only 36 tile blocks), which
# underfills the RTX 4090's 512 sub-cores; the RTX 3060 matches the
# launch size, as the paper's full-resolution scenes match the 4090.
from repro import RTX3060_SIM, simulate_kernel
from repro.core import ArcSWButterfly, BaselineAtomic
from repro.profiling import training_breakdown
from repro.workloads import GaussianWorkload


def main() -> None:
    workload = GaussianWorkload(
        key="train-demo",
        dataset="demo",
        description="trainable Gaussian scene",
        n_gaussians=400,
        base_scale=0.15,
        extent=1.2,
        width=96,
        height=96,
        seed=3,
    )

    print("Training 400 Gaussians from 12 views (L1 loss, Adam)...")
    report = workload.train(iterations=60)
    print(f"  loss: {report.losses[0]:.4f} -> {report.final_loss:.4f}")
    print(f"  PSNR: {report.psnr_start:.2f} dB -> {report.psnr_end:.2f} dB")
    print(f"  wall time: {report.wall_seconds:.1f} s "
          f"({report.iterations} iterations)")
    print()

    # Per-phase timing of one training iteration on the simulated GPU.
    trace = workload.capture_trace()
    forward_pairs, n_pixels = workload.forward_stats()
    breakdown = training_breakdown(
        trace,
        forward_pairs=forward_pairs,
        n_pixels=n_pixels,
        config=RTX3060_SIM,
        launches=workload.trace_views,
    )
    fractions = breakdown.fractions
    print(f"Training-time breakdown on {RTX3060_SIM.name} (paper Fig. 4):")
    print(f"  forward  {fractions['forward']:6.1%}")
    print(f"  loss     {fractions['loss']:6.1%}")
    print(f"  gradient {fractions['grad']:6.1%}  <- the atomic bottleneck")
    print()

    baseline = simulate_kernel(trace, RTX3060_SIM, BaselineAtomic())
    arc = simulate_kernel(trace, RTX3060_SIM, ArcSWButterfly(8))
    grad_speedup = arc.speedup_over(baseline)
    e2e = breakdown.end_to_end_speedup(grad_speedup)
    print(f"ARC-SW (butterfly, threshold 8):")
    print(f"  gradient-kernel speedup: {grad_speedup:.2f}x")
    print(f"  end-to-end speedup:      {e2e:.2f}x (paper Fig. 22)")


if __name__ == "__main__":
    main()
