"""Image losses and quality metrics for differentiable-rendering training.

Training uses an L1 photometric loss (the dominant term in 3DGS); PSNR and
a windowed SSIM are provided as the quality metrics the paper's artifact
reports (PSNR up, L1 down).
"""

from __future__ import annotations

import numpy as np

__all__ = ["l1_loss", "l1_loss_grad", "mse", "psnr", "ssim"]


def _check_pair(rendered: np.ndarray, target: np.ndarray) -> None:
    if rendered.shape != target.shape:
        raise ValueError(
            f"image shapes differ: {rendered.shape} vs {target.shape}"
        )
    if rendered.size == 0:
        raise ValueError("images must be non-empty")


def l1_loss(rendered: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error between two images."""
    _check_pair(rendered, target)
    return float(np.mean(np.abs(rendered - target)))


def l1_loss_grad(rendered: np.ndarray, target: np.ndarray) -> np.ndarray:
    """dL/d(rendered) of :func:`l1_loss` (sign / count)."""
    _check_pair(rendered, target)
    return np.sign(rendered - target) / rendered.size


def mse(rendered: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error."""
    _check_pair(rendered, target)
    return float(np.mean((rendered - target) ** 2))


def psnr(rendered: np.ndarray, target: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (higher is better)."""
    error = mse(rendered, target)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / error))


def ssim(
    rendered: np.ndarray, target: np.ndarray, window: int = 11,
    peak: float = 1.0,
) -> float:
    """Mean structural similarity with a uniform window (metric only).

    A simplified (box-window) SSIM: enough to track reconstruction quality,
    not used as a training loss.
    """
    from scipy.ndimage import uniform_filter

    _check_pair(rendered, target)
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    size = (window, window) + (1,) * (rendered.ndim - 2)

    mu_x = uniform_filter(rendered, size=size)
    mu_y = uniform_filter(target, size=size)
    sigma_x = uniform_filter(rendered**2, size=size) - mu_x**2
    sigma_y = uniform_filter(target**2, size=size) - mu_y**2
    sigma_xy = uniform_filter(rendered * target, size=size) - mu_x * mu_y

    numerator = (2 * mu_x * mu_y + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x**2 + mu_y**2 + c1) * (sigma_x + sigma_y + c2)
    return float(np.mean(numerator / denominator))
