"""Image quality metrics for unit-range grayscale images."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .gradient_stats import filter_valid, gaussian_1d

PSNR_CAP_DB = 99.0


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1/MSE) for images in [0,1]; capped at 99 dB on a perfect match."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def ssim(a: np.ndarray, b: np.ndarray, window: int = 11, sigma: float = 1.5,
         k1: float = 0.01, k2: float = 0.03) -> float:
    """Mean local SSIM with a Gaussian window; dynamic range 1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 2 or min(a.shape) < window:
        raise ShapeError(f"ssim needs a 2-D image at least {window}x{window}, got {a.shape}")
    g = gaussian_1d(window, sigma)
    c1 = k1 * k1
    c2 = k2 * k2
    mu_a = filter_valid(a, g)
    mu_b = filter_valid(b, g)
    var_a = filter_valid(a * a, g) - mu_a * mu_a
    var_b = filter_valid(b * b, g) - mu_b * mu_b
    cov = filter_valid(a * b, g) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))
