"""Synthetic structured grayscale images drawn from the benchmark seed.

The layout follows the test suite's toy images: two gratings, rings,
blurred noise and step edges. The seed moves phases, frequencies, centres
and edges within narrow ranges and redraws the noise field. The ranges are
narrow on purpose: class occupancy, and with it the CSConv cost and the
loss, must stay nearly the same from seed to seed, or the spread between
runs would measure the seed instead of the code. All images lie in
[0.05, 0.95] and depend only on (size, seed).
"""

from __future__ import annotations

import numpy as np


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    half = int(3 * sigma)
    x = np.arange(-half, half + 1)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    g /= g.sum()
    p = np.pad(img, half, mode="edge")
    rows = sum(g[j] * p[:, j : j + img.shape[1]] for j in range(g.size))
    return sum(g[i] * rows[i : i + img.shape[0], :] for i in range(g.size))


def _unit_range(img: np.ndarray) -> np.ndarray:
    lo, hi = img.min(), img.max()
    return 0.05 + 0.9 * (img - lo) / (hi - lo)


def _grating(size, rng, angle, freq):
    yy, xx = np.mgrid[0:size, 0:size] / size
    angle += rng.uniform(-0.1, 0.1)
    freq *= rng.uniform(0.95, 1.05) * size / 128
    u = xx * np.cos(angle) + yy * np.sin(angle)
    return 0.5 + 0.4 * np.sin(2 * np.pi * freq * u + rng.uniform(0.0, 2 * np.pi))


def _grating_a(size, rng):
    return _grating(size, rng, 0.3, 9.0)


def _grating_b(size, rng):
    return _grating(size, rng, 1.2, 14.0)


def _rings(size, rng):
    yy, xx = np.mgrid[0:size, 0:size] / size
    cy, cx = rng.uniform(0.45, 0.6, size=2)
    freq = rng.uniform(10.5, 11.5) * size / 128
    return 0.5 + 0.4 * np.cos(2 * np.pi * freq * np.hypot(xx - cx, yy - cy))


def _blurred_noise(size, rng):
    return _blur(rng.random((size, size)), 6.0 * size / 128)


def _steps(size, rng):
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = 0.25 + 0.4 * xx
    top, left = rng.uniform(0.15, 0.25), rng.uniform(0.25, 0.35)
    img[(yy > top) & (yy < top + 0.35) & (xx > left) & (xx < left + 0.5)] = 0.85
    img[(yy + xx > rng.uniform(1.25, 1.35))] = 0.15
    return _blur(img, 1.0)


KINDS = (_grating_a, _grating_b, _rings, _blurred_noise, _steps)


def make_images(size: int, seed: int) -> list[np.ndarray]:
    """Five structured images: two gratings, rings, blurred noise, steps."""
    rng = np.random.default_rng([seed, size])
    return [_unit_range(kind(size, rng)) for kind in KINDS]


def make_mosaic(size: int, seed: int) -> np.ndarray:
    """One image tiling a grating, rings, blurred noise and steps in quadrants.

    Every quadrant holds a different structure kind, so a trained classifier
    spreads the image over nearly all hash classes.
    """
    half = size // 2
    rng = np.random.default_rng([seed, size, 1])
    out = np.empty((size, size))
    quads = ((0, 0), (0, half), (half, 0), (half, half))
    for (top, left), kind in zip(quads, (_grating_a, _rings, _blurred_noise, _steps)):
        out[top : top + half, left : left + half] = _unit_range(kind(half, rng))
    return out
