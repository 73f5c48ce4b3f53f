import numpy as np
import pytest
from hypothesis import settings


def _blur(img, sigma):
    half = int(3 * sigma)
    x = np.arange(-half, half + 1)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    g /= g.sum()
    p = np.pad(img, half, mode="edge")
    rows = sum(g[j] * p[:, j : j + img.shape[1]] for j in range(g.size))
    return sum(g[i] * rows[i : i + img.shape[0], :] for i in range(g.size))


def make_toy_images(size=128, seed=7):
    """Five deterministic structured grayscale images in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    images = []
    for angle, freq in ((0.3, 9.0), (1.2, 14.0)):
        u = xx * np.cos(angle) + yy * np.sin(angle)
        images.append(0.5 + 0.4 * np.sin(2 * np.pi * freq * u))
    r = np.hypot(xx - 0.5, yy - 0.55)
    images.append(0.5 + 0.4 * np.cos(2 * np.pi * 11 * r))
    images.append(_blur(rng.random((size, size)), 6.0))
    img = 0.25 + 0.4 * xx
    img[(yy > 0.2) & (yy < 0.55) & (xx > 0.3) & (xx < 0.8)] = 0.85
    img[(yy + xx > 1.3)] = 0.15
    images.append(_blur(img, 1.0))
    out = []
    for img in images:
        lo, hi = img.min(), img.max()
        out.append(0.05 + 0.9 * (img - lo) / (hi - lo))
    return out


@pytest.fixture(scope="session")
def toy_images():
    return make_toy_images()


@pytest.fixture(scope="session")
def micro_images():
    """Two small structured images for fast training smoke tests."""
    return [im[:48, :48].copy() for im in make_toy_images(size=96, seed=3)[:2]]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# One fixed, derandomized example budget for every property-based test, so
# the suite gives the same verdict on every run and stays fast on 2 vCPU.
settings.register_profile("csdenoise", max_examples=200, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("csdenoise")
