"""Local gradient statistics and the hash quantizer.

Per pixel we estimate orientation (angle of the dominant structure-tensor
eigenvector, folded into [0, pi)), strength (largest eigenvalue) and
coherence ((sqrt(l1)-sqrt(l2))/(sqrt(l1)+sqrt(l2))), then bucket the
triple into a discrete class index through angular bins and thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csconv import ClassMap
from .errors import ConfigError, ShapeError

DEFAULT_WINDOW = 9
DEFAULT_SIGMA_W = 2.0
# regression targets are scaled to unit range: sqrt(strength)/STRENGTH_SCALE,
# saturated at 1, keeps the three loss terms commensurate
STRENGTH_SCALE = 0.2


@dataclass
class GradientStatsMap:
    """Per-pixel (orientation, strength, coherence) fields."""

    orientation: np.ndarray  # [0, pi)
    strength: np.ndarray  # >= 0 (largest eigenvalue)
    coherence: np.ndarray  # [0, 1]

    def __post_init__(self):
        shapes = {self.orientation.shape, self.strength.shape, self.coherence.shape}
        if len(shapes) != 1:
            raise ShapeError(f"stats fields disagree on shape: {shapes}")


@dataclass
class HashConfig:
    """Bin counts and thresholds of the quantizer; M = product of the counts."""

    orientation_bins: int = 8
    strength_bins: int = 3
    coherence_bins: int = 3
    strength_thresholds: tuple = (0.0001, 0.001)
    coherence_thresholds: tuple = (0.25, 0.5)

    def __post_init__(self):
        self.strength_thresholds = tuple(float(t) for t in self.strength_thresholds)
        self.coherence_thresholds = tuple(float(t) for t in self.coherence_thresholds)
        if min(self.orientation_bins, self.strength_bins, self.coherence_bins) < 1:
            raise ConfigError("all bin counts must be positive")
        if len(self.strength_thresholds) != self.strength_bins - 1:
            raise ConfigError(
                f"{self.strength_bins} strength bins need "
                f"{self.strength_bins - 1} thresholds"
            )
        if len(self.coherence_thresholds) != self.coherence_bins - 1:
            raise ConfigError(
                f"{self.coherence_bins} coherence bins need "
                f"{self.coherence_bins - 1} thresholds"
            )
        for ts in (self.strength_thresholds, self.coherence_thresholds):
            if not all(np.isfinite(ts)):
                raise ConfigError(f"thresholds must be finite: {ts}")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigError(f"thresholds must ascend strictly: {ts}")
        if any(t <= 0 or t >= 1 for t in self.coherence_thresholds):
            raise ConfigError("coherence thresholds must lie strictly inside (0,1)")

    @property
    def num_classes(self) -> int:
        return self.orientation_bins * self.strength_bins * self.coherence_bins


def image_gradients(img: np.ndarray):
    """Central differences (-0.5, 0, +0.5) with replicated borders."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ShapeError(f"need a (H>=2, W>=2) image, got {img.shape}")
    padded = np.pad(img, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    return gx, gy


def gaussian_1d(size: int, sigma: float) -> np.ndarray:
    """Sampled 1-D Gaussian on an odd-size window, normalized to sum 1."""
    if size % 2 == 0:
        raise ConfigError(f"window size must be odd, got {size}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


def filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable correlation with kernel outer(g, g), valid region only."""
    size = g.size
    h, w = img.shape
    rows = np.zeros((h, w - size + 1))
    for j in range(size):
        rows += g[j] * img[:, j : j + w - size + 1]
    out = np.zeros((h - size + 1, rows.shape[1]))
    for i in range(size):
        out += g[i] * rows[i : i + h - size + 1, :]
    return out


def structure_tensor(gx: np.ndarray, gy: np.ndarray,
                     window: int = DEFAULT_WINDOW, sigma: float = DEFAULT_SIGMA_W):
    """Per-pixel Gaussian-weighted 2x2 tensor entries (a, b, d)."""
    if gx.shape != gy.shape:
        raise ShapeError(f"gradient fields disagree: {gx.shape} vs {gy.shape}")
    g = gaussian_1d(window, sigma)
    # replicate-border window sums
    return tuple(filter_valid(np.pad(f, window // 2, mode="edge"), g)
                 for f in (gx * gx, gx * gy, gy * gy))


def eigen_stats(a, b, d):
    """Closed-form eigen-decomposition of symmetric [[a, b], [b, d]].

    Returns (l1, l2, orientation, coherence) where l1 >= l2 >= 0 after
    clamping rounding noise, orientation is the dominant eigenvector
    angle in [0, pi) (0 on isotropic ties), and coherence is
    (sqrt(l1)-sqrt(l2))/(sqrt(l1)+sqrt(l2)) with 0/0 -> 0.
    """
    a, b, d = (np.asarray(v, dtype=np.float64) for v in (a, b, d))
    half_tr = 0.5 * (a + d)
    half_diff = 0.5 * (a - d)
    disc = np.sqrt(half_diff * half_diff + b * b)
    l1 = np.maximum(half_tr + disc, 0.0)
    l2 = np.clip(half_tr - disc, 0.0, None)
    l2 = np.minimum(l2, l1)

    # dominant eigenvector: (b, l1-a) and (l1-d, b) are parallel; pick the
    # numerically larger one per pixel, fall back to angle 0 when both vanish
    v1x, v1y = b, l1 - a
    v2x, v2y = l1 - d, b
    n1 = v1x * v1x + v1y * v1y
    n2 = v2x * v2x + v2y * v2y
    use1 = n1 >= n2
    vx = np.where(use1, v1x, v2x)
    vy = np.where(use1, v1y, v2y)
    angle = np.where(
        np.maximum(n1, n2) > 0.0, np.mod(np.arctan2(vy, vx), np.pi), 0.0
    )

    s1 = np.sqrt(l1)
    s2 = np.sqrt(l2)
    denom = s1 + s2
    coherence = np.where(denom > 0.0, (s1 - s2) / np.where(denom > 0.0, denom, 1.0), 0.0)
    return l1, l2, angle, coherence


def hash_classes(stats: GradientStatsMap, cfg: HashConfig) -> ClassMap:
    """Quantize stats into 1..M: angular bins x strength bins x coherence bins.

    Strength/coherence bin = count of thresholds strictly below the value,
    so a value exactly at a threshold stays in the lower bin. Non-finite
    stats raise ``ConfigError`` rather than land silently in an edge bin.
    """
    fields = (stats.orientation, stats.strength, stats.coherence)
    if not all(np.isfinite(f).all() for f in fields):
        raise ConfigError("gradient statistics hold non-finite values")
    q_phi = np.floor(stats.orientation / (np.pi / cfg.orientation_bins)).astype(np.int64)
    q_phi = np.clip(q_phi, 0, cfg.orientation_bins - 1)
    q_lam = np.searchsorted(
        np.asarray(cfg.strength_thresholds), stats.strength, side="left"
    )
    q_mu = np.searchsorted(
        np.asarray(cfg.coherence_thresholds), stats.coherence, side="left"
    )
    idx = (
        q_phi * (cfg.strength_bins * cfg.coherence_bins)
        + q_lam * cfg.coherence_bins
        + q_mu
        + 1
    )
    return ClassMap(idx.astype(np.int64))


def compute_stats(img: np.ndarray, window: int = DEFAULT_WINDOW,
                  sigma: float = DEFAULT_SIGMA_W) -> GradientStatsMap:
    """Gradient statistics of one image via structure-tensor eigenanalysis."""
    with np.errstate(over="ignore", invalid="ignore"):  # hash_classes rejects non-finite
        gx, gy = image_gradients(img)
        a, b, d = structure_tensor(gx, gy, window, sigma)
        l1, _, angle, coherence = eigen_stats(a, b, d)
    return GradientStatsMap(orientation=angle, strength=l1, coherence=coherence)


def compute_class_map(img: np.ndarray, cfg: HashConfig | None = None,
                      window: int = DEFAULT_WINDOW, sigma: float = DEFAULT_SIGMA_W):
    """Full pipeline image -> (stats, class map) via structure-tensor analysis."""
    cfg = cfg if cfg is not None else HashConfig()
    stats = compute_stats(img, window, sigma)
    return stats, hash_classes(stats, cfg)


def normalized_stats_mse(pred: GradientStatsMap, target: GradientStatsMap) -> float:
    """Mean squared error between two stats maps on the unit-range channels."""
    return float(np.mean((normalize_stats(pred) - normalize_stats(target)) ** 2))


def normalize_stats(stats: GradientStatsMap) -> np.ndarray:
    """Stack stats as unit-range regression targets (3, H, W).

    Channels: orientation/pi, min(sqrt(strength)/STRENGTH_SCALE, 1), coherence.
    """
    return np.stack(
        [
            stats.orientation / np.pi,
            np.minimum(np.sqrt(stats.strength) / STRENGTH_SCALE, 1.0),
            stats.coherence,
        ]
    )


def denormalize_stats(raw: np.ndarray) -> GradientStatsMap:
    """Map raw 3-channel predictions back to a valid stats map (clamping)."""
    if raw.ndim != 3 or raw.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) raw predictions, got {raw.shape}")
    phi = np.mod(np.clip(raw[0], 0.0, 1.0) * np.pi, np.pi)
    strength = (np.clip(raw[1], 0.0, 1.0) * STRENGTH_SCALE) ** 2
    coherence = np.clip(raw[2], 0.0, 1.0)
    return GradientStatsMap(orientation=phi, strength=strength, coherence=coherence)
