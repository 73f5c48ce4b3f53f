"""Pixel-wise classification network: a grouped-convolution U-net that
regresses noise-free gradient statistics from a noisy image."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autodiff import Tensor, no_grad
from .errors import ConfigError, ShapeError
from .gradient_stats import (
    GradientStatsMap,
    HashConfig,
    denormalize_stats,
    hash_classes,
)
from .modules import Conv2d, GroupConvBlock, GroupResidualBlock, Module, ModuleList


@dataclass
class PcnConfig:
    base_channels: int = 12
    num_scales: int = 3
    residual_blocks: int = 3

    def __post_init__(self):
        if self.base_channels < 4 or self.base_channels % 4:
            raise ConfigError(
                "base_channels must be a positive multiple of 4 (grouped halves split "
                f"again into 2 groups); got {self.base_channels}"
            )
        if self.num_scales < 2:
            raise ConfigError(f"num_scales must be >= 2, got {self.num_scales}")
        if self.residual_blocks < 0:
            raise ConfigError("residual_blocks must be non-negative")


class PcnNet(Module):
    """U-net over GroupConvBlocks: encoder with average downsampling,
    residual bottleneck, decoder with bilinear upsampling and
    concatenated skips. Output is 3 raw regression channels."""

    kind = "pcn"

    def __init__(self, cfg: PcnConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        cf = cfg.base_channels
        depth = cfg.num_scales - 1
        self.config = cfg
        self.head = Conv2d(1, cf, 1, rng=rng)
        self.encoder = ModuleList(GroupConvBlock(cf, cf, rng=rng) for _ in range(depth))
        self.bottleneck_in = GroupConvBlock(cf, cf, rng=rng)
        self.bottleneck = ModuleList(
            GroupResidualBlock(cf, rng=rng) for _ in range(cfg.residual_blocks)
        )
        self.decoder = ModuleList(
            GroupConvBlock(2 * cf, cf, rng=rng) for _ in range(depth)
        )
        self.tail = Conv2d(cf, 3, 1, rng=rng)

    @property
    def scale_factor(self) -> int:
        """Spatial divisibility the raw forward expects."""
        return 2 ** (self.config.num_scales - 1)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != 1:
            raise ShapeError(f"expected single-channel input, got {c}")
        div = self.scale_factor
        if h % div or w % div:
            raise ShapeError(
                f"{h}x{w} input not divisible by {div}; reflect-pad first "
                "(see forward_padded)"
            )
        y = self.head(x)
        skips = []
        for stage in self.encoder:
            y = stage(y)
            skips.append(y)
            y = F.avg_downsample2x(y)
        y = self.bottleneck_in(y)
        for block in self.bottleneck:
            y = block(y)
        for stage, skip in zip(self.decoder, reversed(skips)):
            y = F.bilinear_upsample2x(y)
            y = stage(F.concat_channels([y, skip]))
        return self.tail(y)

    def forward_padded(self, x: Tensor) -> Tensor:
        """Forward for arbitrary sizes: reflect-pad to divisibility, crop back."""
        n, c, h, w = x.shape
        div = self.scale_factor
        pad_h = (-h) % div
        pad_w = (-w) % div
        if pad_h or pad_w:
            out = self.forward(F.reflect_pad2d(x, pad_h, pad_w))
            return F.crop2d(out, h, w)
        return self.forward(x)

    def flops_layers(self):
        """(name, flops/pixel at own resolution, area fraction) triples."""
        cf = self.config.base_channels
        depth = self.config.num_scales - 1
        rows = [("head", self.head.flops_per_pixel(), 1.0)]
        for s, stage in enumerate(self.encoder):
            area = 0.25**s
            rows.append((f"encoder.{s}", stage.flops_per_pixel(), area))
            rows.append((f"down.{s}", float(cf), area * 0.25))
        bottom = 0.25**depth
        rows.append(("bottleneck_in", self.bottleneck_in.flops_per_pixel(), bottom))
        for i, block in enumerate(self.bottleneck):
            rows.append((f"bottleneck.{i}", block.flops_per_pixel(), bottom))
        for s in range(depth - 1, -1, -1):
            area = 0.25**s
            stage = self.decoder[depth - 1 - s]
            rows.append((f"up.{s}", float(cf), area))
            rows.append((f"decoder.{depth - 1 - s}", stage.flops_per_pixel(), area))
        rows.append(("tail", self.tail.flops_per_pixel(), 1.0))
        return rows


def build_pcn(cfg: PcnConfig | None = None, seed: int = 0) -> PcnNet:
    cfg = cfg if cfg is not None else PcnConfig()
    return PcnNet(cfg, np.random.default_rng(seed))


def pcn_raw_forward(net: PcnNet, noisy: np.ndarray) -> np.ndarray:
    """Inference helper: (H, W) image -> raw (3, H, W) predictions, no graph."""
    noisy = np.asarray(noisy, dtype=np.float64)
    if noisy.ndim != 2:
        raise ShapeError(f"expected (H, W) image, got {noisy.shape}")
    with no_grad():
        out = net.forward_padded(Tensor(noisy[None, None]))
    return out.data[0]


def pcn_forward(net: PcnNet, noisy: np.ndarray) -> GradientStatsMap:
    """Predict gradient statistics for one noisy image, clamped to valid ranges."""
    return denormalize_stats(pcn_raw_forward(net, noisy))


def pcn_class_map(net: PcnNet, noisy: np.ndarray, cfg: HashConfig):
    """Classify a noisy image: (stats, class map) from network predictions."""
    stats = pcn_forward(net, noisy)
    return stats, hash_classes(stats, cfg)


def pcn_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Sum of per-channel mean L1 terms over the three statistics channels."""
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    if pred.shape[1] != 3:
        raise ShapeError(f"expected 3 channels, got {pred.shape[1]}")
    total = None
    for ch in range(3):
        term = F.l1_loss(
            F.slice_channels(pred, ch, ch + 1), F.slice_channels(target, ch, ch + 1)
        )
        total = term if total is None else total + term
    return total
