"""Pixel-wise classification network: a grouped-convolution U-net that
regresses noise-free gradient statistics from a noisy image. Inference
pads and crops plain arrays around one no-grad forward (``pcn_forward``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autodiff import Tensor, finite_float64, image_2d, no_grad
from .errors import ConfigError, ShapeError
from .gradient_stats import GradientStatsMap, HashConfig, denormalize_stats, hash_classes
from .modules import Conv2d, GroupConvBlock, GroupResidualBlock, Module


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
        self.encoder = tuple(GroupConvBlock(cf, cf, rng=rng) for _ in range(depth))
        self.bottleneck_in = GroupConvBlock(cf, cf, rng=rng)
        self.bottleneck = tuple(GroupResidualBlock(cf, rng=rng) for _ in range(cfg.residual_blocks))
        self.decoder = tuple(GroupConvBlock(2 * cf, cf, rng=rng) for _ in range(depth))
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
                "(see pcn_forward)"
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

    def flops_layers(self):
        """(name, FLOPs/pixel of the full image) pairs, in forward order: a layer
        below full resolution counts its own FLOPs/pixel times its area fraction."""
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
        return [(name, ppf * area) for name, ppf, area in rows]


def build_pcn(cfg: PcnConfig | None = None, seed: int = 0) -> PcnNet:
    cfg = cfg if cfg is not None else PcnConfig()
    return PcnNet(cfg, np.random.default_rng(seed))


def pcn_forward(net: PcnNet, noisy: np.ndarray) -> GradientStatsMap:
    """Predict gradient statistics for one (H, W) noisy image, clamped to
    valid ranges. An image the net's scale factor does not divide is
    reflect-padded at its bottom and right edges, and the prediction is
    cropped back; no graph is recorded.

    The net runs in the image's dtype as ``Tensor`` holds it: a float32
    image in float32 (inference classifies so), any other in float64
    (training does). The stats are float64 either way, and a non-finite
    prediction raises ``CsdError``."""
    noisy = image_2d(noisy)
    h, w = noisy.shape
    pad_h, pad_w = (-h) % net.scale_factor, (-w) % net.scale_factor
    if pad_h or pad_w:
        if pad_h >= h or pad_w >= w:
            raise ShapeError(f"reflect pad ({pad_h},{pad_w}) too large for {h}x{w}")
        noisy = np.pad(noisy, ((0, pad_h), (0, pad_w)), mode="reflect")
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):  # checked below
        raw = net.forward(Tensor(noisy[None, None])).data[0, :, :h, :w]
    return denormalize_stats(finite_float64(raw, "gradient statistics prediction"))


def pcn_class_map(net: PcnNet, noisy: np.ndarray, cfg: HashConfig):
    """Classify a noisy image: (stats, class map) from network predictions."""
    stats = pcn_forward(net, noisy)
    return stats, hash_classes(stats, cfg)


def pcn_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Sum of per-channel mean L1 terms over the three statistics channels:
    the channels are the same size, so that is 3x the mean over all of them."""
    if pred.shape != target.shape:
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    if pred.shape[1] != 3:
        raise ShapeError(f"expected 3 channels, got {pred.shape[1]}")
    return F.l1_loss(pred, target) * 3.0
