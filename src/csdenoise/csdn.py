"""Denoising networks: EDSR- and CARN-style backbones in which the second
convolution of every residual block may be a class-specific convolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autodiff import Tensor, finite_float64, no_grad
from .csconv import CsConv2d, dispatch_plan
from .errors import ConfigError, ShapeError
from .gradient_stats import HashConfig
from .modules import Conv2d, Module, PReLU


@dataclass
class CsdnConfig:
    arch: str = "edsr"
    num_blocks: int = 16
    num_features: int = 16
    use_csconv: bool = True
    num_classes: int = 72

    def __post_init__(self):
        if self.arch not in ("edsr", "carn"):
            raise ConfigError(f"arch must be 'edsr' or 'carn', got {self.arch!r}")
        if self.num_blocks < 1 or self.num_features < 1:
            raise ConfigError("num_blocks and num_features must be >= 1")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.arch == "carn" and self.num_features % 2:
            raise ConfigError("carn needs an even feature count (grouped convs)")


def check_class_count(hash_cfg: HashConfig, csdn_cfg: CsdnConfig):
    """A class-specific denoiser needs one filter per hash class."""
    if csdn_cfg.use_csconv and hash_cfg.num_classes != csdn_cfg.num_classes:
        raise ConfigError(
            f"class-count mismatch: classifier hashes into {hash_cfg.num_classes} "
            f"classes, filter bank holds {csdn_cfg.num_classes}"
        )


def _dispatch_plan(cfg: CsdnConfig, x: Tensor, classes):
    """The one class-sorted plan every CSConv layer of a forward shares."""
    if not cfg.use_csconv:
        return None
    if classes is None:
        raise ConfigError("this network dispatches on a class map; none given")
    n, _, h, w = x.shape
    return dispatch_plan(classes, n, h, w, cfg.num_classes)


def _second_conv(cfg: CsdnConfig, rng) -> Module:
    f = cfg.num_features
    if cfg.use_csconv:
        return CsConv2d(cfg.num_classes, f, f, 3, rng=rng)
    return Conv2d(f, f, 3, rng=rng)


class _ResidualBlock(Module):
    """conv3x3 -> PReLU -> (CSConv or conv)3x3, plus identity skip. A CSConv
    runs the PReLU (``act`` keeps its parameter) and the skip add in its own
    op, so the graph keeps two activations per block instead of four."""

    def __init__(self, cfg: CsdnConfig, rng, grouped_first: bool = False):
        super().__init__()
        f = cfg.num_features
        self.conv1 = Conv2d(f, f, 3, groups=2 if grouped_first else 1, rng=rng)
        self.act = PReLU(f)
        self.conv2 = _second_conv(cfg, rng)
        self.uses_classes = cfg.use_csconv

    def forward(self, x: Tensor, classes=None) -> Tensor:
        if self.uses_classes:
            return self.conv2(self.conv1(x), classes, alpha=self.act.alpha, skip=x)
        return x + self.conv2(self.act(self.conv1(x)))

    def flops_per_pixel(self) -> float:
        f = self.act.channels
        return (
            self.conv1.flops_per_pixel()
            + self.act.flops_per_pixel()
            + self.conv2.flops_per_pixel()
            + f  # skip add
        )


class EdsrNet(Module):
    """1-layer encoder, serial residual blocks, long skip, 1-layer decoder."""

    kind = "csdn"

    def __init__(self, cfg: CsdnConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        f = cfg.num_features
        self.config = cfg
        self.head = Conv2d(1, f, 3, rng=rng)
        self.blocks = tuple(_ResidualBlock(cfg, rng) for _ in range(cfg.num_blocks))
        self.tail = Conv2d(f, 1, 3, rng=rng)

    def forward(self, x: Tensor, classes=None) -> Tensor:
        classes = _dispatch_plan(self.config, x, classes)
        y0 = self.head(x)
        y = y0
        for block in self.blocks:
            y = block(y, classes)
        return self.tail(y + y0)

    def flops_layers(self):
        """(name, FLOPs/pixel) pairs, in forward order."""
        rows = [("head", self.head.flops_per_pixel())]
        rows += [(f"block.{i}", b.flops_per_pixel()) for i, b in enumerate(self.blocks)]
        rows.append(("long_skip", float(self.config.num_features)))
        rows.append(("tail", self.tail.flops_per_pixel()))
        return rows


class _CascadeBlock(Module):
    """Three grouped residual blocks chained through 1x1 fusion convs."""

    def __init__(self, cfg: CsdnConfig, rng):
        super().__init__()
        f = cfg.num_features
        self.blocks = tuple(_ResidualBlock(cfg, rng, grouped_first=True) for _ in range(3))
        self.fusions = tuple(Conv2d(2 * f, f, 1, rng=rng) for _ in range(3))

    def forward(self, x: Tensor, classes=None) -> Tensor:
        out = x
        for block, fuse in zip(self.blocks, self.fusions):
            b = block(out, classes)
            out = fuse(F.concat_channels([out, b]))
        return out

    def flops_per_pixel(self) -> float:
        return sum(b.flops_per_pixel() for b in self.blocks) + sum(
            f.flops_per_pixel() for f in self.fusions
        )


class CarnNet(Module):
    """Three cascading blocks with running 1x1 fusion, local and global."""

    kind = "csdn"

    def __init__(self, cfg: CsdnConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        f = cfg.num_features
        self.config = cfg
        self.head = Conv2d(1, f, 3, rng=rng)
        self.cascades = tuple(_CascadeBlock(cfg, rng) for _ in range(3))
        self.global_fusions = tuple(Conv2d(2 * f, f, 1, rng=rng) for _ in range(3))
        self.tail = Conv2d(f, 1, 3, rng=rng)

    def forward(self, x: Tensor, classes=None) -> Tensor:
        classes = _dispatch_plan(self.config, x, classes)
        out = self.head(x)
        for cascade, fuse in zip(self.cascades, self.global_fusions):
            b = cascade(out, classes)
            out = fuse(F.concat_channels([out, b]))
        return self.tail(out)

    def flops_layers(self):
        """(name, FLOPs/pixel) pairs, in forward order."""
        rows = [("head", self.head.flops_per_pixel())]
        for i, (cascade, fuse) in enumerate(zip(self.cascades, self.global_fusions)):
            rows.append((f"cascade.{i}", cascade.flops_per_pixel()))
            rows.append((f"global_fusion.{i}", fuse.flops_per_pixel()))
        rows.append(("tail", self.tail.flops_per_pixel()))
        return rows


def build_csdn(cfg: CsdnConfig, seed: int = 0):
    net = EdsrNet if cfg.arch == "edsr" else CarnNet
    return net(cfg, np.random.default_rng(seed))


def csdn_forward(net, noisy: np.ndarray, classes=None) -> np.ndarray:
    """Denoise one image outside the training graph. Output is float64 and
    not clipped; a non-finite output raises ``CsdError``.

    The network runs in float32: each layer casts its float64 weights on use,
    so weights, model files and training graphs stay float64."""
    noisy = np.asarray(noisy)
    if noisy.ndim != 2:
        raise ShapeError(f"expected (H, W) image, got {noisy.shape}")
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = net.forward(Tensor(noisy[None, None].astype(np.float32)), classes)
    return finite_float64(out.data[0, 0], "denoised image")


def csdn_loss(estimate: Tensor, clean: Tensor) -> Tensor:
    """Mean absolute error between the estimate and the ground truth."""
    return F.l1_loss(estimate, clean)
