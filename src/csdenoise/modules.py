"""Parameter-owning layer objects with an ordered, nameable registry."""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .autodiff import Tensor
from .errors import ConfigError


class Module:
    """Base class: attribute assignment registers parameters and children.
    A tuple of modules registers its items as children ``name.0``, ``name.1``, ..."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        elif isinstance(value, tuple):
            self._children.update((f"{name}.{i}", m) for i, m in enumerate(value)
                                  if isinstance(m, Module))
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        """Yield (name, tensor) pairs in registration order, depth-first."""
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv2d(Module):
    """Stride-1 zero-padded convolution layer, optionally grouped."""

    def __init__(self, in_channels, out_channels, kernel_size, groups=1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ConfigError(
                f"groups={groups} must divide channels {in_channels}->{out_channels}"
            )
        if kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be odd, got {kernel_size}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.kernel = Tensor(
            kaiming_uniform(
                rng, (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in,
            ),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros((1, out_channels, 1, 1)), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.kernel, self.bias, self.groups)

    def flops_per_pixel(self) -> float:
        k = self.kernel_size
        return 2.0 * k * k * (self.in_channels // self.groups) * self.out_channels


class PReLU(Module):
    def __init__(self, channels: int, init: float = 0.25):
        super().__init__()
        self.channels = channels
        self.alpha = Tensor(np.full((1, channels, 1, 1), init), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.prelu(x, self.alpha)

    def flops_per_pixel(self) -> float:
        return float(self.channels)


class GroupConvBlock(Module):
    """3x3 group conv (2 groups, half channels) + 1x1 expansion + ReLU."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if out_channels % 2:
            raise ConfigError("GroupConvBlock needs an even channel count")
        self.out_channels = out_channels
        self.reduce = Conv2d(in_channels, out_channels // 2, 3, groups=2, rng=rng)
        self.expand = Conv2d(out_channels // 2, out_channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(self.expand(self.reduce(x)))

    def flops_per_pixel(self) -> float:
        return (
            self.reduce.flops_per_pixel()
            + self.expand.flops_per_pixel()
            + self.out_channels  # ReLU
        )


class GroupResidualBlock(Module):
    """GroupConvBlock wrapped with an additive skip connection."""

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.channels = channels
        self.block = GroupConvBlock(channels, channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return x + self.block(x)

    def flops_per_pixel(self) -> float:
        return self.block.flops_per_pixel() + self.channels  # skip add
