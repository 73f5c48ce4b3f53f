"""Class-specific convolution (CSConv): per-pixel kernel selection from a filter bank.

Each output pixel is convolved with the kernel stack of its class index
(1..M): a mixture of experts with hard per-pixel routing, dispatched as in
MegaBlocks and Switch Transformer. A ``DispatchPlan`` sorts the pixels by
class once (a stable argsort of the N*H*W class map) into one contiguous
segment per class present; the networks build one plan per forward and hand
it to every CSConv layer, since all of them share the class map.

A layer pads its input once, pixel-major, and views it as one row of C values
per padded pixel, so a pixel's patch is the K*K whole rows at its corner row
plus fixed tap offsets; the bank is reordered to match, (M, C_out, K*K*C) with
columns in (tap, channel) order. Each segment is worked in chunks of
``_CHUNK`` sorted pixels: ``np.take`` gathers a chunk's patches into a small
reused buffer and one GEMM turns them into output rows, written straight to
their raster positions.

No K*K-sized patch matrix is kept for backward. It keeps the padded rows and
the sorted corners and regathers each chunk's patches, the trade gradient
checkpointing makes (Chen et al., 2016). Per chunk it adds ``g.T @ patches``
to the weight gradient and scatter-adds ``g @ W`` into a padded input
gradient, one tap at a time, since no two pixels of a tap share a row. Sums
run in class-sorted order, which is deterministic for a given map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _result
from .errors import ConfigError, DispatchError, ShapeError
from .modules import Module, kaiming_uniform


@dataclass
class ClassMap:
    """Per-pixel class indices in 1..M for one image."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices)
        if self.indices.ndim != 2:
            raise ShapeError(f"class map must be (H, W), got {self.indices.shape}")
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise ShapeError("class map must hold integers")

    @property
    def shape(self):
        return self.indices.shape


class FilterBank:
    """M stacks of convolution weights sharing one (C_out, C_in, K, K) shape.

    Stacks are stored concatenated along the output-channel axis so the
    whole bank is a single trainable tensor.
    """

    def __init__(self, kernels: Tensor, num_classes: int, biases: Tensor | None = None):
        if num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
        if kernels.data.ndim != 4 or kernels.shape[0] % num_classes:
            raise ShapeError(
                f"bank kernels must stack {num_classes} classes on axis 0, "
                f"got shape {kernels.shape}"
            )
        k = kernels.shape[2]
        if k != kernels.shape[3] or k % 2 == 0:
            raise ConfigError(f"kernel size must be odd and square, got {kernels.shape[2:]}")
        self.kernels = kernels
        self.num_classes = num_classes
        self.biases = biases
        if biases is not None and biases.data.shape != (1, kernels.shape[0], 1, 1):
            raise ShapeError(
                f"bank biases must be (1, {kernels.shape[0]}, 1, 1), got {biases.shape}"
            )

    @property
    def out_channels(self) -> int:
        return self.kernels.shape[0] // self.num_classes

    @property
    def in_channels(self) -> int:
        return self.kernels.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernels.shape[2]

    def class_bias(self, index: int) -> np.ndarray | None:
        if self.biases is None:
            return None
        c = self.out_channels
        return self.biases.data.reshape(-1)[(index - 1) * c : index * c]

    @classmethod
    def from_stacks(cls, stacks, biases=None, requires_grad: bool = True) -> "FilterBank":
        """Build from a sequence of M (C_out, C_in, K, K) arrays."""
        arrs = [np.asarray(s, dtype=np.float64) for s in stacks]
        ref = arrs[0].shape
        if any(a.shape != ref for a in arrs):
            raise ShapeError("all bank stacks must share one shape")
        kern = Tensor(np.concatenate(arrs, axis=0), requires_grad=requires_grad)
        bias_t = None
        if biases is not None:
            flat = np.concatenate([np.asarray(b, dtype=np.float64).reshape(-1) for b in biases])
            if flat.size != kern.shape[0]:
                raise ShapeError("bank biases must supply C_out values per class")
            bias_t = Tensor(flat.reshape(1, -1, 1, 1), requires_grad=requires_grad)
        return cls(kern, len(arrs), bias_t)

    @classmethod
    def shared(cls, base_kernel, num_classes: int, base_bias=None,
               requires_grad: bool = True) -> "FilterBank":
        """Tile one kernel stack M times (the shared-weight starting point)."""
        base = np.asarray(base_kernel, dtype=np.float64)
        return cls.from_stacks(
            [base] * num_classes,
            None if base_bias is None else [base_bias] * num_classes,
            requires_grad=requires_grad,
        )


def _class_indices(classes, n: int, h: int, w: int, num_classes: int) -> np.ndarray:
    """Validate class indices and broadcast them to (N, H, W)."""
    idx = classes.indices if isinstance(classes, ClassMap) else np.asarray(classes)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("class indices must be integers")
    if idx.ndim == 2:
        if idx.shape != (h, w):
            raise ShapeError(f"class map {idx.shape} does not match feature {h}x{w}")
        idx = np.broadcast_to(idx, (n, h, w))
    elif idx.ndim == 3:
        if idx.shape != (n, h, w):
            raise ShapeError(f"class maps {idx.shape} do not match batch ({n},{h},{w})")
    else:
        raise ShapeError(f"class indices must be (H,W) or (N,H,W), got {idx.shape}")
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 1 or hi > num_classes:
        raise DispatchError(
            f"class indices span {lo}..{hi}, outside the bank's 1..{num_classes}"
        )
    return idx


class DispatchPlan:
    """The pixels of a batch of class maps, sorted by class.

    ``order`` lists the flat (n, y, x) pixel indices class by class, in
    raster order within each class (a stable sort), and ``segments`` holds
    one ``(class, start, stop)`` range of ``order`` per class present.
    ``indices`` is the validated (N, H, W) class map.
    """

    def __init__(self, classes, n: int, h: int, w: int, num_classes: int):
        self.indices = _class_indices(classes, n, h, w, num_classes)
        # the narrowest dtype lets the stable sort run as a radix sort
        flat = self.indices.reshape(-1).astype(np.min_scalar_type(num_classes))
        self.order = np.argsort(flat, kind="stable")
        stops = np.cumsum(np.bincount(flat, minlength=num_classes + 1))
        self.segments = [
            (i, int(stops[i - 1]), int(stops[i]))
            for i in range(1, num_classes + 1) if stops[i] > stops[i - 1]
        ]


def dispatch_plan(classes, n: int, h: int, w: int, num_classes: int) -> DispatchPlan:
    """The plan for an (N, C, H, W) feature: ``classes`` may be a raw (H, W) or
    (N, H, W) index array, a ``ClassMap`` or an existing ``DispatchPlan``."""
    if not isinstance(classes, DispatchPlan):
        return DispatchPlan(classes, n, h, w, num_classes)
    if classes.indices.shape != (n, h, w):
        raise ShapeError(f"dispatch plan {classes.indices.shape} does not match ({n},{h},{w})")
    if classes.segments and classes.segments[-1][0] > num_classes:
        raise DispatchError(
            f"dispatch plan holds class {classes.segments[-1][0]}, "
            f"outside the bank's 1..{num_classes}"
        )
    return classes


# Pixels per gather-and-GEMM step: a (chunk, K*K, C) patch block stays in cache.
_CHUNK = 512


def _patch_source(x: np.ndarray, img, pix, k: int):
    """What the patch gathers read: the zero-padded input as one row of C
    values per padded pixel, the top-left patch row of each pixel ``pix`` of
    image ``img``, and the K*K row offsets of the taps in (ky, kx) order."""
    n, c, h, w = x.shape
    r = k // 2
    wp = w + 2 * r
    xp = np.zeros((n, h + 2 * r, wp, c))
    xp[:, r : r + h, r : r + w] = x.transpose(0, 2, 3, 1)
    corner = (img * (h + 2 * r) + pix // w) * wp + pix % w
    return xp.reshape(-1, c), corner, (np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)


def _chunks(plan: DispatchPlan):
    """(class, lo, hi) runs of at most ``_CHUNK`` sorted pixels, by segment."""
    for i, start, stop in plan.segments:
        for lo in range(start, stop, _CHUNK):
            yield i, lo, min(lo + _CHUNK, stop)


def _bank_matrix(bank: FilterBank) -> np.ndarray:
    """(M, C_out, K*K*C) weights, columns in a patch's (tap, channel) order."""
    m, c_out, c, k = bank.num_classes, bank.out_channels, bank.in_channels, bank.kernel_size
    stacks = bank.kernels.data.reshape(m, c_out, c, k * k)
    return stacks.transpose(0, 1, 3, 2).reshape(m, c_out, -1)


def _gather(rows, idx, block):
    """Patch rows ``rows[idx]`` into ``block``, returned as (len, K*K*C)."""
    # indices are in range by construction; "clip" lets take write to out unbuffered
    return np.take(rows, idx, axis=0, out=block, mode="clip").reshape(len(idx), -1)


def _backward(grad_out, rows, corner, taps, plan, bank, need_input_grad):
    """(grad_q, grad_kernels, grad_biases), regathering each chunk's patches."""
    n, c_out, h, w = grad_out.shape
    m, c, k = bank.num_classes, bank.in_channels, bank.kernel_size
    img, pix = np.divmod(plan.order, h * w)
    go_rows = grad_out.reshape(n, c_out, h * w).transpose(0, 2, 1)  # a view, (N, H*W, C_out)
    wmat = _bank_matrix(bank)
    gkmat = np.zeros_like(wmat)
    gb = np.zeros((m, c_out))
    gxp = np.zeros_like(rows) if need_input_grad else None
    block = np.empty((min(_CHUNK, corner.size), taps.size, c))
    gblock, acc = np.empty_like(block), np.empty((len(block), c))

    for i, lo, hi in _chunks(plan):
        g = go_rows[img[lo:hi], pix[lo:hi]]
        idx = corner[lo:hi, None] + taps
        gkmat[i - 1] += g.T @ _gather(rows, idx, block[: hi - lo])
        gb[i - 1] += g.sum(axis=0)
        if need_input_grad:
            gpatches = gblock[: hi - lo]
            np.matmul(g, wmat[i - 1], out=gpatches.reshape(hi - lo, -1))
            for t in range(taps.size):
                # the pixels of one tap read distinct rows: no row is added to twice
                dst = idx[:, t]
                rows_t = np.take(gxp, dst, axis=0, out=acc[: hi - lo], mode="clip")
                rows_t += gpatches[:, t]
                gxp[dst] = rows_t

    gk = gkmat.reshape(m, c_out, k * k, c).transpose(0, 1, 3, 2).reshape(bank.kernels.shape)
    if need_input_grad:
        r = k // 2
        gxp = gxp.reshape(n, h + 2 * r, w + 2 * r, c)[:, r : r + h, r : r + w]
        gxp = gxp.transpose(0, 3, 1, 2)
    return gxp, gk, (None if bank.biases is None else gb.reshape(bank.biases.shape))


def csconv_forward(q: Tensor, classes, bank: FilterBank) -> Tensor:
    """Differentiable convolution with per-pixel kernel selection.

    Chooses the kernel (and bias) of ``classes[pixel]`` at every output
    location; zero padding keeps spatial extents. ``classes`` is anything
    ``dispatch_plan`` accepts. Kernels of classes absent from the map get
    exactly zero gradient.
    """
    n, c_in, h, w = q.shape
    if c_in != bank.in_channels:
        raise ShapeError(f"input has {c_in} channels, bank expects {bank.in_channels}")
    plan = dispatch_plan(classes, n, h, w, bank.num_classes)
    parents = [q, bank.kernels]
    if bank.biases is not None:
        parents.append(bank.biases)

    img, pix = np.divmod(plan.order, h * w)
    rows, corner, taps = _patch_source(q.data, img, pix, bank.kernel_size)
    wmat = _bank_matrix(bank)
    out = np.empty((n, bank.out_channels, h, w))
    out_rows = out.reshape(n, -1, h * w).transpose(0, 2, 1)  # a view, (N, H*W, C_out)
    block = np.empty((min(_CHUNK, corner.size), taps.size, c_in))
    res = np.empty((len(block), bank.out_channels))
    for i, lo, hi in _chunks(plan):
        y = res[: hi - lo]
        np.matmul(_gather(rows, corner[lo:hi, None] + taps, block[: hi - lo]),
                  wmat[i - 1].T, out=y)
        if bank.biases is not None:
            y += bank.class_bias(i)
        out_rows[img[lo:hi], pix[lo:hi]] = y

    def bw(grad):
        gq, gk, gb = _backward(grad, rows, corner, taps, plan, bank,
                               need_input_grad=q.requires_grad)
        if q.requires_grad:
            q._accumulate(gq)
        if bank.kernels.requires_grad:
            bank.kernels._accumulate(gk)
        if bank.biases is not None and bank.biases.requires_grad:
            bank.biases._accumulate(gb)

    return _result(out, tuple(parents), bw)


class CsConv2d(Module):
    """Trainable class-specific convolution layer.

    All M stacks start from one shared random draw so training begins at
    the plain-convolution baseline and only diverges through per-class
    gradients.
    """

    def __init__(self, num_classes, in_channels, out_channels, kernel_size,
                 bias=True, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        base = kaiming_uniform(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
        )
        bank = FilterBank.shared(
            base, num_classes,
            base_bias=np.zeros(out_channels) if bias else None,
        )
        self.kernels = bank.kernels
        if bank.biases is not None:
            self.biases = bank.biases
        self.bank = bank
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.num_classes = num_classes

    def forward(self, x: Tensor, classes) -> Tensor:
        return csconv_forward(x, classes, self.bank)

    def flops_per_pixel(self) -> float:
        # counted like the plain conv it replaces; class lookup is free
        k = self.kernel_size
        return 2.0 * k * k * self.in_channels * self.out_channels
