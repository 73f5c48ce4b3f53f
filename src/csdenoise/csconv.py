"""Class-specific convolution (CSConv): per-pixel kernel selection from a filter bank.

Each output pixel is convolved with the kernel stack of its class index
(1..M): a mixture of experts with hard per-pixel routing, dispatched as in
MegaBlocks and Switch Transformer. A ``DispatchPlan`` sorts the pixels by
class once (a stable argsort of the N*H*W class map) into one contiguous
segment per class present; the networks build one plan per forward and hand
it to every CSConv layer, since all of them share the class map.

A layer pads its input once, pixel-major, and views it as one row of C values
per padded pixel, so a pixel's patch is the K*K whole rows at its corner row
plus fixed tap offsets; the layer's M weight stacks are reordered to match,
(M, C_out, K*K*C) with columns in (tap, channel) order. Each segment is worked
in chunks of ``_CHUNK`` sorted pixels: ``np.take`` gathers a chunk's patches
into a small reused buffer and one GEMM turns them into output rows, written
straight to their raster positions.

No K*K-sized patch matrix is kept for backward, nor a padded copy: backward
holds only the input tensor, the layer and the shared plan, pads the input
again and regathers each chunk's patches, the trade gradient checkpointing
makes (Chen et al., 2016). Per chunk it adds ``g.T @ patches``
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


def _bank_matrix(layer: CsConv2d) -> np.ndarray:
    """(M, C_out, K*K*C) weights, columns in a patch's (tap, channel) order."""
    m, c_out, c, k = layer.num_classes, layer.out_channels, layer.in_channels, layer.kernel_size
    stacks = layer.kernels.data.reshape(m, c_out, c, k * k)
    return stacks.transpose(0, 1, 3, 2).reshape(m, c_out, -1)


def _gather(rows, idx, block):
    """Patch rows ``rows[idx]`` into ``block``, returned as (len, K*K*C)."""
    # indices are in range by construction; "clip" lets take write to out unbuffered
    return np.take(rows, idx, axis=0, out=block, mode="clip").reshape(len(idx), -1)


def _backward(grad_out, x, plan, layer, need_input_grad):
    """(grad_q, grad_kernels, grad_biases) for input ``x``, padding it again
    and regathering each chunk's patches."""
    n, c_out, h, w = grad_out.shape
    m, c, k = layer.num_classes, layer.in_channels, layer.kernel_size
    img, pix = np.divmod(plan.order, h * w)
    rows, corner, taps = _patch_source(x, img, pix, k)
    go_rows = grad_out.reshape(n, c_out, h * w).transpose(0, 2, 1)  # a view, (N, H*W, C_out)
    wmat = _bank_matrix(layer)
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

    gk = gkmat.reshape(m, c_out, k * k, c).transpose(0, 1, 3, 2).reshape(layer.kernels.shape)
    if need_input_grad:
        r = k // 2
        gxp = gxp.reshape(n, h + 2 * r, w + 2 * r, c)[:, r : r + h, r : r + w]
        gxp = gxp.transpose(0, 3, 1, 2)
    return gxp, gk, gb.reshape(layer.biases.shape)


def csconv_forward(q: Tensor, classes, layer: CsConv2d) -> Tensor:
    """Differentiable convolution with per-pixel kernel selection.

    Chooses the kernel and bias of ``classes[pixel]`` from ``layer``'s M
    stacks at every output location; zero padding keeps spatial extents.
    ``classes`` is anything ``dispatch_plan`` accepts. Kernels and biases of
    classes absent from the map get exactly zero gradient.
    """
    n, c_in, h, w = q.shape
    if c_in != layer.in_channels:
        raise ShapeError(f"input has {c_in} channels, layer expects {layer.in_channels}")
    plan = dispatch_plan(classes, n, h, w, layer.num_classes)

    img, pix = np.divmod(plan.order, h * w)
    rows, corner, taps = _patch_source(q.data, img, pix, layer.kernel_size)
    wmat = _bank_matrix(layer)
    bmat = layer.biases.data.reshape(layer.num_classes, layer.out_channels)
    out = np.empty((n, layer.out_channels, h, w))
    out_rows = out.reshape(n, -1, h * w).transpose(0, 2, 1)  # a view, (N, H*W, C_out)
    block = np.empty((min(_CHUNK, corner.size), taps.size, c_in))
    res = np.empty((len(block), layer.out_channels))
    for i, lo, hi in _chunks(plan):
        y = res[: hi - lo]
        np.matmul(_gather(rows, corner[lo:hi, None] + taps, block[: hi - lo]),
                  wmat[i - 1].T, out=y)
        y += bmat[i - 1]
        out_rows[img[lo:hi], pix[lo:hi]] = y

    def bw(grad):
        gq, gk, gb = _backward(grad, q.data, plan, layer, need_input_grad=q.requires_grad)
        if q.requires_grad:
            q._accumulate(gq)
        if layer.kernels.requires_grad:
            layer.kernels._accumulate(gk)
        if layer.biases.requires_grad:
            layer.biases._accumulate(gb)

    return _result(out, (q, layer.kernels, layer.biases), bw)


class CsConv2d(Module):
    """Trainable class-specific convolution layer: a bank of M weight stacks.

    ``kernels`` holds the M (C_out, C_in, K, K) stacks concatenated on the
    output-channel axis, (M*C_out, C_in, K, K), and ``biases`` their M*C_out
    biases as (1, M*C_out, 1, 1), so the whole bank is two trainable
    tensors. All M stacks start from one shared random draw and zero biases,
    so training begins at the plain-convolution baseline and only diverges
    through per-class gradients.
    """

    def __init__(self, num_classes, in_channels, out_channels, kernel_size, rng=None):
        super().__init__()
        if num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
        if kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be odd, got {kernel_size}")
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        base = kaiming_uniform(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
        )
        self.kernels = Tensor(np.concatenate([base] * num_classes), requires_grad=True)
        self.biases = Tensor(np.zeros((1, num_classes * out_channels, 1, 1)),
                             requires_grad=True)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.num_classes = num_classes

    def forward(self, x: Tensor, classes) -> Tensor:
        return csconv_forward(x, classes, self)

    def flops_per_pixel(self) -> float:
        # counted like the plain conv it replaces; class lookup is free
        k = self.kernel_size
        return 2.0 * k * k * self.in_channels * self.out_channels
