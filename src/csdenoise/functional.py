"""The ops a training graph records: grouped conv, PReLU/ReLU, 2x
resampling, channel concatenation for U-net skips, L1 loss.

Convolutions are stride-1 with zero padding of K//2, so spatial extents
are preserved. All kernels are (C_out, C_in/groups, K, K) with odd K.
Forwards compute in their input's dtype: buffers follow it, byte budgets
count its item size, and float64 weights are cast to it on use, a no-op
for float64 input. Backward runs only on float64 graphs.

``conv2d`` and both its gradients are one zero-padded stride-1
correlation (im2col, Chellapilla et al., 2006) worked per image in blocks
of whole output rows: a block's rows and K//2 halo are copied into a small
zero-bordered buffer, its (C*K*K, rows*W) patch slab is laid out in one
reused buffer of at most ``_SLAB_BYTES``, and one GEMM per column span,
batched over the groups, writes the output in place; a 1x1 kernel's slab
is the input itself. The input gradient correlates the output gradient
with the flipped kernel, channels swapped within each group: a gather, with
no scatter or padded gradient. The kernel gradient sums each span's output
gradient times its patches. Only results are full-size.

No GEMM is wider than ``_GEMM_COLS`` = 384 columns, a limit CSConv shares:
this OpenBLAS (0.3.31) gives different bits at 1 and 2 threads for most
widths past 435 tried and for none up to 384, so training gives the same
bits at any BLAS thread count.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, _result
from .errors import ConfigError, ShapeError


def _check_kernel(kernel: Tensor, in_channels: int, groups: int):
    if kernel.data.ndim != 4:
        raise ShapeError("kernel must be (C_out, C_in/groups, K, K)")
    c_out, cpg, kh, kw = kernel.shape
    if kh != kw or kh % 2 == 0:
        raise ConfigError(f"kernel size must be odd and square, got {kh}x{kw}")
    if groups < 1 or in_channels % groups or c_out % groups:
        raise ConfigError(
            f"groups={groups} must divide C_in={in_channels} and C_out={c_out}"
        )
    if cpg != in_channels // groups:
        raise ShapeError(
            f"kernel expects {cpg * groups} input channels, input has {in_channels}"
        )


_GEMM_COLS = 384  # widest GEMM, in pixel columns, whose bits hold at any BLAS thread count
_SLAB_BYTES = 512 * 1024  # a block of output rows is as tall as its patch slab fits in


def _parts(size: int, most: int) -> list[tuple[int, int]]:
    """The fewest near-equal (lo, hi) parts of range(size), none over ``most``, longest first."""
    n = -(-size // most)
    return [(-(-size * i // n), -(-size * (i + 1) // n)) for i in range(n)]


def _slab_spans(a: np.ndarray, k: int, groups: int):
    """(img, cols, src) pieces of the patch matrix of zero-padded ``a``: src
    is the (groups, C/groups*K*K, len) patch columns of the raster slice
    ``cols`` of image ``img``, rows in a kernel's (c, ky, kx) order. One
    buffer is reused per block of rows, so src holds until the next block."""
    a = np.ascontiguousarray(a)
    n, c, h, w = a.shape
    if a.size == 0:
        return
    r = k // 2
    blocks = _parts(h, max(1, _SLAB_BYTES // (a.itemsize * c * k * k * w)))
    if k > 1:
        rows = blocks[0][1]
        padded = np.zeros((c, rows + 2 * r, w + 2 * r), a.dtype)  # a block's rows and halo
        # window (ky, kx) of output pixel (y, x) as (c, ky, kx, y, x): a view
        patches = sliding_window_view(padded, (k, k), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
        buf = np.empty(c * k * k * rows * w, a.dtype)
    for img in range(n):
        for y0, y1 in blocks:
            m = y1 - y0
            if k == 1:  # a 1x1 kernel's patch matrix is the input itself
                slab = a[img].reshape(c, h * w)[:, y0 * w : y1 * w]
            else:
                i0, i1 = max(y0 - r, 0), min(y1 + r, h)  # halo rows past the image are zero
                padded[:, : i0 - y0 + r] = 0.0
                padded[:, i0 - y0 + r : i1 - y0 + r, r : r + w] = a[img, :, i0:i1]
                padded[:, i1 - y0 + r : m + 2 * r] = 0.0
                slab = buf[: c * k * k * m * w].reshape(c * k * k, m * w)
                np.copyto(slab.reshape(c, k, k, m, w), patches[:, :, :, :m])
            src = slab.reshape(groups, -1, m * w)
            for lo, hi in _parts(m * w, _GEMM_COLS):
                yield img, slice(y0 * w + lo, y0 * w + hi), src[:, :, lo:hi]


def _correlate(a: np.ndarray, kernel: np.ndarray, groups: int, bias=None) -> np.ndarray:
    """Zero-padded stride-1 correlation of (N, C, H, W) ``a`` with the
    (C_out, C/groups, K, K) ``kernel``, plus ``bias`` (1, C_out, 1, 1), in
    ``a``'s dtype."""
    n, _, h, w = a.shape
    c_out, _, k, _ = kernel.shape
    wmat = kernel.astype(a.dtype, copy=False).reshape(groups, c_out // groups, -1)
    out = np.empty((n, c_out, h, w), a.dtype)
    dst = out.reshape(n, groups, c_out // groups, h * w)
    for img, cols, src in _slab_spans(a, k, groups):
        np.matmul(wmat, src, out=dst[img, :, :, cols])
    if bias is not None:
        out += bias.astype(a.dtype, copy=False)
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, groups: int = 1) -> Tensor:
    """Stride-1 zero-padded 2-D convolution, optionally grouped."""
    n, c_in, h, w = x.shape
    _check_kernel(kernel, c_in, groups)
    c_out, cpg, k, _ = kernel.shape
    if bias is not None and bias.data.shape != (1, c_out, 1, 1):
        raise ShapeError(f"bias must be (1, {c_out}, 1, 1), got {bias.shape}")
    opg = c_out // groups
    out = _correlate(x.data, kernel.data, groups, None if bias is None else bias.data)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(grad):
        if x.requires_grad:
            # the adjoint: correlate with the flipped kernel, channels swapped per group
            flipped = (kernel.data.reshape(groups, opg, cpg, k, k).transpose(0, 2, 1, 3, 4)
                       .reshape(c_in, opg, k, k)[:, :, ::-1, ::-1])
            x._accumulate(_correlate(grad, flipped, groups))
        if kernel.requires_grad:  # each span's output gradient times its patches, summed
            g_rows = np.ascontiguousarray(grad).reshape(n, groups, opg, h * w)
            gw = np.zeros((groups, opg, cpg * k * k))
            for img, cols, src in _slab_spans(x.data, k, groups):
                gw += g_rows[img, :, :, cols] @ src.transpose(0, 2, 1)
            kernel._accumulate(gw.reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1))

    return _result(out, parents, bw)


# -- activations --------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    def bw(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return _result(np.where(x.data > 0, x.data, 0.0), (x,), bw)


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """out = x for x >= 0 else alpha*x; alpha is per-channel or shared."""
    c = x.shape[1]
    if alpha.data.shape not in ((1, c, 1, 1), (1, 1, 1, 1)):
        raise ShapeError(
            f"alpha must have {c} channels or be shared, got {alpha.shape}"
        )
    out = np.where(x.data < 0, alpha.data.astype(x.data.dtype, copy=False) * x.data, x.data)

    def bw(g):
        neg = x.data < 0
        if x.requires_grad:
            x._accumulate(g * np.where(neg, alpha.data, 1.0))
        if alpha.requires_grad:
            ga = g * np.where(neg, x.data, 0.0)
            if alpha.data.shape == (1, 1, 1, 1):
                ga = ga.sum().reshape(1, 1, 1, 1)
            else:
                ga = ga.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            alpha._accumulate(ga)

    return _result(out, (x, alpha), bw)


# -- resampling ----------------------------------------------------------------


def avg_downsample2x(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_downsample2x needs even extents, got {h}x{w}")
    out = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def bw(g):
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx.reshape(n, c, h // 2, 2, w // 2, 2)[...] = (0.25 * g)[:, :, :, None, :, None]
            x._accumulate(gx)

    return _result(out, (x,), bw)


def _upsample_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Half-pixel-centered 2x along ``axis`` with clamped edges:
    out[2i] = .25 x[i-1] + .75 x[i] and out[2i+1] = .75 x[i] + .25 x[i+1]."""
    shape = list(x.shape)
    shape[axis] *= 2
    out = np.empty(shape, x.dtype)
    xm, om = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    q, t = 0.25 * xm, 0.75 * xm
    np.add(q[:1], t[:1], out=om[:1])
    np.add(q[:-1], t[1:], out=om[2::2])
    np.add(t[:-1], q[1:], out=om[1:-1:2])
    np.add(t[-1:], q[-1:], out=om[-1:])
    return out


def _upsample_axis_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of ``_upsample_axis``. Source i gets ``lo + hi``: ``lo`` sums
    its left-tap terms (outputs 2i+1, 2i+2) and ``hi`` its right-tap terms
    (outputs 2i-1, 2i), each in output order, with the clamped output 0
    first in lo[0] and the clamped last output last in hi[-1]. That is the
    addition order of a sequential scatter-add, so the sums round alike."""
    gm = np.moveaxis(g, axis, 0)
    even, odd = gm[0::2], gm[1::2]
    lo, hi = 0.75 * odd, 0.75 * even
    lo[:1] += 0.25 * even[:1]
    lo[:-1] += 0.25 * even[1:]
    hi[1:] += 0.25 * odd[:-1]
    hi[-1:] += 0.25 * odd[-1:]
    lo += hi
    return np.moveaxis(lo, 0, axis)


def bilinear_upsample2x(x: Tensor) -> Tensor:
    out = _upsample_axis(_upsample_axis(x.data, 2), 3)

    def bw(g):
        if x.requires_grad:
            x._accumulate(_upsample_axis_adjoint(_upsample_axis_adjoint(g, 3), 2))

    return _result(out, (x,), bw)


# -- skip concatenation --------------------------------------------------------


def concat_channels(tensors) -> Tensor:
    tensors = list(tensors)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape[0] != ref[0] or t.shape[2:] != ref[2:]:
            raise ShapeError("concat_channels: batch/spatial extents must match")
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]
    out = np.concatenate([t.data for t in tensors], axis=1)

    def bw(g):
        for t, gp in zip(tensors, np.split(g, splits, axis=1)):
            if t.requires_grad:
                t._accumulate(gp)

    return _result(out, tuple(tensors), bw)


# -- loss -----------------------------------------------------------------------


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference; subgradient at ties is 0."""
    if a.shape != b.shape:
        raise ShapeError(f"l1_loss: shape mismatch {a.shape} vs {b.shape}")

    def bw(g):
        s = g.reshape(-1)[0] * np.sign(a.data - b.data) / a.data.size
        if a.requires_grad:
            a._accumulate(s)
        if b.requires_grad:
            b._accumulate(-s)

    return _result(np.full((1, 1, 1, 1), np.abs(a.data - b.data).mean()), (a, b), bw)
