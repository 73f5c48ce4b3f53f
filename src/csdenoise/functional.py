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
is the input itself, and on one channel per group its product is an outer
product, done as a broadcast multiply with the GEMMs' bits. The backward
walks the output gradient's slab once, and no slab of the input: the input
gradient correlates it with the flipped kernel, channels swapped within
each group, and the kernel gradient sums the input's raster rows times each
span's patches, its taps flipped back. Only results are full-size.

No GEMM is wider than ``_GEMM_COLS`` = 384 columns, a limit CSConv shares:
this OpenBLAS (0.3.31) gives different bits at 1 and 2 threads for most
widths past 435 tried and for none up to 384, so training gives the same
bits at any BLAS thread count.
"""

from __future__ import annotations

import math

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


def _correlate(a: np.ndarray, kernel: np.ndarray, groups: int, bias=None, out=True, rows=None):
    """Zero-padded stride-1 correlation of (N, C, H, W) ``a`` with the
    (C_out, C/groups, K, K) ``kernel``, plus ``bias`` (1, C_out, 1, 1), in
    ``a``'s dtype, or None if not ``out``; and, from the same walk, the
    (groups, R, C/groups*K*K) sum of the (N, groups, R, H*W) raster ``rows``
    times ``a``'s patches, or None without ``rows``."""
    n, _, h, w = a.shape
    c_out, _, k, _ = kernel.shape
    wmat = kernel.astype(a.dtype, copy=False).reshape(groups, c_out // groups, -1)
    res = np.empty((n, c_out, h, w), a.dtype) if out else None
    dst = res.reshape(n, groups, c_out // groups, h * w) if out else None
    gemm = out and wmat.shape[2] > 1
    if out and not gemm:  # a 1x1 kernel on one channel per group: an outer product
        np.multiply(a.reshape(n, groups, 1, h * w), wmat, out=dst)
    acc = None if rows is None else np.zeros((groups, rows.shape[2], wmat.shape[2]), a.dtype)
    for img, cols, src in _slab_spans(a, k, groups) if gemm or acc is not None else ():
        if gemm:
            np.matmul(wmat, src, out=dst[img, :, :, cols])
        if acc is not None:
            acc += rows[img, :, :, cols] @ src.transpose(0, 2, 1)
    if bias is not None:
        res += bias.astype(a.dtype, copy=False)
    return res, acc


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, groups: int = 1) -> Tensor:
    """Stride-1 zero-padded 2-D convolution, optionally grouped."""
    n, c_in, h, w = x.shape
    _check_kernel(kernel, c_in, groups)
    c_out, cpg, k, _ = kernel.shape
    if bias is not None and bias.data.shape != (1, c_out, 1, 1):
        raise ShapeError(f"bias must be (1, {c_out}, 1, 1), got {bias.shape}")
    opg = c_out // groups
    out, _ = _correlate(x.data, kernel.data, groups, None if bias is None else bias.data)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(grad):
        # one walk over the output gradient's patches: the input gradient
        # correlates them with the flipped kernel, channels swapped per group,
        # and the kernel gradient sums the input's rows times them
        flipped = (kernel.data.reshape(groups, opg, cpg, k, k).transpose(0, 2, 1, 3, 4)
                   .reshape(c_in, opg, k, k)[:, :, ::-1, ::-1])
        rows = x.data.reshape(n, groups, cpg, h * w) if kernel.requires_grad else None
        gx, gw = _correlate(grad, flipped, groups, out=x.requires_grad, rows=rows)
        if x.requires_grad:
            x._accumulate(gx)
        if kernel.requires_grad:  # kernel[o, c, ky, kx]'s gradient is gw[c, (o, K-1-ky, K-1-kx)]
            kernel._accumulate(gw.reshape(groups, cpg, opg, k, k)[..., ::-1, ::-1]
                               .transpose(0, 2, 1, 3, 4).reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1))

    return _result(out, parents, bw)


# -- activations --------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    def bw(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return _result(np.fmax(x.data, 0.0), (x,), bw)  # NaN and -0 give +0, as x > 0 does


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """out = x for x >= 0 else alpha*x; alpha is per-channel or shared."""
    c = x.shape[1]
    if alpha.data.shape not in ((1, c, 1, 1), (1, 1, 1, 1)):
        raise ShapeError(
            f"alpha must have {c} channels or be shared, got {alpha.shape}"
        )
    # CSConv's fused PReLU fills the same max(x, 0) + alpha * min(x, 0), so the
    # two agree in every bit, signed zeros included
    out = np.maximum(x.data, 0)
    neg = np.minimum(x.data, 0)
    neg *= alpha.data.astype(x.data.dtype, copy=False)
    out += neg
    return _result(out, (x, alpha), lambda g: _prelu_backward(g, x, alpha))


def _prelu_backward(g: np.ndarray, x: Tensor, alpha: Tensor):
    """Accumulate into ``x`` and ``alpha`` the gradients of ``prelu(x, alpha)``
    for the output gradient ``g``; CSConv's fused PReLU calls it too."""
    neg = x.data < 0
    if x.requires_grad:
        x._accumulate(g * np.where(neg, alpha.data, 1.0))
    if alpha.requires_grad:
        ga = g * np.where(neg, x.data, 0.0)
        ga = ga.sum(axis=(0, 2, 3) if alpha.data.size > 1 else None)
        alpha._accumulate(ga.reshape(alpha.data.shape))


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
    out[2i] = .25 x[i-1] + .75 x[i] and out[2i+1] = .75 x[i] + .25 x[i+1].

    Works on (rows, trailing) views, a row being one index along ``axis``:
    each sum runs over all rows at once, shifted by one, and the rows at a
    block's edges, which took a neighbour from the next block, are redone
    clamped. Along the last axis each sum is one long loop."""
    n = x.shape[axis]
    shape = list(x.shape)
    shape[axis] *= 2
    out = np.empty(shape, x.dtype)
    if out.size == 0:
        return out
    rows = x.reshape(-1, math.prod(shape[axis + 1 :]))
    pairs = out.reshape(len(rows), 2, -1)  # (source row, even/odd output, trailing)
    even, odd = pairs[:, 0], pairs[:, 1]
    q, t = 0.25 * rows, 0.75 * rows
    np.add(q[:-1], t[1:], out=even[1:])
    np.add(t[:-1], q[1:], out=odd[:-1])
    np.add(q[::n], t[::n], out=even[::n])
    np.add(t[n - 1 :: n], q[n - 1 :: n], out=odd[n - 1 :: n])
    return out


def _upsample_axis_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of ``_upsample_axis``. Source i gets ``lo + hi``: ``lo`` sums
    its left-tap terms (outputs 2i+1, 2i+2) and ``hi`` its right-tap terms
    (outputs 2i-1, 2i), each in output order, with the clamped output 0
    first in lo[0] and the clamped last output last in hi[-1]. That is the
    addition order of a sequential scatter-add, so the sums round alike.
    The shifted adds run over all rows at once, as in ``_upsample_axis``;
    a block's edge rows are put back to what they held before them."""
    n = g.shape[axis] // 2
    shape = list(g.shape)
    shape[axis] = n
    if g.size == 0:
        return np.zeros(shape, g.dtype)
    pairs = g.reshape(-1, 2, math.prod(shape[axis + 1 :]))
    even, odd = pairs[:, 0], pairs[:, 1]
    lo, hi = 0.75 * odd, 0.75 * even
    lo[::n] += 0.25 * even[::n]
    last = lo[n - 1 :: n].copy()
    lo[:-1] += 0.25 * even[1:]
    lo[n - 1 :: n] = last
    first = hi[::n].copy()
    hi[1:] += 0.25 * odd[:-1]
    hi[::n] = first
    hi[n - 1 :: n] += 0.25 * odd[n - 1 :: n]
    lo += hi
    return lo.reshape(shape)


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
