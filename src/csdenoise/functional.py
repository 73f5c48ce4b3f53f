"""Differentiable layers: grouped conv, PReLU/ReLU, 2x resampling, L1 loss.

Convolutions are stride-1 with zero padding of K//2, so spatial extents
are preserved. All kernels are (C_out, C_in/groups, K, K) with odd K.

``conv2d`` runs one GEMM per kernel tap and group and adds the products
(the accumulating "kn2row" scheme of Anderson et al., 2017). The input is
zero-padded once to rows of Wp = W+2r, r = K//2, plus one spare bottom row
that keeps the last tap in range, and flattened: tap (i, j) of the output
at y*Wp + x then reads the contiguous slice at offset i*Wp + j. The 2r junk
columns of each output row are dropped; backward pads the output gradient
with zero junk columns, which makes the same slices its exact adjoint. No
K*K-sized patch matrix is built, and backward keeps no padded copy: it pads
its parent's data again when it runs, which costs one copy of the input.
"""

from __future__ import annotations

import numpy as np

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


def _pad_flat(x: np.ndarray, r: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, (H+2r+1)*(W+2r)), zero-padded and flattened;
    with r = 0 no tap reaches past the image, so no spare row is added."""
    n, c, h, w = x.shape
    if r == 0:
        return x.reshape(n, c, h * w)
    xp = np.zeros((n, c, h + 2 * r + 1, w + 2 * r))
    xp[:, :, r : r + h, r : r + w] = x
    return xp.reshape(n, c, -1)


def _tap_weights(kernel: np.ndarray) -> np.ndarray:
    """(K*K, C_out, C_in/g): one contiguous matrix per tap, so matmul can hand it to BLAS."""
    c_out, cpg, k, _ = kernel.shape
    return np.ascontiguousarray(kernel.transpose(2, 3, 0, 1)).reshape(k * k, c_out, cpg)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, groups: int = 1) -> Tensor:
    """Stride-1 zero-padded 2-D convolution, optionally grouped."""
    n, c_in, h, w = x.shape
    _check_kernel(kernel, c_in, groups)
    c_out, cpg, k, _ = kernel.shape
    if bias is not None and bias.data.shape != (1, c_out, 1, 1):
        raise ShapeError(f"bias must be (1, {c_out}, 1, 1), got {bias.shape}")
    opg = c_out // groups
    r = k // 2
    wp = w + 2 * r
    span = h * wp  # output pixels per image, junk columns included
    taps = [i * wp + j for i in range(k) for j in range(k)]
    groups_io = [(slice(g * opg, (g + 1) * opg), slice(g * cpg, (g + 1) * cpg))
                 for g in range(groups)]
    xf, wt = _pad_flat(x.data, r), _tap_weights(kernel.data)

    acc = np.empty((n, c_out, span))
    tmp = np.empty((n, opg, span))
    for o, i in groups_io:
        for t, off in enumerate(taps):
            np.matmul(wt[t, o], xf[:, i, off : off + span], out=tmp if t else acc[:, o])
            if t:
                acc[:, o] += tmp
    del xf, tmp  # backward pads x.data again; the output copy below is the peak
    out = acc.reshape(n, c_out, h, wp)[..., :w]
    out = np.ascontiguousarray(out) if bias is None else out + bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(grad):
        # zero junk columns make every tap product below the exact adjoint
        go = np.pad(grad, ((0, 0), (0, 0), (0, 0), (0, 2 * r))).reshape(n, c_out, span)
        xf, wt = _pad_flat(x.data, r), _tap_weights(kernel.data)
        gx = np.zeros_like(xf) if x.requires_grad else None
        gw = np.empty_like(wt) if kernel.requires_grad else None
        tmp = np.empty((n, cpg, span)) if x.requires_grad else None
        for o, i in groups_io:
            for t, off in enumerate(taps):
                xs = xf[:, i, off : off + span]
                if gw is not None:
                    gw[t, o] = (go[:, o] @ xs.transpose(0, 2, 1)).sum(axis=0)
                if gx is not None:
                    np.matmul(wt[t, o].T, go[:, o], out=tmp)
                    gx[:, i, off : off + span] += tmp
        if gx is not None:
            x._accumulate(gx.reshape(n, c_in, -1, wp)[:, :, r : r + h, r : r + w])
        if gw is not None:
            kernel._accumulate(gw.reshape(k, k, c_out, cpg).transpose(2, 3, 0, 1))
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
    out = np.where(x.data < 0, alpha.data * x.data, x.data)

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
    out = np.empty(shape)
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


# -- shape plumbing -------------------------------------------------------------


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


def reflect_pad2d(x: Tensor, pad_h: int, pad_w: int) -> Tensor:
    """Reflect-pad the bottom/right edges (whole-sample reflection)."""
    n, c, h, w = x.shape
    if pad_h >= h or pad_w >= w:
        raise ShapeError(f"reflect pad ({pad_h},{pad_w}) too large for {h}x{w}")
    out = np.pad(x.data, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="reflect")

    def bw(g):
        if x.requires_grad:
            # pad < size: each reflected sample lands on a distinct source
            gx = g[:, :, :, :w].copy()
            gx[:, :, :, w - 1 - pad_w : w - 1] += g[:, :, :, : w - 1 : -1]
            gh = gx[:, :, :h].copy()
            gh[:, :, h - 1 - pad_h : h - 1] += gx[:, :, : h - 1 : -1]
            x._accumulate(gh)

    return _result(out, (x,), bw)


def crop2d(x: Tensor, height: int, width: int) -> Tensor:
    """Keep the top-left height x width window."""
    n, c, h, w = x.shape
    if height > h or width > w:
        raise ShapeError(f"crop {height}x{width} exceeds input {h}x{w}")

    def bw(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, :, :height, :width] = g
            x._accumulate(gx)

    return _result(x.data[:, :, :height, :width].copy(), (x,), bw)


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
