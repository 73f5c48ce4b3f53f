"""Differentiable layers: grouped conv, PReLU/ReLU, 2x resampling, L1 loss.

Convolutions are stride-1 with zero padding of K//2, so spatial extents
are preserved. All kernels are (C_out, C_in/groups, K, K) with odd K.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _result
from .errors import ConfigError, ShapeError

# -- im2col machinery --------------------------------------------------------


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, K*K, H*W) patch matrix under zero padding."""
    n, c, h, w = x.shape
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    cols = np.empty((n, c, k, k, h, w))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + h, j : j + w]
    return cols.reshape(n, c, k * k, h * w)


def _col2im(gcols: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    """Adjoint of ``_im2col``: (N, C, K*K, H*W) -> (N, C, H, W)."""
    n, c = gcols.shape[:2]
    r = k // 2
    gxp = np.zeros((n, c, h + 2 * r, w + 2 * r))
    gc = gcols.reshape(n, c, k, k, h, w)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + h, j : j + w] += gc[:, :, i, j]
    return gxp[:, :, r : r + h, r : r + w]


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


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, groups: int = 1) -> Tensor:
    """Stride-1 zero-padded 2-D convolution, optionally grouped."""
    n, c_in, h, w = x.shape
    _check_kernel(kernel, c_in, groups)
    c_out, cpg, k, _ = kernel.shape
    opg = c_out // groups
    kk = k * k

    cols = _im2col(x.data, k)  # (N, C_in, KK, HW)
    out = np.empty((n, c_out, h * w))
    for g in range(groups):
        wg = kernel.data[g * opg : (g + 1) * opg].reshape(opg, cpg * kk)
        colg = cols[:, g * cpg : (g + 1) * cpg].reshape(n, cpg * kk, h * w)
        out[:, g * opg : (g + 1) * opg] = wg @ colg
    out = out.reshape(n, c_out, h, w)
    if bias is not None:
        if bias.data.shape != (1, c_out, 1, 1):
            raise ShapeError(f"bias must be (1, {c_out}, 1, 1), got {bias.shape}")
        out = out + bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(grad):
        go = grad.reshape(n, c_out, h * w)
        if x.requires_grad:
            gcols = np.empty_like(cols)
        for g in range(groups):
            wg = kernel.data[g * opg : (g + 1) * opg].reshape(opg, cpg * kk)
            go_g = go[:, g * opg : (g + 1) * opg]
            colg = cols[:, g * cpg : (g + 1) * cpg].reshape(n, cpg * kk, h * w)
            if kernel.requires_grad:
                gw = (go_g @ colg.transpose(0, 2, 1)).sum(axis=0)
                if kernel.grad is None:
                    kernel.grad = np.zeros_like(kernel.data)
                kernel.grad[g * opg : (g + 1) * opg] += gw.reshape(opg, cpg, k, k)
            if x.requires_grad:
                gcols[:, g * cpg : (g + 1) * cpg] = (wg.T @ go_g).reshape(
                    n, cpg, kk, h * w
                )
        if x.requires_grad:
            x._accumulate(_col2im(gcols, k, h, w))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1))

    return _result(out, parents, bw)


# -- activations --------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _result(np.where(mask, x.data, 0.0), (x,), bw)


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """out = x for x >= 0 else alpha*x; alpha is per-channel or shared."""
    c = x.shape[1]
    if alpha.data.shape not in ((1, c, 1, 1), (1, 1, 1, 1)):
        raise ShapeError(
            f"alpha must have {c} channels or be shared, got {alpha.shape}"
        )
    neg = x.data < 0
    out = np.where(neg, alpha.data * x.data, x.data)

    def bw(g):
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
            x._accumulate(np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)

    return _result(out, (x,), bw)


def _upsample_indices(length: int):
    """Half-pixel-centered 2x sample positions with edge clamping."""
    src = (np.arange(2 * length) + 0.5) / 2.0 - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    lo = np.clip(i0, 0, length - 1)
    hi = np.clip(i0 + 1, 0, length - 1)
    return lo, hi, frac


def _scatter_axis(g: np.ndarray, idx: np.ndarray, length: int, axis: int) -> np.ndarray:
    gm = np.moveaxis(g, axis, 0)
    out = np.zeros((length,) + gm.shape[1:])
    np.add.at(out, idx, gm)
    return np.moveaxis(out, 0, axis)


def bilinear_upsample2x(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    hlo, hhi, hf = _upsample_indices(h)
    wlo, whi, wf = _upsample_indices(w)
    hf_col = hf.reshape(1, 1, -1, 1)
    wf_row = wf.reshape(1, 1, 1, -1)

    rows = (1.0 - hf_col) * x.data[:, :, hlo, :] + hf_col * x.data[:, :, hhi, :]
    out = (1.0 - wf_row) * rows[:, :, :, wlo] + wf_row * rows[:, :, :, whi]

    def bw(g):
        if not x.requires_grad:
            return
        grows = _scatter_axis((1.0 - wf_row) * g, wlo, w, 3)
        grows += _scatter_axis(wf_row * g, whi, w, 3)
        gx = _scatter_axis((1.0 - hf_col) * grows, hlo, h, 2)
        gx += _scatter_axis(hf_col * grows, hhi, h, 2)
        x._accumulate(gx)

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


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"channel slice [{start}:{stop}] out of {x.shape[1]}")

    def bw(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, start:stop] = g
            x._accumulate(gx)

    return _result(x.data[:, start:stop].copy(), (x,), bw)


def reflect_pad2d(x: Tensor, pad_h: int, pad_w: int) -> Tensor:
    """Reflect-pad the bottom/right edges (whole-sample reflection)."""
    n, c, h, w = x.shape
    if pad_h >= h or pad_w >= w:
        raise ShapeError(f"reflect pad ({pad_h},{pad_w}) too large for {h}x{w}")
    idx_h = np.pad(np.arange(h), (0, pad_h), mode="reflect")
    idx_w = np.pad(np.arange(w), (0, pad_w), mode="reflect")
    out = x.data[:, :, idx_h, :][:, :, :, idx_w]

    def bw(g):
        if x.requires_grad:
            gx = _scatter_axis(g, idx_w, w, 3)
            x._accumulate(_scatter_axis(gx, idx_h, h, 2))

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
    diff = a.data - b.data
    n = diff.size

    def bw(g):
        s = g.reshape(-1)[0] * np.sign(diff) / n
        if a.requires_grad:
            a._accumulate(s)
        if b.requires_grad:
            b._accumulate(-s)

    return _result(np.full((1, 1, 1, 1), np.abs(diff).mean()), (a, b), bw)
