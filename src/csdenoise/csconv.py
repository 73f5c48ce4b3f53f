"""Class-specific convolution (CSConv): per-pixel kernel selection from a filter bank.

Each output pixel is convolved with the kernel stack of its class index
(1..M): a mixture of experts with hard per-pixel routing, dispatched as in
MegaBlocks and Switch Transformer. A layer takes its classes only as a
``DispatchPlan``: it validates the class map, sorts the pixels by class once
(a stable argsort of the N*H*W map) into one contiguous segment per class
present, and splits each sorted pixel into its image and its offset there.
The networks build one plan per forward and hand it to every CSConv layer,
since all of them share the class map.

A layer pads its input once, pixel-major, and views it as one row of C values
per padded pixel, so a pixel's patch is the K*K whole rows at its corner row
plus fixed tap offsets. The padded rows start on a 64-byte cache line, so a
row of 16 float32 values is one line, not two. The layer's M weight stacks
are reordered to match, with the K*K*C patch entries in (tap, channel) order:
forward multiplies by a contiguous (M, K*K*C, C_out) copy, a plain (NN)
product, and backward works with (M, C_out, K*K*C). Forward and backward
walk the segments alike (``_patch_chunks``), in chunks of ``_CHUNK`` sorted
pixels: ``np.take`` gathers a chunk's patches into a small reused buffer. In
forward one GEMM turns them into output rows, each written whole to its
raster row of an (N*H*W, C_out) staging array. Once the padded rows are
dropped, one transposition fills the NCHW output. As in
``functional``, a forward computes in its input's dtype, the bank cast on use.

Data thus moves between NCHW and pixel-major rows once per layer each way,
band by band over image rows (``_bands``): a band's pixel rows fit in cache,
so neither side of the transposition is read from memory at a stride of H*W.

No K*K-sized patch matrix is kept for backward, nor a padded copy: backward
holds only the input tensor, the layer and the shared plan, pads the input
again and regathers each chunk's patches, the trade gradient checkpointing
makes (Chen et al., 2016). It reads the output gradient into pixel rows
through the same banded transposition. Per chunk it adds ``g.T @ patches``
to the weight gradient and scatter-adds ``g @ W`` into a padded input
gradient, one tap at a time, since no two pixels of a tap share a row. Sums
run in class-sorted order, which is deterministic for a given map.

A residual block's PReLU and skip add run inside the op: the PReLU acts on
each band of padded rows as it is built, as the branch-free ``max(x, 0) +
alpha * min(x, 0)`` that ``F.prelu`` computes too (``np.where`` on a random
sign mask costs about three times as much), the skip is added as the output
is transposed, and backward activates the rows it rebuilds again, so the
graph keeps neither the activation nor the CSConv output (as In-Place ABN
does, Rota Bulò et al., 2018). The PReLU's gradients come from the helper
behind ``F.prelu``'s own backward.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _result
from .errors import ConfigError, ContractError, DispatchError, ShapeError
from .functional import _GEMM_COLS, _SLAB_BYTES, _parts, _prelu_backward
from .modules import Module, kaiming_uniform


class DispatchPlan:
    """The pixels of a batch of (N, H, W) class maps, sorted by class: the
    one class-map form a CSConv layer takes.

    ``classes`` is an (H, W) map, broadcast to every image, or an (N, H, W)
    batch of maps, of integer class indices in 1..``num_classes``.
    ``indices`` is the validated (N, H, W) class map. ``order`` lists the
    flat (n, y, x) pixel indices class by class, in raster order within each
    class (a stable sort), and ``image`` and ``pixel`` split each entry into
    its image and its y*W + x offset in that image. ``segments`` holds one
    ``(class, start, stop)`` range of ``order`` per class present.
    """

    def __init__(self, classes, n: int, h: int, w: int, num_classes: int):
        if n * h * w == 0:
            empty = ", ".join(f"{a}=0" for a, v in zip("NHW", (n, h, w)) if v == 0)
            raise ShapeError(f"no pixels to dispatch: the feature has {empty}")
        idx = np.asarray(classes)
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
        self.indices = idx
        # the narrowest dtype lets the stable sort run as a radix sort
        flat = idx.reshape(-1).astype(np.min_scalar_type(num_classes))
        self.order = np.argsort(flat, kind="stable")
        self.image, self.pixel = np.divmod(self.order, h * w)
        stops = np.cumsum(np.bincount(flat, minlength=num_classes + 1))
        self.segments = [
            (i, int(stops[i - 1]), int(stops[i]))
            for i in range(1, num_classes + 1) if stops[i] > stops[i - 1]
        ]


# Pixels per gather-and-GEMM step: a (chunk, K*K, C) patch block stays in cache,
# and no GEMM is wider than bits hold at any BLAS thread count (see ``functional``).
_CHUNK = _GEMM_COLS


def _bands(shape, itemsize: int = 8):
    """(image, row slice) bands of an (N, C, H, W) array of ``itemsize``-byte
    values, each band's (rows, W, C) block at most ``_SLAB_BYTES``, so a
    transposition to or from pixel-major rows reads and writes within cache."""
    n, c, h, w = shape
    for y0, y1 in _parts(h, max(1, _SLAB_BYTES // (itemsize * w * c))):
        for i in range(n):
            yield i, slice(y0, y1)


def _to_pixels(a: np.ndarray, dst: np.ndarray, alpha=None):
    """Copy (N, C, H, W) ``a`` into (N, H, W, C) ``dst`` band by band; with PReLU
    slopes ``alpha`` the copy holds ``F.prelu(a, alpha)``.

    The PReLU is ``F.prelu``'s ``max(x, 0) + alpha * min(x, 0)``, so the two
    agree in every bit; its negative part is built in one band-sized scratch
    buffer."""
    # broadcast on the channel axis, in a's dtype
    slopes = None if alpha is None else alpha.reshape(-1).astype(a.dtype, copy=False)
    scratch = None
    for i, ys in _bands(a.shape, a.itemsize):
        v = dst[i, ys]
        v[...] = a[i, :, ys].transpose(1, 2, 0)
        if slopes is not None:
            if scratch is None:  # the first band is the largest
                scratch = np.empty(v.size, a.dtype)
            neg = np.minimum(v, 0, out=scratch[: v.size].reshape(v.shape))
            neg *= slopes
            np.maximum(v, 0, out=v)
            v += neg


def _to_channels(rows: np.ndarray, out: np.ndarray, skip=None):
    """Fill (N, C, H, W) ``out`` from its pixel-major (N*H*W, C) ``rows`` band by
    band, plus ``skip`` when given."""
    n, c, h, w = out.shape
    src = rows.reshape(n, h, w, c)
    for i, ys in _bands(out.shape, out.itemsize):
        v = src[i, ys].transpose(2, 0, 1)
        if skip is None:
            out[i, :, ys] = v
        else:
            np.add(v, skip[i, :, ys], out=out[i, :, ys])


def _zeros_aligned(shape, dtype) -> np.ndarray:
    """``np.zeros(shape, dtype)`` starting on a 64-byte cache line
    (``np.zeros`` itself returns addresses 16 past one)."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    buf = np.zeros(nbytes + 64, np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start : start + nbytes].view(dtype).reshape(shape)


def _patch_source(x: np.ndarray, plan: DispatchPlan, k: int, alpha=None):
    """What the patch gathers read: the zero-padded input as one row of C
    values per padded pixel, the top-left patch row of each of ``plan``'s
    sorted pixels, and the K*K row offsets of the taps in (ky, kx) order.
    With PReLU slopes ``alpha`` the rows hold ``F.prelu(x, alpha)``."""
    n, c, h, w = x.shape
    r = k // 2
    wp = w + 2 * r
    xp = _zeros_aligned((n, h + 2 * r, wp, c), x.dtype)
    _to_pixels(x, xp[:, r : r + h, r : r + w], alpha)
    corner = (plan.image * (h + 2 * r) + plan.pixel // w) * wp + plan.pixel % w
    return xp.reshape(-1, c), corner, (np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)


def _patch_chunks(plan: DispatchPlan, rows, corner, taps):
    """Runs of at most ``_CHUNK`` sorted pixels, segment by segment, as
    ``(class, lo, hi, idx, patches)``: ``idx`` holds the (hi - lo, K*K) padded
    rows the run's patches read, and ``patches`` the (hi - lo, K*K*C) patches
    gathered from ``rows``, in one buffer that every run reuses."""
    block = np.empty((min(_CHUNK, corner.size), taps.size, rows.shape[1]), rows.dtype)
    for i, start, stop in plan.segments:
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            idx = corner[lo:hi, None] + taps
            # indices are in range by construction; "clip" lets take write to out unbuffered
            patches = np.take(rows, idx, axis=0, out=block[: hi - lo], mode="clip")
            yield i, lo, hi, idx, patches.reshape(hi - lo, -1)


def _bank_matrix(layer: CsConv2d, dtype) -> np.ndarray:
    """(M, C_out, K*K*C) weights in ``dtype``, columns in a patch's (tap, channel) order."""
    m, c_out, c, k = layer.num_classes, layer.out_channels, layer.in_channels, layer.kernel_size
    stacks = layer.kernels.data.astype(dtype, copy=False).reshape(m, c_out, c, k * k)
    return stacks.transpose(0, 1, 3, 2).reshape(m, c_out, -1)


def _backward(grad_out, x, plan, layer, need_input_grad, alpha=None):
    """(grad of the convolved rows, grad_kernels, grad_biases) for input ``x``,
    padding (and activating) it again and regathering each chunk's patches."""
    n, c_out, h, w = grad_out.shape
    m, c, k = layer.num_classes, layer.in_channels, layer.kernel_size
    rows, corner, taps = _patch_source(x, plan, k, alpha)
    go_rows = np.empty((n * h * w, c_out))
    _to_pixels(grad_out, go_rows.reshape(n, h, w, c_out))
    wmat = _bank_matrix(layer, x.dtype)
    gkmat = np.zeros_like(wmat)
    gb = np.zeros((m, c_out))
    gxp = np.zeros_like(rows) if need_input_grad else None
    gblock = np.empty((min(_CHUNK, corner.size), taps.size, c))
    acc = np.empty((len(gblock), c))

    for i, lo, hi, idx, patches in _patch_chunks(plan, rows, corner, taps):
        g = go_rows[plan.order[lo:hi]]
        gkmat[i - 1] += g.T @ patches
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


def csconv_forward(q: Tensor, plan: DispatchPlan, layer: CsConv2d,
                   alpha: Tensor | None = None, skip: Tensor | None = None) -> Tensor:
    """Differentiable convolution with per-pixel kernel selection.

    Chooses the kernel and bias of each pixel's class in ``plan``, a
    ``DispatchPlan`` of ``q``'s (N, H, W) extents, from ``layer``'s M stacks
    at every output location; zero padding keeps spatial extents. Kernels
    and biases of classes absent from the plan get exactly zero gradient.

    With ``alpha`` and ``skip`` it equals, bit for bit, ``skip +
    csconv_forward(F.prelu(q, alpha), plan, layer)`` while keeping neither
    the activation nor the convolution: backward activates ``q`` again.
    """
    n, c_in, h, w = q.shape
    c_out = layer.out_channels
    if c_in != layer.in_channels:
        raise ShapeError(f"input has {c_in} channels, layer expects {layer.in_channels}")
    if alpha is not None and alpha.shape not in ((1, c_in, 1, 1), (1, 1, 1, 1)):
        raise ShapeError(f"alpha must have {c_in} channels or be shared, got {alpha.shape}")
    if skip is not None and skip.shape != (n, c_out, h, w):
        raise ShapeError(f"skip {skip.shape} does not match output {(n, c_out, h, w)}")
    if not isinstance(plan, DispatchPlan):
        raise ContractError(f"CSConv dispatches on a DispatchPlan, got {type(plan).__name__}")
    if plan.indices.shape != (n, h, w):
        raise ShapeError(f"dispatch plan {plan.indices.shape} does not match ({n},{h},{w})")
    if plan.segments[-1][0] > layer.num_classes:
        raise DispatchError(
            f"dispatch plan holds class {plan.segments[-1][0]}, "
            f"outside the bank's 1..{layer.num_classes}"
        )

    # output rows in raster order. Staged before the padded rows are built, so
    # the output takes the padded rows' freed memory: allocated the other way
    # round, glibc malloc hands each layer's memory back to the OS and faults
    # it in again (12.2k against 3.6k minor faults per 256x256 CS-EDSR forward)
    dtype = q.data.dtype  # every buffer and the cast weights follow the input
    stage = np.empty((n * h * w, c_out), dtype)
    rows, corner, taps = _patch_source(q.data, plan, layer.kernel_size,
                                       None if alpha is None else alpha.data)
    # (M, K*K*C, C_out), contiguous: a chunk's product is NN, not NT, which for
    # chunks of a few hundred rows is the faster OpenBLAS kernel
    wmat = np.ascontiguousarray(_bank_matrix(layer, dtype).transpose(0, 2, 1))
    bmat = layer.biases.data.astype(dtype, copy=False).reshape(layer.num_classes, c_out)
    res = np.empty((min(_CHUNK, corner.size), c_out), dtype)
    for i, lo, hi, _, patches in _patch_chunks(plan, rows, corner, taps):
        y = res[: hi - lo]
        np.matmul(patches, wmat[i - 1], out=y)
        y += bmat[i - 1]
        stage[plan.order[lo:hi]] = y
    del rows
    out = np.empty((n, c_out, h, w), dtype)
    _to_channels(stage, out, None if skip is None else skip.data)

    def bw(grad):
        need_rows = q.requires_grad or (alpha is not None and alpha.requires_grad)
        gq, gk, gb = _backward(grad, q.data, plan, layer, need_rows,
                               None if alpha is None else alpha.data)
        if skip is not None and skip.requires_grad:
            skip._accumulate(grad)
        if alpha is not None:
            _prelu_backward(gq, q, alpha)
        elif q.requires_grad:
            q._accumulate(gq)
        if layer.kernels.requires_grad:
            layer.kernels._accumulate(gk)
        if layer.biases.requires_grad:
            layer.biases._accumulate(gb)

    parents = (q, layer.kernels, layer.biases, alpha, skip)
    return _result(out, tuple(p for p in parents if p is not None), bw)


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

    def forward(self, x: Tensor, plan: DispatchPlan, alpha=None, skip=None) -> Tensor:
        return csconv_forward(x, plan, self, alpha=alpha, skip=skip)

    def flops_per_pixel(self) -> float:
        # counted like the plain conv it replaces; class lookup is free
        k = self.kernel_size
        return 2.0 * k * k * self.in_channels * self.out_channels
