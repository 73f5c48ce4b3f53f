"""Class-specific convolution (CSConv): per-pixel kernel selection from a filter bank.

Each output pixel is convolved with the kernel stack of its class index
(1..M): a mixture of experts with hard per-pixel routing, dispatched as in
MegaBlocks and Switch Transformer. A ``DispatchPlan`` sorts the pixels by
class once (a stable argsort of the N*H*W class map) into one contiguous
segment per class present. Each layer gathers every pixel's patch row
straight into that sorted order, runs one GEMM per segment (a weight- and
an input-gradient GEMM in the backward pass) and scatters the output rows
back to raster order once.

All CSConv layers of a network forward share one class map, so the networks
build the plan once per forward and hand it to every layer rather than have
each layer sort again. The stable sort keeps raster order within a class, so
each GEMM sees the rows a per-class gather would, in the same order, and its
results are the same to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _records_graph, _result
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

    def class_kernel(self, index: int) -> np.ndarray:
        """Weights of class ``index`` (1-based) as (C_out, C_in, K, K)."""
        c = self.out_channels
        return self.kernels.data[(index - 1) * c : index * c]

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
        self.largest_segment = max((stop - start for _, start, stop in self.segments), default=0)


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


# Rows gathered per np.take call: keeps the index block small and in cache.
_GATHER_ROWS = 2048


def _segment_matmuls(x: np.ndarray, plan: DispatchPlan, bank: FilterBank, keep_cols: bool):
    """Class-sorted output rows (N*H*W, C_out), and the patch matrix if kept.

    A patch row is one pixel's zero-padded K x K receptive field, columns in
    the kernel's (C, K, K) order. Each segment's rows are gathered straight
    from a pixel-major padded copy of ``x`` and multiplied by the class's
    kernel while still in cache. With ``keep_cols`` the rows fill one
    (N*H*W, C*K*K) matrix in plan order, for the backward pass; otherwise
    one buffer the size of the largest segment is reused.
    """
    n, c, h, w = x.shape
    k = bank.kernel_size
    c_out = bank.out_channels
    r = k // 2
    wp = w + 2 * r
    xp = np.zeros((n, h + 2 * r, wp, c))
    xp[:, r : r + h, r : r + w] = x.transpose(0, 2, 3, 1)
    xp = xp.reshape(-1)
    taps = (np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)
    offsets = (np.arange(c)[:, None] + taps * c).reshape(-1)
    img, pix = np.divmod(plan.order, h * w)
    rows = ((img * (h + 2 * r) + pix // w) * wp + pix % w) * c  # patch corner in xp
    wmat = bank.kernels.data.reshape(bank.num_classes, c_out, -1)
    bias = None if bank.biases is None else bank.biases.data.reshape(bank.num_classes, c_out)

    cols = np.empty((rows.size if keep_cols else plan.largest_segment, c * k * k))
    out = np.empty((rows.size, c_out))
    for i, start, stop in plan.segments:
        block = cols[start:stop] if keep_cols else cols[: stop - start]
        for lo in range(start, stop, _GATHER_ROWS):
            hi = min(lo + _GATHER_ROWS, stop)
            # indices are in range by construction; "clip" lets take write to out unbuffered
            np.take(xp, rows[lo:hi, None] + offsets, out=block[lo - start : hi - start],
                    mode="clip")
        seg = out[start:stop]
        np.matmul(block, wmat[i - 1].T, out=seg)
        if bias is not None:
            seg += bias[i - 1]
    return out, (cols if keep_cols else None)


def _col2im_taps(gtaps: np.ndarray, shape, k: int) -> np.ndarray:
    """Adjoint of the patch gather: (K*K, N*H*W, C) per-tap gradients with
    pixels in raster order -> (N, C, H, W)."""
    n, c, h, w = shape
    r = k // 2
    gxp = np.zeros((n, h + 2 * r, w + 2 * r, c))
    planes = gtaps.reshape(k * k, n, h, w, c)
    # Taps are added in kernel order, the same order at every pixel, so the
    # input gradient does not depend on how the pixels were sorted by class.
    for t in range(k * k):
        i, j = divmod(t, k)
        gxp[:, i : i + h, j : j + w] += planes[t]
    return gxp[:, r : r + h, r : r + w].transpose(0, 3, 1, 2)


def csconv_forward(q: Tensor, classes, bank: FilterBank) -> Tensor:
    """Differentiable convolution with per-pixel kernel selection.

    Chooses the kernel (and bias) of ``classes[pixel]`` at every output
    location; zero padding keeps spatial extents. ``classes`` is anything
    ``dispatch_plan`` accepts.
    """
    n, c_in, h, w = q.shape
    if c_in != bank.in_channels:
        raise ShapeError(f"input has {c_in} channels, bank expects {bank.in_channels}")
    plan = dispatch_plan(classes, n, h, w, bank.num_classes)
    parents = [q, bank.kernels]
    if bank.biases is not None:
        parents.append(bank.biases)

    out_sorted, cols = _segment_matmuls(q.data, plan, bank, keep_cols=_records_graph(parents))
    out = np.empty_like(out_sorted)
    out[plan.order] = out_sorted
    out = np.ascontiguousarray(out.reshape(n, h, w, -1).transpose(0, 3, 1, 2))

    def bw(grad):
        gq, gk, gb = _csconv_backward_arrays(
            grad, cols, plan, bank, q.shape, need_input_grad=q.requires_grad
        )
        if q.requires_grad:
            q._accumulate(gq)
        if bank.kernels.requires_grad:
            bank.kernels._accumulate(gk)
        if bank.biases is not None and bank.biases.requires_grad:
            bank.biases._accumulate(gb)

    return _result(out, tuple(parents), bw)


def _csconv_backward_arrays(grad_out, cols, plan, bank, shape, need_input_grad=True):
    n, c_in, h, w = shape
    k = bank.kernel_size
    c_out = bank.out_channels
    m = bank.num_classes
    go = grad_out.reshape(n, c_out, h * w).transpose(0, 2, 1).reshape(-1, c_out)[plan.order]
    wmat = bank.kernels.data.reshape(m, c_out, -1)

    gk = np.zeros_like(bank.kernels.data)
    gkmat = gk.reshape(m, c_out, -1)
    gb = None if bank.biases is None else np.zeros_like(bank.biases.data)
    if need_input_grad:
        # patch-row gradients per tap, pixels scattered back to raster order
        gtaps = np.empty((k * k, go.shape[0], c_in))
        gseg = np.empty((plan.largest_segment, c_in * k * k))

    for i, start, stop in plan.segments:
        g = go[start:stop]
        gkmat[i - 1] = g.T @ cols[start:stop]
        if gb is not None:
            gb.reshape(m, c_out)[i - 1] = g.sum(axis=0)
        if need_input_grad:
            block = gseg[: stop - start]
            np.matmul(g, wmat[i - 1], out=block)
            gtaps[:, plan.order[start:stop]] = block.reshape(-1, c_in, k * k).transpose(2, 0, 1)

    gq = _col2im_taps(gtaps, shape, k) if need_input_grad else None
    return gq, gk, gb


def csconv_backward(grad_out, q: Tensor, classes, bank: FilterBank):
    """Standalone adjoint: returns (grad_q, grad_kernels, grad_biases).

    Kernel stacks of classes absent from the map receive exactly zero.
    """
    n, c_in, h, w = q.shape
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (n, bank.out_channels, h, w):
        raise ShapeError(
            f"grad_out {grad_out.shape} does not match output "
            f"({n},{bank.out_channels},{h},{w})"
        )
    plan = dispatch_plan(classes, n, h, w, bank.num_classes)
    _, cols = _segment_matmuls(q.data, plan, bank, keep_cols=True)
    return _csconv_backward_arrays(grad_out, cols, plan, bank, q.shape)


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
