"""Dense 4-D tensors with reverse-mode automatic differentiation.

Every tensor is (batch, channels, height, width). Float32 data stays
float32 and any other dtype becomes float64; every op's output follows its
input's dtype. Graphs are float64 only: inference may run in float32 under
``no_grad``, while training, gradients and parameters stay float64. Ops
record a backward closure on their output; ``Tensor.backward`` walks the
graph in reverse topological order. Gradients are read-only, possibly
shared arrays: an interior node's grad lives until its closure has run;
leaf grads accumulate across calls until cleared, so callers zero grads
before each step. A backward closure captures its parents, shapes and
index bookkeeping, never an array its parents' ``.data`` can rebuild: it
pads, masks and lays out again from ``.data`` when it runs, and recomputing
a cheap activation of a parent's ``.data`` counts as rebuilding it. So
mutating a recorded tensor's ``.data`` before ``backward()`` is unsupported.

The core keeps the arithmetic graphs record, ``add`` and scalar ``mul``,
and the tensor ``mul`` and ``tsum`` that gradient checks build losses from.

A graph is single-writer: build and differentiate it from one thread.
Separate graphs share no state, so concurrent read-only inference on
distinct instances is safe. ``no_grad`` holds per thread (and per asyncio
task): it never turns graph recording off in another.
"""

from __future__ import annotations

import contextlib
import contextvars
import numbers

import numpy as np

from .errors import ContractError, CsdError, ShapeError

_grad_enabled = contextvars.ContextVar("csdenoise_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def finite_float64(values: np.ndarray, what: str) -> np.ndarray:
    """A float64 copy of an inference forward's ``values``, or ``CsdError``
    counting the non-finite ones. Such a forward runs under
    ``np.errstate(over="ignore", invalid="ignore")``: this check, not a
    numpy warning, reports the overflow."""
    out = values.astype(np.float64)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise CsdError(f"{what} has {bad} of {out.size} values non-finite: "
                       f"the input or the network's weights overflow {values.dtype}")
    return out


def _records_graph(parents) -> bool:
    """Whether an op on ``parents`` records a backward edge."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


class Tensor:
    """A 4-D float32 or float64 array plus optional gradient and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        arr = arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are (N, C, H, W); got {arr.ndim}-d data")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph -------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray):
        if grad.shape != self.data.shape:
            raise ShapeError(f"gradient {grad.shape} does not match tensor {self.shape}")
        self.grad = grad if self.grad is None else self.grad + grad
        self.grad.flags.writeable = False

    def backward(self):
        """Populate ``grad`` on every reachable tensor that requires it.

        The loss must be scalar-shaped (1,1,1,1); its grad is left at ones.
        A node adopts its first gradient and adds later ones out of place.
        Interior grads are released (``None``) once their closure has run;
        leaf grads (parameters, inputs) accumulate.
        """
        if self.data.shape != (1, 1, 1, 1):
            raise ContractError(f"backward needs a (1,1,1,1) loss, got {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:  # interior grads start empty
                node.grad = None
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones((1, 1, 1, 1)))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def sum(self):
        return tsum(self)


def _result(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Wrap op output, recording the graph edge only when grads can flow."""
    out = Tensor(data)
    if _records_graph(parents):
        if out.data.dtype != np.float64:  # backward closures compute in float64
            raise ContractError(f"graphs are float64; got {out.data.dtype} data "
                                "with grad enabled (run it under no_grad)")
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _result(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, numbers.Real):
        s = float(b)

        def bw_scalar(g):
            if a.requires_grad:
                a._accumulate(g * s)

        return _result(a.data * s, (a,), bw_scalar)
    _check_same_shape(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _result(a.data * b.data, (a, b), bw)


def tsum(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, g.reshape(-1)[0]))

    return _result(np.full((1, 1, 1, 1), a.data.sum()), (a,), bw)
