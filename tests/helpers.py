"""Shared numerical-check and CLI utilities for the test suite."""

import argparse
import tracemalloc

import numpy as np

from csdenoise.csconv import CsConv2d

FD_STEP = 1e-5


def subcommand_parsers():
    """{subcommand name: its argparse parser} of the ``csdenoise`` CLI."""
    from csdenoise.cli import build_parser

    sub, = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def cs_layer(stacks, biases=None):
    """A ``CsConv2d`` holding the M (C_out, C_in, K, K) ``stacks`` and the M
    (C_out,) ``biases``, or zero biases when none are given."""
    kernels = np.concatenate([np.asarray(s, dtype=np.float64) for s in stacks])
    c_out, c_in, k, _ = np.shape(stacks[0])
    layer = CsConv2d(len(stacks), c_in, c_out, k)
    layer.kernels.data[...] = kernels
    if biases is not None:
        layer.biases.data[...] = np.concatenate(biases).reshape(layer.biases.shape)
    return layer


def fd_worst_rel_err(build_loss, tensors, n_coords=10, h=FD_STEP, seed=0):
    """Worst relative error between autodiff and central-difference grads.

    ``build_loss`` must rebuild the scalar loss from the live tensors so
    the finite-difference probes see perturbed values.
    """
    rng = np.random.default_rng(seed)
    for t in tensors:
        t.zero_grad()
    build_loss().backward()
    worst = 0.0
    for t in tensors:
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = build_loss().item()
            flat[c] = orig - h
            down = build_loss().item()
            flat[c] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


def fd_worst_rel_err_params(net, build_loss, per_tensor=3, h=FD_STEP, seed=0):
    """Finite-difference check over sampled coordinates of every parameter."""
    net.zero_grads()
    build_loss().backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, t in net.named_parameters():
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        coords = rng.choice(flat.size, size=min(per_tensor, flat.size), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = build_loss().item()
            flat[c] = orig - h
            down = build_loss().item()
            flat[c] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


def traced_bytes(fn):
    """fn()'s result, with the bytes it still holds and its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base
