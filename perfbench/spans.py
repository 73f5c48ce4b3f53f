"""In-memory span tracing around the calls into each csdenoise layer.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever a csdenoise module imported the function by
name; ``Tensor.backward`` and ``Adam.step`` are wrapped on their classes.
Backward closures recorded by a wrapped op are wrapped too, so forward and
backward work land in separate spans. Nothing under ``src/`` changes and
``uninstall`` restores every binding.

A span is (name, layer, start, end, parent, operation id). A span's self
time is its duration minus the time its child spans cover. Spans are only
recorded while an operation is open (``begin_op``/``end_op``), so the
benchmark's own checks never show up in the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = (
    "autodiff", "functional", "csconv", "gradient_stats", "optim",
    "pcn", "csdn", "pipeline", "image_io", "model_io", "cli",
)

# span record fields
NAME, LAYER, START, END, PARENT, OP, CHILD, ATTRS, ERROR = range(9)


def _conv_attrs(x, c_out, k, cpg):
    """Computed work of one stride-1 'same' conv: FLOPs and im2col bytes."""
    n, c_in, h, w = x.shape
    return {
        "flops": 2.0 * k * k * cpg * c_out * n * h * w,
        "im2col_bytes": 8.0 * n * c_in * k * k * h * w,
        "shape": [n, c_in, c_out, k, h, w],
    }


def _conv2d_attrs(args, kwargs):
    x, kernel = args[0], args[1]
    c_out, cpg, k, _ = kernel.shape
    attrs = _conv_attrs(x, c_out, k, cpg)
    attrs["groups"] = kwargs.get("groups", args[3] if len(args) > 3 else 1)
    return attrs


def _csconv_attrs(args, kwargs):
    q, bank = args[0], args[2]
    return _conv_attrs(q, bank.out_channels, bank.kernel_size, bank.in_channels)


ATTR_HOOKS = {
    "functional.conv2d": _conv2d_attrs,
    "csconv.csconv_forward": _csconv_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = None
        self.t0 = time.perf_counter()
        self._patches: list[tuple] = []
        self._last_classes = (None, 0)
        self._param_counts: dict[int, int] = {}

    # -- span bookkeeping ------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        self.op = None
        self.stack.clear()

    def _open(self, name, layer, attrs):
        parent = self.stack[-1] if self.stack else None
        span = [name, layer, time.perf_counter(), 0.0,
                None if parent is None else id(parent), self.op, 0.0, attrs, False]
        self.stack.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][CHILD] += span[END] - span[START]
        self.spans.append(span)

    def _charge_parent(self, seconds):
        """Hide tracer bookkeeping from the enclosing span's self time."""
        if self.stack:
            self.stack[-1][CHILD] += seconds

    def _run(self, name, layer, attrs, fn, args, kwargs):
        span = self._open(name, layer, attrs)
        try:
            return fn(*args, **kwargs)
        except Exception:
            span[ERROR] = True
            raise
        finally:
            self._close(span)

    # -- wrappers ----------------------------------------------------------------

    def _extra_attrs(self, name, args, kwargs):
        t = time.perf_counter()
        attrs = ATTR_HOOKS[name](args, kwargs) if name in ATTR_HOOKS else None
        if name == "csconv.csconv_forward":
            classes = args[1]
            if self._last_classes[0] is not classes:
                idx = getattr(classes, "indices", classes)
                self._last_classes = (classes, int(np.unique(np.asarray(idx)).size))
            attrs["classes"] = self._last_classes[1]
        elif name == "model_io.load_model":
            attrs = {"bytes": float(os.path.getsize(args[0]))}
        self._charge_parent(time.perf_counter() - t)
        return attrs

    def _wrap_backward(self, out, name, layer, attrs):
        orig = getattr(out, "_backward", None)
        if orig is None:
            return
        bw_attrs = None if attrs is None else {**attrs, "flops": 2.0 * attrs.get("flops", 0.0)}

        def traced_backward(grad):
            if self.op is None:
                return orig(grad)
            return self._run(name + ".bwd", layer, bw_attrs, orig, (grad,), {})

        out._backward = traced_backward

    def _wrap_function(self, fn, layer):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            attrs = self._extra_attrs(name, args, kwargs)
            out = self._run(name, layer, attrs, fn, args, kwargs)
            self._wrap_backward(out, name, layer, attrs)
            return out

        return traced

    def _wrap_backward_method(self, fn):
        def traced(loss):
            if self.op is None:
                return fn(loss)
            t = time.perf_counter()
            nodes = _count_graph_nodes(loss)
            self._charge_parent(time.perf_counter() - t)
            return self._run("autodiff.Tensor.backward", "autodiff", {"nodes": nodes},
                             fn, (loss,), {})

        return functools.wraps(fn)(traced)

    def _wrap_adam_step(self, fn):
        def traced(opt):
            if self.op is None:
                return fn(opt)
            count = self._param_counts.get(id(opt))
            if count is None:
                count = self._param_counts[id(opt)] = sum(p.data.size for p in opt.params)
            return self._run("optim.Adam.step", "optim", {"params": count}, fn, (opt,), {})

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every layer's public functions and two methods."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"csdenoise.{layer}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap_function(fn, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "csdenoise" and not modname.startswith("csdenoise."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        from csdenoise.autodiff import Tensor
        from csdenoise.optim import Adam

        for cls, attr, make in ((Tensor, "backward", self._wrap_backward_method),
                                (Adam, "step", self._wrap_adam_step)):
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, make(orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------------

    def write_jsonl(self, path):
        """One JSON object per span, times in seconds since the tracer started."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                dur = s[END] - s[START]
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER],
                    "start": round(s[START] - self.t0, 9),
                    "end": round(s[END] - self.t0, 9),
                    "parent": ids.get(s[PARENT]), "op": s[OP],
                    "self": round(dur - s[CHILD], 9), "attrs": s[ATTRS],
                    "error": s[ERROR],
                }) + "\n")


def _count_graph_nodes(loss) -> int:
    """Tensors reachable from the loss through recorded graph edges."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# -- per-layer metrics ---------------------------------------------------------------

DATA_FUNCS = ("pipeline.sample_clean_patch", "pipeline.add_awgn")
ELEMENTWISE_EXCLUDED = ("functional.conv2d", "functional.conv2d.bwd")


def _outermost(spans, by_id):
    """Spans whose parent belongs to another layer (no double counting)."""
    out = []
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is None or parent[LAYER] != s[LAYER]:
            out.append(s)
    return out


def _dur(spans):
    return sum(s[END] - s[START] for s in spans)


def _per_call_time_by_shape(fwd, bwd):
    """Mean fwd+bwd seconds per call, keyed by input shape (N, H, W)."""
    totals: dict[tuple, list] = {}
    for s in fwd + bwd:
        n, _, _, _, h, w = s[ATTRS]["shape"]
        entry = totals.setdefault((n, h, w), [0.0, 0])
        entry[0] += s[END] - s[START]
    for s in fwd:
        n, _, _, _, h, w = s[ATTRS]["shape"]
        totals[(n, h, w)][1] += 1
    return {k: t / c for k, (t, c) in totals.items() if c}


UNITS = {
    "_ms": "ms", ".ms": "ms", ".calls": "count", ".classes_present": "count",
    ".gflops": "GFLOP/s", ".vs_conv_ratio": "ratio", ".im2col_mb": "MB", ".nodes": "count",
    ".param_count": "count", ".bytes_read": "bytes", ".errors": "count",
    ".overhead_pct": "%",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def layer_metrics(tracer: Tracer, units: int, overhead_pct: float) -> dict:
    """Per-layer numbers per unit of work (training step or image)."""
    spans = tracer.spans
    u = float(max(units, 1))
    by_id = {id(s): s for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def ms(group):
        return 1e3 * _dur(group) / u

    def gflops(group):
        t = _dur(group)
        return sum(s[ATTRS]["flops"] for s in group) / t / 1e9 if t > 0 else 0.0

    cs_fwd, cs_bwd = named("csconv.csconv_forward"), named("csconv.csconv_forward.bwd")
    cv_fwd, cv_bwd = named("functional.conv2d"), named("functional.conv2d.bwd")
    functional = [s for s in spans if s[LAYER] == "functional"]
    elem = [s for s in functional if s[NAME] not in ELEMENTWISE_EXCLUDED]

    # CSConv against the plain 3x3 conv of the same shape (C_in = C_out, groups 1)
    cs_shapes = {tuple(s[ATTRS]["shape"]) for s in cs_fwd}
    same = [s for s in cv_fwd
            if tuple(s[ATTRS]["shape"]) in cs_shapes and s[ATTRS]["groups"] == 1]
    same_bwd = [s for s in cv_bwd
                if tuple(s[ATTRS]["shape"]) in cs_shapes and s[ATTRS]["groups"] == 1]
    conv_per_call = _per_call_time_by_shape(same, same_bwd)
    cs_per_call = _per_call_time_by_shape(cs_fwd, cs_bwd)
    ratios = [cs_per_call[k] / conv_per_call[k] for k in cs_per_call if k in conv_per_call]
    vs_conv = float(np.mean(ratios)) if ratios else 0.0

    backward = named("autodiff.Tensor.backward")
    adam = named("optim.Adam.step")
    gs_top = _outermost([s for s in spans if s[LAYER] == "gradient_stats"], by_id)
    data = named(*DATA_FUNCS)  # neither calls the other
    pipeline_rest = [
        s for s in spans if s[LAYER] == "pipeline" and s[NAME] not in DATA_FUNCS
        and by_id.get(s[PARENT], [None])[NAME] not in DATA_FUNCS
    ]
    loads = _outermost(named("model_io.load_kind", "model_io.load_model"), by_id)

    metrics = {
        "csconv.fwd_ms": ms(cs_fwd),
        "csconv.bwd_ms": ms(cs_bwd),
        "csconv.calls": len(cs_fwd) / u,
        "csconv.classes_present": (
            float(np.mean([s[ATTRS]["classes"] for s in cs_fwd])) if cs_fwd else 0.0
        ),
        "csconv.gflops": gflops(cs_fwd + cs_bwd),
        "csconv.vs_conv_ratio": vs_conv,
        "functional.conv2d.fwd_ms": ms(cv_fwd),
        "functional.conv2d.bwd_ms": ms(cv_bwd),
        "functional.conv2d.calls": len(cv_fwd) / u,
        "functional.conv2d.gflops": gflops(cv_fwd + cv_bwd),
        "functional.elementwise.fwd_ms": ms([s for s in elem if not s[NAME].endswith(".bwd")]),
        "functional.elementwise.bwd_ms": ms([s for s in elem if s[NAME].endswith(".bwd")]),
        "functional.im2col_mb": max(
            (s[ATTRS]["im2col_bytes"] for s in cv_fwd + cs_fwd), default=0.0
        ) / 1e6,
        "autodiff.backward_self_ms": 1e3 * sum(
            s[END] - s[START] - s[CHILD] for s in backward
        ) / u,
        "autodiff.nodes": (
            float(np.mean([s[ATTRS]["nodes"] for s in backward])) if backward else 0.0
        ),
        "optim.adam_ms": ms(adam),
        "optim.param_count": float(adam[-1][ATTRS]["params"]) if adam else 0.0,
        "gradient_stats.ms": ms(gs_top),
        "gradient_stats.calls": len(gs_top) / u,
        "pcn.class_map_ms": ms(named("pcn.pcn_class_map")),
        "csdn.forward_ms": ms(named("csdn.csdn_forward")),
        "pipeline.data_ms": ms(data),
        "pipeline.self_ms": 1e3 * sum(s[END] - s[START] - s[CHILD] for s in pipeline_rest) / u,
        "image_io.read_ms": ms(named("image_io.read_image")),
        "image_io.write_ms": ms(named("image_io.write_image")),
        "model_io.load_ms": ms(loads),
        "model_io.bytes_read": sum(
            s[ATTRS]["bytes"] for s in named("model_io.load_model")
        ) / u,
        "cli.self_ms": 1e3 * sum(
            s[END] - s[START] - s[CHILD] for s in named("cli.run_cli")
        ) / u,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = float(
            sum(s[ERROR] for s in _outermost([s for s in spans if s[LAYER] == layer], by_id))
        )
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics
