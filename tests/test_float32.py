"""Inference in float32: every op follows its input's dtype, and so do the
denoiser's and the classifier's forwards.

Weights stay float64 and each layer casts them on use, so float64 input
keeps its bits (the rest of the suite checks those) while float32 input
must come back float32, close to the float64 result, at a smaller peak.
Graphs are float64 only.
"""

import math

import numpy as np
import pytest

from csdenoise import functional as F
from csdenoise.autodiff import Tensor, no_grad
from csdenoise.csconv import csconv_forward
from csdenoise.csdn import CsdnConfig, build_csdn, csdn_forward
from csdenoise.errors import ContractError
from csdenoise.gradient_stats import HashConfig, denormalize_stats
from csdenoise.image_io import quantize_unit
from csdenoise.modules import Conv2d
from csdenoise.pcn import build_pcn, pcn_class_map, pcn_forward
from csdenoise.pipeline import TrainConfig, add_awgn, train_pcn

from conftest import make_toy_images
from helpers import cs_layer, plan_for, traced_bytes


def _pair(rng, shape):
    """The same values as a float32 and a float64 tensor."""
    x32 = rng.standard_normal(shape).astype(np.float32)
    return Tensor(x32), Tensor(x32.astype(np.float64))


def _close(t32, t64, rtol=1e-5):
    assert t32.data.dtype == np.float32
    assert t64.data.dtype == np.float64
    scale = max(1.0, float(np.abs(t64.data).max()))
    assert np.abs(t32.data - t64.data).max() <= rtol * scale


class TestTensorDtype:
    def test_float32_kept_and_others_become_float64(self):
        assert Tensor(np.zeros((1, 1, 2, 2), np.float32)).data.dtype == np.float32
        for dtype in (np.float16, np.int64, np.float64):
            assert Tensor(np.zeros((1, 1, 2, 2), dtype)).data.dtype == np.float64
        assert Tensor([[[[1, 2]]]]).data.dtype == np.float64

    def test_float64_data_is_not_copied(self):
        a = np.zeros((1, 1, 2, 2))
        assert Tensor(a).data is a


class TestGraphsStayFloat64:
    def test_float32_forward_with_grad_raises(self, rng):
        conv = Conv2d(1, 4, 3, rng=rng)
        x = Tensor(rng.random((1, 1, 8, 8)).astype(np.float32))
        with pytest.raises(ContractError, match="float64"):
            conv(x)
        with no_grad():
            assert conv(x).data.dtype == np.float32

    def test_float32_input_without_grads_records_nothing(self, rng):
        x, _ = _pair(rng, (1, 2, 4, 4))
        out = x + x  # no operand requires grad: no graph, so no refusal
        assert out.data.dtype == np.float32 and not out.requires_grad


class TestOpsFollowTheInput:
    """Each op returns float32 for float32 input, so a silent upcast cannot
    erase the gain while value checks still pass."""

    @pytest.mark.parametrize("c_in,c_out,k,groups", [(4, 6, 3, 1), (4, 6, 3, 2), (6, 4, 1, 1)],
                             ids=["3x3", "grouped", "1x1"])
    def test_conv2d(self, rng, c_in, c_out, k, groups):
        x32, x64 = _pair(rng, (2, c_in, 9, 11))
        kernel = Tensor(rng.standard_normal((c_out, c_in // groups, k, k)))
        bias = Tensor(rng.standard_normal((1, c_out, 1, 1)))
        with no_grad():
            _close(F.conv2d(x32, kernel, bias, groups), F.conv2d(x64, kernel, bias, groups))

    def test_activations(self, rng):
        x32, x64 = _pair(rng, (2, 3, 5, 5))
        alpha = Tensor(rng.random((1, 3, 1, 1)))
        with no_grad():
            _close(F.prelu(x32, alpha), F.prelu(x64, alpha))
            _close(F.relu(x32), F.relu(x64))

    def test_resampling_concat_and_add(self, rng):
        x32, x64 = _pair(rng, (2, 3, 6, 8))
        with no_grad():
            _close(F.bilinear_upsample2x(x32), F.bilinear_upsample2x(x64))
            _close(F.avg_downsample2x(x32), F.avg_downsample2x(x64))
            _close(F.concat_channels([x32, x32]), F.concat_channels([x64, x64]))
            _close(x32 + x32, x64 + x64)

    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "alpha-skip"])
    def test_csconv_forward(self, rng, fused):
        bank = cs_layer(rng.standard_normal((3, 4, 4, 3, 3)), rng.standard_normal((3, 4)))
        x32, x64 = _pair(rng, (2, 4, 7, 9))
        classes = rng.integers(1, 4, size=(2, 7, 9))
        kw32 = kw64 = {}
        if fused:
            alpha = Tensor(rng.random((1, 4, 1, 1)))
            s32, s64 = _pair(rng, (2, 4, 7, 9))
            kw32, kw64 = dict(alpha=alpha, skip=s32), dict(alpha=alpha, skip=s64)
        with no_grad():
            _close(csconv_forward(x32, plan_for(x32, classes, bank), bank, **kw32),
                   csconv_forward(x64, plan_for(x64, classes, bank), bank, **kw64))


def _tamed(cfg, seed=1):
    """A net whose residual 3x3 kernels are redrawn per class at a small scale
    and whose tail keeps the output mostly in [0, 1], as the bench fixture's."""
    net = build_csdn(cfg, seed=seed)
    rng = np.random.default_rng([seed, 2])
    for name, p in net.named_parameters():
        if p.data.ndim == 4 and p.shape[2] == 3 and name.startswith(("blocks.", "cascades.")):
            p.data[...] = rng.normal(0.0, 0.3 / math.sqrt(p.shape[1] * 9), p.shape)
    net.tail.kernel.data *= 0.2 if cfg.arch == "edsr" else 0.03
    net.tail.bias.data[...] = 0.5
    return net


def _noisy(size, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    return 0.5 + 0.4 * np.sin(2 * np.pi * (7 * xx + 3 * yy)) + rng.normal(0.0, 0.1, (size, size))


class TestCsdnForward:
    """``csdn_forward`` runs the network in float32 and stays within 1e-5 of
    the float64 forward, changing at most 0.1% of 8-bit pixels."""

    @pytest.mark.parametrize("cfg", [
        CsdnConfig(num_blocks=4),
        CsdnConfig(num_blocks=4, use_csconv=False, num_classes=1),
        CsdnConfig(arch="carn", num_blocks=2),
    ], ids=["cs-edsr", "plain-edsr", "cs-carn"])
    def test_close_to_float64(self, cfg):
        net = _tamed(cfg)
        img = _noisy(128)
        classes = np.random.default_rng(3).integers(1, 73, img.shape) if cfg.use_csconv else None
        out = csdn_forward(net, img, classes)
        with no_grad():
            ref = net.forward(Tensor(img[None, None]), classes).data[0, 0]
        assert out.dtype == np.float64
        assert np.abs(out - ref).max() <= 1e-5
        assert np.mean(quantize_unit(out) != quantize_unit(ref)) <= 0.001

    def test_weights_stay_float64(self):
        net = _tamed(CsdnConfig(num_blocks=1, num_features=4, num_classes=8))
        before = [p.data.copy() for p in net.parameters()]
        csdn_forward(net, _noisy(16), np.ones((16, 16), np.int64))
        for b, p in zip(before, net.parameters()):
            assert p.data.dtype == np.float64 and np.array_equal(b, p.data)

    def test_peak_memory_falls(self):
        """At 256x256 the float32 forward peaks at most 0.6x the float64 one."""
        net = _tamed(CsdnConfig(num_blocks=2))
        img = _noisy(256)
        classes = np.random.default_rng(3).integers(1, 73, img.shape)

        def float64_forward():
            with no_grad():
                return net.forward(Tensor(img[None, None]), classes)

        _, _, peak64 = traced_bytes(float64_forward)
        _, _, peak32 = traced_bytes(lambda: csdn_forward(net, img, classes))
        assert peak32 <= 0.6 * peak64


def _stats_equal(a, b):
    for field in ("orientation", "strength", "coherence"):
        got, ref = getattr(a, field), getattr(b, field)
        assert got.dtype == ref.dtype == np.float64, field
        assert np.array_equal(got, ref), field


class TestPcnForward:
    """``pcn_forward`` runs the PCN in its image's dtype: inference classifies a
    float32 image, training a float64 one. The stats are float64 either way."""

    def test_float32_image_runs_the_net_in_float32(self, rng):
        net = build_pcn(seed=3)
        img = rng.random((32, 32)).astype(np.float32)
        with no_grad():
            raw = net(Tensor(img[None, None])).data[0]
        assert raw.dtype == np.float32
        _stats_equal(pcn_forward(net, img), denormalize_stats(raw.astype(np.float64)))

    def test_other_dtypes_run_in_float64(self, rng):
        """A float64 image keeps the bits of the float64 forward, and other
        dtypes are read as float64, as ``Tensor`` reads them."""
        net = build_pcn(seed=3)
        img = rng.integers(0, 4, (32, 32))
        ref = denormalize_stats(net(Tensor(img[None, None].astype(np.float64))).data[0])
        for dtype in (np.float64, np.float16, np.int64):
            _stats_equal(pcn_forward(net, img.astype(dtype)), ref)

    def test_class_maps_flip_at_most_1e4_of_pixels(self):
        """A briefly trained PCN on noisy 256x256 images: float32 classification
        moves at most 1e-4 of the pixels to another class."""
        cfg = TrainConfig(batch_size=2, patch_size=32, epochs=1, steps_per_epoch=20,
                          learning_rate=1e-3)
        net, _ = train_pcn(make_toy_images(size=64, seed=11), cfg)
        rng = np.random.default_rng(5)
        flips = total = 0
        for clean in make_toy_images(size=256, seed=0):
            noisy = add_awgn(clean, 25.0, rng)
            ref = pcn_class_map(net, noisy, HashConfig())[1].indices
            got = pcn_class_map(net, noisy.astype(np.float32), HashConfig())[1].indices
            assert np.unique(ref).size >= 48  # the maps are far from trivial
            flips += np.count_nonzero(got != ref)
            total += ref.size
        assert flips <= 1e-4 * total

    def test_peak_memory_falls(self):
        """At 256x256 the float32 forward peaks at most 0.6x the float64 one."""
        net = build_pcn()
        img = _noisy(256)
        img32 = img.astype(np.float32)
        _, _, peak64 = traced_bytes(lambda: pcn_forward(net, img))
        _, _, peak32 = traced_bytes(lambda: pcn_forward(net, img32))
        assert peak32 <= 0.6 * peak64
