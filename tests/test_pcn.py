import numpy as np
import pytest

from csdenoise.autodiff import Tensor
from csdenoise.errors import ConfigError, ShapeError
from csdenoise.gradient_stats import (
    HashConfig,
    compute_stats,
    denormalize_stats,
    hash_classes,
)
from csdenoise.pcn import PcnConfig, build_pcn, pcn_class_map, pcn_forward, pcn_loss
from helpers import fd_worst_rel_err_params


def assert_stats_equal(a, b):
    for field in ("orientation", "strength", "coherence"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def gcb_params(in_ch, cf):
    reduce_k = (cf // 2) * (in_ch // 2) * 9 + cf // 2
    expand_k = cf * (cf // 2) + cf
    return reduce_k + expand_k


class TestBuilder:
    def test_default_forward_shape(self):
        net = build_pcn()
        out = net(Tensor(np.random.rand(1, 1, 64, 64)))
        assert out.shape == (1, 3, 64, 64)

    def test_parameter_count_closed_form(self):
        cf, scales, grbs = 16, 3, 3
        net = build_pcn(PcnConfig(cf, scales, grbs))
        depth = scales - 1
        expected = (
            (1 * cf + cf)  # 1x1 head
            + depth * gcb_params(cf, cf)  # encoder
            + gcb_params(cf, cf)  # bottleneck entry
            + grbs * gcb_params(cf, cf)  # residual blocks
            + depth * gcb_params(2 * cf, cf)  # decoder after concat
            + (cf * 3 + 3)  # 1x1 tail
        )
        assert net.parameter_count() == expected

    def test_zero_parameters_yield_tail_bias(self):
        net = build_pcn()
        for _, p in net.named_parameters():
            p.data[...] = 0.0
        net.tail.bias.data[0, :, 0, 0] = [0.1, 0.2, 0.3]
        out = net(Tensor(np.random.rand(1, 1, 16, 16))).data
        for ch, expect in enumerate((0.1, 0.2, 0.3)):
            assert np.allclose(out[0, ch], expect)

    def test_indivisible_size_raises_and_padded_works(self):
        net = build_pcn()
        with pytest.raises(ShapeError):
            net(Tensor(np.random.rand(1, 1, 30, 30)))
        assert pcn_forward(net, np.random.rand(30, 30)).strength.shape == (30, 30)

    def test_padded_forward_matches_plain_on_divisible_input(self, rng):
        net = build_pcn()
        img = rng.random((32, 32))
        assert_stats_equal(pcn_forward(net, img),
                           denormalize_stats(net(Tensor(img[None, None])).data[0]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PcnConfig(base_channels=10)  # not a multiple of 4
        with pytest.raises(ConfigError):
            PcnConfig(base_channels=0)  # a multiple of 4, but builds empty convs
        with pytest.raises(ConfigError):
            PcnConfig(num_scales=1)

    def test_receptive_field_grows_with_scales(self, rng):
        # measured diagonal reach: 8 (2 scales), 18 (3), 34 (4); probe a
        # pixel 24 away, reachable only once enough scales are stacked
        probe = (4, 4)
        far = (28, 28)
        x = rng.random((1, 1, 48, 48))
        for scales, expect_reach in ((2, False), (4, True)):
            net = build_pcn(PcnConfig(base_channels=4, num_scales=scales,
                                      residual_blocks=1), seed=9)
            base = net(Tensor(x.copy())).data[0, :, probe[0], probe[1]]
            xp = x.copy()
            xp[0, 0, far[0], far[1]] += 1.0
            bumped = net(Tensor(xp)).data[0, :, probe[0], probe[1]]
            reached = bool(np.any(np.abs(bumped - base) > 1e-12))
            assert reached == expect_reach


class TestInference:
    def test_outputs_satisfy_stats_invariants_for_wild_nets(self, rng):
        net = build_pcn(seed=2)
        for _, p in net.named_parameters():
            p.data *= 25.0  # blow up outputs on purpose
        stats = pcn_forward(net, rng.random((24, 24)))
        assert np.all((stats.orientation >= 0) & (stats.orientation < np.pi))
        assert np.all(stats.strength >= 0)
        assert np.all((stats.coherence >= 0) & (stats.coherence <= 1))

    def test_deterministic(self, rng):
        net = build_pcn(seed=3)
        img = rng.random((16, 16))
        assert_stats_equal(pcn_forward(net, img), pcn_forward(net, img))

    def test_class_map_output_in_range(self, rng):
        net = build_pcn(seed=4)
        cfg = HashConfig()
        _, cmap = pcn_class_map(net, rng.random((20, 20)), cfg)
        assert cmap.indices.min() >= 1
        assert cmap.indices.max() <= cfg.num_classes


def reflect_padded_reference(net, img):
    """The net on ``img`` reflect-padded at its bottom and right edges to the
    scale factor, cropped back and denormalized."""
    h, w = img.shape
    pad = ((0, -h % net.scale_factor), (0, -w % net.scale_factor))
    raw = net(Tensor(np.pad(img, pad, mode="reflect")[None, None])).data
    return denormalize_stats(raw[0, :, :h, :w])


class TestPadAndCrop:
    def test_reflect_pad_matches_numpy(self, rng):
        for scales, sizes in ((3, [(30, 30), (31, 17), (6, 9)]),
                              (4, [(9, 13), (5, 7), (24, 13)])):
            net = build_pcn(PcnConfig(base_channels=8, num_scales=scales,
                                      residual_blocks=1), seed=6)
            for size in sizes:
                img = rng.random(size)
                assert_stats_equal(pcn_forward(net, img), reflect_padded_reference(net, img))

    def test_pad_as_large_as_the_image_rejected(self, rng):
        with pytest.raises(ShapeError):
            pcn_forward(build_pcn(), rng.random((2, 5)))


class TestLoss:
    def test_zero_on_identical(self, rng):
        p = Tensor(rng.random((2, 3, 4, 4)))
        assert pcn_loss(p, Tensor(p.data.copy())).item() == 0.0

    def test_constant_channel_offsets_sum(self, rng):
        t = rng.random((1, 3, 4, 4))
        p = t + 0.1
        loss = pcn_loss(Tensor(p), Tensor(t)).item()
        assert np.isclose(loss, 0.3)

    def test_invariant_to_consistent_pixel_permutation(self, rng):
        p = rng.random((1, 3, 4, 4))
        t = rng.random((1, 3, 4, 4))
        perm = rng.permutation(16)
        p2 = p.reshape(1, 3, 16)[:, :, perm].reshape(1, 3, 4, 4)
        t2 = t.reshape(1, 3, 16)[:, :, perm].reshape(1, 3, 4, 4)
        a = pcn_loss(Tensor(p), Tensor(t)).item()
        b = pcn_loss(Tensor(p2), Tensor(t2)).item()
        assert np.isclose(a, b)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            pcn_loss(Tensor(rng.random((1, 3, 4, 4))),
                     Tensor(rng.random((1, 3, 4, 5))))

    def test_end_to_end_gradients(self, rng):
        net = build_pcn(PcnConfig(base_channels=4, num_scales=2,
                                  residual_blocks=1), seed=5)
        x = Tensor(rng.random((1, 1, 8, 8)))
        t = Tensor(rng.random((1, 3, 8, 8)))
        err = fd_worst_rel_err_params(net, lambda: pcn_loss(net(x), t))
        assert err < 1e-3


class TestOverfitSmoke:
    def test_orientation_bin_recovered_on_ramps(self):
        # overfit two triangle-wave ramps (constant orientation, steep
        # linear pieces); the predicted orientation bin should match the
        # clean-image analysis bin on most interior pixels
        from csdenoise.pipeline import TrainConfig, add_awgn, train_pcn

        size = 64
        yy, xx = np.mgrid[0:size, 0:size] / size

        def triangle_ramp(angle, period=0.25):
            u = xx * np.cos(angle) + yy * np.sin(angle)
            saw = np.mod(u / period, 1.0)
            return 0.1 + 0.8 * 2.0 * np.where(saw < 0.5, saw, 1.0 - saw)

        ramps = [triangle_ramp(0.2), triangle_ramp(1.35)]
        cfg = TrainConfig(sigma=10.0, batch_size=4, patch_size=32, epochs=16,
                          steps_per_epoch=125, learning_rate=2e-3, seed=0)
        net, history = train_pcn(ramps, cfg)
        assert history[-1] < history[0]
        hash_cfg = HashConfig()
        rng = np.random.default_rng(5)
        hits, total = 0, 0
        for ramp in ramps:
            noisy = add_awgn(ramp, 10.0, rng)
            _, pred_map = pcn_class_map(net, noisy, hash_cfg)
            oracle_map = hash_classes(compute_stats(ramp), hash_cfg)
            pred_bin = (pred_map.indices - 1) // 9
            oracle_bin = (oracle_map.indices - 1) // 9
            inner = slice(8, -8)
            hits += np.sum(pred_bin[inner, inner] == oracle_bin[inner, inner])
            total += pred_bin[inner, inner].size
        assert hits / total >= 0.9
