import ctypes
import types

import numpy as np
import pytest

from csdenoise import pipeline
from csdenoise.autodiff import Tensor
from csdenoise.csdn import CsdnConfig, build_csdn, csdn_forward, csdn_loss
from csdenoise.errors import ConfigError, CsdError, ShapeError
from csdenoise.gradient_stats import HashConfig, compute_stats, normalize_stats
from csdenoise.optim import Adam
from csdenoise.pcn import PcnConfig, build_pcn, pcn_loss
from csdenoise.pipeline import (
    TrainConfig,
    add_awgn,
    augment_patch,
    classify_for_denoiser,
    denoise_image,
    evaluate,
    sample_clean_patch,
    train_csdn,
    train_pcn,
)
from helpers import traced_bytes


def micro_train_cfg(**kw):
    base = dict(sigma=25.0, batch_size=2, patch_size=24, epochs=2,
                steps_per_epoch=8, learning_rate=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def micro_pcn_cfg():
    return PcnConfig(base_channels=4, num_scales=2, residual_blocks=1)


def micro_csdn_cfg(**kw):
    base = dict(arch="edsr", num_blocks=1, num_features=4,
                use_csconv=True, num_classes=72)
    base.update(kw)
    return CsdnConfig(**base)


class TestAwgn:
    def test_sigma_zero_is_identity(self, rng):
        img = rng.random((16, 16))
        assert np.array_equal(add_awgn(img, 0.0, np.random.default_rng(0)), img)

    def test_seed_determinism(self, rng):
        img = rng.random((16, 16))
        a = add_awgn(img, 25.0, np.random.default_rng(7))
        b = add_awgn(img, 25.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_sample_std_matches_sigma(self):
        img = np.full((256, 256), 0.5)
        noisy = add_awgn(img, 25.0, np.random.default_rng(3))
        sample_std = (noisy - img).std()
        assert abs(sample_std - 25.0 / 255.0) < 0.05 * 25.0 / 255.0

    def test_output_not_clipped(self):
        img = np.zeros((64, 64))
        noisy = add_awgn(img, 50.0, np.random.default_rng(1))
        assert noisy.min() < 0.0  # training convention keeps raw values

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            add_awgn(np.zeros((4, 4)), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be finite"):
            add_awgn(np.zeros((4, 4)), sigma, np.random.default_rng(0))


class TestTrainConfig:
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be finite"):
            TrainConfig(sigma=sigma)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1e-4])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="learning rate must be finite"):
            TrainConfig(learning_rate=rate)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1)


class TestAugment:
    def test_identity_element(self, rng):
        p = rng.random((6, 6))
        assert np.array_equal(augment_patch(p, 0), p)

    def test_quarter_turn_has_order_four(self, rng):
        p = rng.random((6, 6))
        q = p
        for _ in range(4):
            q = augment_patch(q, 1)
        assert np.array_equal(q, p)

    def test_eight_outputs_pairwise_distinct(self, rng):
        p = rng.random((4, 4))
        outs = [augment_patch(p, t) for t in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.array_equal(outs[i], outs[j])

    def test_non_square_quarter_turn_rejected(self, rng):
        p = rng.random((4, 6))
        with pytest.raises(ShapeError):
            augment_patch(p, 1)
        # 180-degree rotation keeps the shape and is allowed
        assert augment_patch(p, 2).shape == p.shape

    def test_bad_id_rejected(self, rng):
        with pytest.raises(ConfigError):
            augment_patch(rng.random((4, 4)), 8)


class TestSampling:
    def test_patch_shape_and_determinism(self, toy_images):
        a = sample_clean_patch(toy_images, 32, np.random.default_rng(5))
        b = sample_clean_patch(toy_images, 32, np.random.default_rng(5))
        assert a.shape == (32, 32)
        assert np.array_equal(a, b)

    def test_too_small_images_rejected(self, rng):
        with pytest.raises(ConfigError):
            train_pcn([rng.random((16, 16))], micro_train_cfg(patch_size=24),
                      micro_pcn_cfg())

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            train_pcn([], micro_train_cfg(), micro_pcn_cfg())


class TestTrainPcn:
    def test_descent_and_finite_losses(self, micro_images):
        net, history = train_pcn(micro_images, micro_train_cfg(epochs=3),
                                 micro_pcn_cfg())
        assert len(history) == 3
        assert all(np.isfinite(h) for h in history)
        assert history[-1] < history[0]

    def test_zero_learning_rate_freezes_parameters(self, micro_images):
        cfg = micro_train_cfg(learning_rate=0.0, epochs=1)
        from csdenoise.pcn import build_pcn

        reference = build_pcn(micro_pcn_cfg(), seed=cfg.seed)
        net, _ = train_pcn(micro_images, cfg, micro_pcn_cfg())
        for (_, a), (_, b) in zip(net.named_parameters(),
                                  reference.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_patch_divisibility_enforced(self, micro_images):
        with pytest.raises(ConfigError):
            train_pcn(micro_images, micro_train_cfg(patch_size=22),
                      PcnConfig(base_channels=4, num_scales=3, residual_blocks=1))

    def test_deterministic_under_seed(self, micro_images):
        n1, h1 = train_pcn(micro_images, micro_train_cfg(), micro_pcn_cfg())
        n2, h2 = train_pcn(micro_images, micro_train_cfg(), micro_pcn_cfg())
        assert h1 == h2
        for (_, a), (_, b) in zip(n1.named_parameters(), n2.named_parameters()):
            assert np.array_equal(a.data, b.data)


class TestTrainCsdn:
    def test_descent_and_pcn_frozen(self, micro_images):
        pcn_net, _ = train_pcn(micro_images, micro_train_cfg(epochs=1),
                               micro_pcn_cfg())
        before = [p.data.copy() for _, p in pcn_net.named_parameters()]
        net, history = train_csdn(
            micro_images, micro_train_cfg(epochs=3), micro_csdn_cfg(),
            classifier="pcn", pcn=pcn_net,
        )
        assert history[-1] < history[0]
        for (_, p), b in zip(pcn_net.named_parameters(), before):
            assert np.array_equal(p.data, b)
            assert p.grad is None

    @pytest.mark.parametrize("mode", ["raisr-noisy", "raisr-clean"])
    def test_oracle_classifier_modes(self, micro_images, mode):
        net, history = train_csdn(micro_images, micro_train_cfg(),
                                  micro_csdn_cfg(), classifier=mode)
        assert all(np.isfinite(h) for h in history)

    def test_invalid_mode_rejected(self, micro_images):
        with pytest.raises(ConfigError):
            train_csdn(micro_images, micro_train_cfg(), micro_csdn_cfg(),
                       classifier="oracle")

    def test_class_count_mismatch_rejected(self, micro_images):
        with pytest.raises(ConfigError):
            train_csdn(micro_images, micro_train_cfg(),
                       micro_csdn_cfg(num_classes=16),
                       classifier="raisr-noisy", hash_cfg=HashConfig())

    def test_plain_baseline_trains_without_classifier(self, micro_images):
        net, history = train_csdn(
            micro_images, micro_train_cfg(),
            micro_csdn_cfg(use_csconv=False, num_classes=1),
        )
        assert all(np.isfinite(h) for h in history)

    def test_plain_baseline_checks_no_classifier(self, micro_images):
        """A plain denoiser reads no classes, so, as in ``denoise_image``, neither
        the classifier mode nor a PCN is checked."""
        cfg, plain = micro_train_cfg(epochs=1), micro_csdn_cfg(use_csconv=False, num_classes=1)
        _, expected = train_csdn(micro_images, cfg, plain)
        for classifier in ("pcn", "oracle"):
            assert train_csdn(micro_images, cfg, plain, classifier=classifier)[1] == expected

    def test_finite_losses_over_100_steps(self, micro_images):
        _, history = train_csdn(
            micro_images, micro_train_cfg(epochs=1, steps_per_epoch=100),
            micro_csdn_cfg(),
        )
        assert np.isfinite(history[0])


class TestClassify:
    def test_pcn_mode_requires_network(self, rng):
        with pytest.raises(ConfigError):
            classify_for_denoiser(rng.random((16, 16)), None, "pcn")

    def test_clean_mode_requires_clean(self, rng):
        with pytest.raises(ConfigError):
            classify_for_denoiser(rng.random((16, 16)), None, "raisr-clean")

    def test_modes_give_valid_maps(self, rng):
        noisy = rng.random((16, 16))
        clean = rng.random((16, 16))
        for mode in ("raisr-noisy", "raisr-clean"):
            cmap = classify_for_denoiser(noisy, clean, mode)
            assert cmap.indices.min() >= 1 and cmap.indices.max() <= 72


class TestEvaluate:
    def test_identity_denoiser_flat_image(self):
        # expected PSNR for sigma=25 noise on a mid-gray image
        img = np.full((128, 128), 0.5)
        rows, summary = evaluate(None, [img], 25.0, seed=11)
        expected = 20.0 * np.log10(255.0 / 25.0)
        assert abs(rows[0]["psnr"] - expected) < 0.3
        assert rows[0]["psnr_noisy"] == rows[0]["psnr"]

    def test_deterministic_under_seed(self, toy_images):
        r1, s1 = evaluate(None, toy_images[:2], 25.0, seed=3)
        r2, s2 = evaluate(None, toy_images[:2], 25.0, seed=3)
        assert r1 == r2 and s1 == s2

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(None, [], 25.0)

    def test_names_must_match_images(self, toy_images):
        with pytest.raises(ConfigError, match="1 names given for 3 images"):
            evaluate(None, toy_images[:3], 25.0, names=["only"])

    def test_negative_seed_rejected(self, toy_images):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            evaluate(None, toy_images[:1], 25.0, seed=-1)

    def test_trained_micro_model_runs_end_to_end(self, micro_images):
        net, _ = train_csdn(micro_images, micro_train_cfg(),
                            micro_csdn_cfg(), classifier="raisr-noisy")
        rows, summary = evaluate(net, micro_images, 25.0, seed=2,
                                 classifier="raisr-noisy")
        assert len(rows) == 2
        assert np.isfinite(summary["mean_psnr"])


class TestDenoiseImage:
    @pytest.fixture
    def noisy(self, micro_images):
        return add_awgn(micro_images[0], 25.0, np.random.default_rng(0))

    @pytest.mark.parametrize("classifier", ["pcn", "raisr-noisy", "raisr-clean"])
    def test_classifies_then_denoises(self, micro_images, noisy, classifier):
        pcn, net, hash_cfg = build_pcn(micro_pcn_cfg()), build_csdn(micro_csdn_cfg()), HashConfig()
        out = denoise_image(net, noisy, classifier, pcn, hash_cfg, micro_images[0])
        classes = classify_for_denoiser(noisy, micro_images[0], classifier, pcn, hash_cfg)
        assert np.array_equal(out, np.clip(csdn_forward(net, noisy, classes.indices), 0.0, 1.0))

    def test_plain_net_skips_classification(self, noisy):
        net = build_csdn(micro_csdn_cfg(use_csconv=False, num_classes=1))
        out = denoise_image(net, noisy, "pcn")  # no PCN given, none needed
        assert np.array_equal(out, np.clip(csdn_forward(net, noisy), 0.0, 1.0))

    def test_class_count_mismatch_rejected(self, micro_images, noisy):
        net = build_csdn(micro_csdn_cfg(num_classes=8))
        with pytest.raises(ConfigError, match="class-count mismatch"):
            denoise_image(net, noisy)
        with pytest.raises(ConfigError, match="class-count mismatch"):
            evaluate(net, micro_images, 25.0)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, micro_images, bad):
        images = [micro_images[0], micro_images[1].copy()]
        images[1][5, 7] = bad
        with pytest.raises(ConfigError, match="image 1 holds non-finite"):
            train_pcn(images, micro_train_cfg(), micro_pcn_cfg())
        with pytest.raises(ConfigError, match="image 1 holds non-finite"):
            train_csdn(images, micro_train_cfg(), micro_csdn_cfg())
        with pytest.raises(ConfigError, match="image 1 holds non-finite"):
            evaluate(None, images, 25.0)

    def test_all_nan_image_rejected(self):
        images = [np.full((32, 32), np.nan)]
        with pytest.raises(ConfigError):
            train_pcn(images, micro_train_cfg(), micro_pcn_cfg())
        with pytest.raises(ConfigError):
            train_csdn(images, micro_train_cfg(), micro_csdn_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stage", ["pcn", "csdn"])
    def test_diverging_run_stops_before_the_optimizer_step(self, micro_images,
                                                           monkeypatch, stage):
        steps = []

        class FiniteOnlyAdam(Adam):
            def step(self):
                assert all(np.isfinite(p.grad).all() for p in self.params)
                steps.append(len(steps))
                super().step()

        monkeypatch.setattr(pipeline, "Adam", FiniteOnlyAdam)
        # one Adam step at this rate moves every weight by ~1e300
        cfg = micro_train_cfg(learning_rate=1e300)
        with pytest.raises(CsdError, match="diverged at epoch 1, step 2: loss"):
            if stage == "pcn":
                train_pcn(micro_images, cfg, micro_pcn_cfg())
            else:
                train_csdn(micro_images, cfg, micro_csdn_cfg())
        assert steps == [0]


# -- reference training loops -------------------------------------------------------
#
# The two stages as two separate loop bodies with their own Adam update, kept
# as the fixed point that ``pipeline._fit`` and ``optim.Adam`` must reproduce
# bit for bit: the same draws from the seeded generator in the same order, the
# same schedule and the same update arithmetic.


class _ReferenceAdam:
    def __init__(self, params, learning_rate, b1=0.9, b2=0.999, eps=1e-8):
        self.params = list(params)
        self.learning_rate, self.b1, self.b2, self.eps = learning_rate, b1, b2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.b1, self.b2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _reference_train_pcn(images, cfg, pcn_cfg):
    rng = np.random.default_rng(cfg.seed)
    net = build_pcn(pcn_cfg, seed=cfg.seed)
    opt = _ReferenceAdam(net.parameters(), cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        opt.learning_rate = cfg.learning_rate * 0.5 ** (epoch // 20)
        losses = []
        for _ in range(cfg.steps_per_epoch):
            noisy_batch = np.empty((cfg.batch_size, 1, cfg.patch_size, cfg.patch_size))
            target_batch = np.empty((cfg.batch_size, 3, cfg.patch_size, cfg.patch_size))
            for b in range(cfg.batch_size):
                clean = sample_clean_patch(images, cfg.patch_size, rng)
                target_batch[b] = normalize_stats(compute_stats(clean))
                noisy_batch[b, 0] = add_awgn(clean, cfg.sigma, rng)
            pred = net(Tensor(noisy_batch))
            loss = pcn_loss(pred, Tensor(target_batch))
            net.zero_grads()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return net, history


def _reference_train_csdn(images, cfg, csdn_cfg, classifier, pcn=None):
    hash_cfg = HashConfig()
    rng = np.random.default_rng(cfg.seed)
    net = build_csdn(csdn_cfg, seed=cfg.seed)
    opt = _ReferenceAdam(net.parameters(), cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        opt.learning_rate = cfg.learning_rate * 0.5 ** (epoch // 20)
        losses = []
        for _ in range(cfg.steps_per_epoch):
            clean_batch = np.empty((cfg.batch_size, 1, cfg.patch_size, cfg.patch_size))
            noisy_batch = np.empty_like(clean_batch)
            class_batch = (
                np.empty((cfg.batch_size, cfg.patch_size, cfg.patch_size), dtype=np.int64)
                if csdn_cfg.use_csconv
                else None
            )
            for b in range(cfg.batch_size):
                clean = sample_clean_patch(images, cfg.patch_size, rng)
                noisy = add_awgn(clean, cfg.sigma, rng)
                clean_batch[b, 0] = clean
                noisy_batch[b, 0] = noisy
                if class_batch is not None:
                    cmap = classify_for_denoiser(noisy, clean, classifier, pcn, hash_cfg)
                    class_batch[b] = cmap.indices
            pred = net(Tensor(noisy_batch), class_batch)
            loss = csdn_loss(pred, Tensor(clean_batch))
            net.zero_grads()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return net, history


# (stage, csdn config overrides, classifier, train config overrides); the
# plain EDSR run takes one step per epoch across the halving at epoch 20
LOOP_CASES = {
    "pcn": ("pcn", None, None, {}),
    "cs-edsr-pcn": ("csdn", {}, "pcn", {}),
    "cs-edsr-raisr-noisy": ("csdn", {}, "raisr-noisy", {}),
    "cs-edsr-raisr-clean": ("csdn", {}, "raisr-clean", {}),
    "cs-carn": ("csdn", {"arch": "carn"}, "raisr-noisy", {}),
    "edsr-plain": ("csdn", {"use_csconv": False, "num_classes": 1}, "raisr-noisy",
                   {"epochs": 21, "steps_per_epoch": 1}),
}


class TestTrainingLoop:
    @pytest.mark.parametrize("case", list(LOOP_CASES))
    def test_matches_reference_loop_bit_for_bit(self, micro_images, case):
        stage, csdn_kw, classifier, cfg_kw = LOOP_CASES[case]
        cfg = micro_train_cfg(**{"epochs": 3, "steps_per_epoch": 3, **cfg_kw})
        if stage == "pcn":
            net, history = train_pcn(micro_images, cfg, micro_pcn_cfg())
            ref, ref_history = _reference_train_pcn(micro_images, cfg, micro_pcn_cfg())
        else:
            pcn = None
            if classifier == "pcn":
                pcn, _ = train_pcn(micro_images, micro_train_cfg(epochs=1, seed=5),
                                   micro_pcn_cfg())
            csdn_cfg = micro_csdn_cfg(**csdn_kw)
            net, history = train_csdn(micro_images, cfg, csdn_cfg,
                                      classifier=classifier, pcn=pcn)
            ref, ref_history = _reference_train_csdn(micro_images, cfg, csdn_cfg,
                                                     classifier, pcn)
        assert len(history) == cfg.epochs
        assert history == ref_history
        named, ref_named = list(net.named_parameters()), list(ref.named_parameters())
        assert [n for n, _ in named] == [n for n, _ in ref_named]
        for (name, p), (_, q) in zip(named, ref_named):
            assert np.array_equal(p.data, q.data), name

    def test_step_graph_freed_before_next_forward(self, micro_images):
        # holding the last step's graph while the next forward builds its own
        # put the 3-step peak at 1.30x the 1-step one
        def peak(steps):
            cfg = micro_train_cfg(patch_size=32, epochs=1, steps_per_epoch=steps)
            return traced_bytes(lambda: train_pcn(micro_images, cfg))[2]

        assert peak(3) <= 1.05 * peak(1)

    def test_one_step_peak_memory(self, micro_images):
        # 4 blocks of the default 72-class bank, 10.6 MB of parameters: a
        # reverse pass that keeps the graph, with Adam's moments allocated up
        # front, peaked at 42.7 MB; consuming the graph alone, 36.3 MB;
        # allocating the moments at the first step alone, 31.8 MB; both, 25.9 MB
        cfg = micro_train_cfg(batch_size=4, patch_size=48, epochs=1, steps_per_epoch=1)
        csdn_cfg = micro_csdn_cfg(num_blocks=4, num_features=16)
        assert traced_bytes(lambda: train_csdn(micro_images, cfg, csdn_cfg))[2] < 30e6

    def test_heap_stays_resident_across_calls(self, micro_images):
        # glibc's default trims what each step frees, so every step faulted its
        # arrays in again: 8.7k minor faults for this call without the setting
        if not pipeline._keep_heap_resident():
            pytest.skip("no glibc mallopt")
        import resource

        cfg = micro_train_cfg(batch_size=4, patch_size=48, epochs=1, steps_per_epoch=3)
        train_pcn(micro_images, cfg)  # grows the heap to a step's peak
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_pcn(micro_images, cfg)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    def test_same_history_where_mallopt_is_missing(self, micro_images, monkeypatch):
        cfg = micro_train_cfg(epochs=1, steps_per_epoch=3)
        _, history = train_pcn(micro_images, cfg, micro_pcn_cfg())
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        pipeline._keep_heap_resident.cache_clear()
        try:
            _, bare = train_pcn(micro_images, cfg, micro_pcn_cfg())
            assert pipeline._keep_heap_resident() is False
        finally:
            pipeline._keep_heap_resident.cache_clear()
        assert np.array(bare).tobytes() == np.array(history).tobytes()

    def test_step_decay_schedule(self, micro_images, monkeypatch):
        rates = []

        class RecordingAdam(Adam):
            def step(self):
                rates.append(self.learning_rate)
                super().step()

        monkeypatch.setattr(pipeline, "Adam", RecordingAdam)
        cfg = micro_train_cfg(epochs=41, steps_per_epoch=1, batch_size=1,
                              patch_size=16, learning_rate=1e-4)
        train_pcn(micro_images, cfg, micro_pcn_cfg())
        assert len(rates) == 41
        assert [rates[e] for e in (0, 19, 20, 39, 40)] == [1e-4, 1e-4, 5e-5, 5e-5, 2.5e-5]
