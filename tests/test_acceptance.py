"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output). Training-based criteria use fixed seeds, so results are
reproducible run to run.
"""

import time

import numpy as np
import pytest

from csdenoise import functional as F
from csdenoise.autodiff import Tensor
from csdenoise.csconv import csconv_forward
from csdenoise.csdn import CsdnConfig, build_csdn, csdn_loss
from csdenoise.gradient_stats import (
    GradientStatsMap,
    HashConfig,
    compute_stats,
    eigen_stats,
    hash_classes,
    normalized_stats_mse,
)
from csdenoise.metrics import psnr, ssim
from csdenoise.model_io import load_model, save_model
from csdenoise.pcn import PcnConfig, build_pcn, pcn_forward
from csdenoise.pipeline import TrainConfig, add_awgn, evaluate, train_csdn, train_pcn
from helpers import cs_layer, fd_worst_rel_err, fd_worst_rel_err_params, plan_for


def _report(number: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_degenerate_csconv_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        h = int(rng.integers(5, 12))
        w = int(rng.integers(5, 12))
        base = rng.standard_normal((c_out, c_in, 3, 3))
        bias = rng.standard_normal(c_out)
        bank = cs_layer([base] * m, [bias] * m)
        q = Tensor(rng.standard_normal((n, c_in, h, w)))
        classes = rng.integers(1, m + 1, size=(n, h, w))
        got = csconv_forward(q, plan_for(q, classes, bank), bank).data
        ref = F.conv2d(
            Tensor(q.data), Tensor(base), Tensor(bias.reshape(1, c_out, 1, 1))
        ).data
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.time() - t0
    _report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"20 shared-bank instances, max |csconv - conv| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_suite():
    t0 = time.time()
    worst_ops = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)

        x = Tensor(rng.standard_normal((2, 4, 5, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal((6, 2, 3, 3)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal((1, 6, 1, 1)) * 0.1, requires_grad=True)
        w = Tensor(rng.standard_normal((2, 6, 5, 6)))
        worst_ops = max(worst_ops, fd_worst_rel_err(
            lambda: (F.conv2d(x, k, b, groups=2) * w).sum(), [x, k, b],
            n_coords=6, seed=seed))

        xv = rng.standard_normal((2, 3, 4, 4))
        xv += np.where(xv >= 0, 0.1, -0.1)
        xp = Tensor(xv, requires_grad=True)
        al = Tensor(rng.random((1, 3, 1, 1)) * 0.5, requires_grad=True)
        wp = Tensor(rng.standard_normal((2, 3, 4, 4)))
        worst_ops = max(worst_ops, fd_worst_rel_err(
            lambda: (F.prelu(xp, al) * wp).sum(), [xp, al],
            n_coords=6, seed=seed))

        xu = Tensor(rng.standard_normal((1, 2, 4, 5)), requires_grad=True)
        wu = Tensor(rng.standard_normal((1, 2, 8, 10)))
        worst_ops = max(worst_ops, fd_worst_rel_err(
            lambda: (F.bilinear_upsample2x(xu) * wu).sum(), [xu],
            n_coords=6, seed=seed))

        xd = Tensor(rng.standard_normal((1, 2, 6, 4)), requires_grad=True)
        wd = Tensor(rng.standard_normal((1, 2, 3, 2)))
        worst_ops = max(worst_ops, fd_worst_rel_err(
            lambda: (F.avg_downsample2x(xd) * wd).sum(), [xd],
            n_coords=6, seed=seed))

        av = rng.standard_normal((1, 2, 4, 4))
        bv = av + np.where(rng.random((1, 2, 4, 4)) > 0.5, 0.6, -0.6)
        at = Tensor(av, requires_grad=True)
        worst_ops = max(worst_ops, fd_worst_rel_err(
            lambda: F.l1_loss(at, Tensor(bv)), [at], n_coords=6, seed=seed))

        qa = Tensor(rng.standard_normal((1, 3, 5, 5)), requires_grad=True)
        bank = cs_layer(
            [rng.standard_normal((4, 3, 3, 3)) * 0.4 for _ in range(5)],
            [rng.standard_normal(4) * 0.1 for _ in range(5)],
        )
        cls = rng.integers(1, 6, size=(5, 5))
        wq = Tensor(rng.standard_normal((1, 4, 5, 5)))
        worst_ops = max(worst_ops, fd_worst_rel_err(
            lambda: (csconv_forward(qa, plan_for(qa, cls, bank), bank) * wq).sum(),
            [qa, bank.kernels, bank.biases], n_coords=6, seed=seed))

    worst_net = 0.0
    for seed in range(5):
        rng = np.random.default_rng(250 + seed)
        net = build_csdn(
            CsdnConfig(arch="edsr", num_blocks=2, num_features=8,
                       use_csconv=True, num_classes=6), seed=seed)
        xin = Tensor(rng.random((1, 1, 8, 8)))
        target = Tensor(rng.random((1, 1, 8, 8)))
        classes = rng.integers(1, 7, size=(8, 8))
        worst_net = max(worst_net, fd_worst_rel_err_params(
            net, lambda: csdn_loss(net(xin, classes), target),
            per_tensor=2, seed=seed))
    elapsed = time.time() - t0
    _report(
        2,
        worst_ops < 1e-4 and worst_net < 1e-3 and elapsed < 60.0,
        f"ops worst rel err {worst_ops:.2e} (<1e-4), "
        f"2-block CS-EDSR {worst_net:.2e} (<1e-3), {elapsed:.1f}s",
    )


def test_criterion_03_eigenanalysis_oracle():
    rng = np.random.default_rng(303)
    worst_val = worst_phi = 0.0
    ok_ranges = True
    for _ in range(1000):
        m = rng.standard_normal((2, 2))
        t = m.T @ m
        a, b, d = t[0, 0], t[0, 1], t[1, 1]
        l1, l2, phi, mu = eigen_stats(a, b, d)
        # oracle: characteristic polynomial roots + library eigenvectors
        roots = np.sort(np.roots([1.0, -(a + d), a * d - b * b]).real)
        _, vecs = np.linalg.eigh(t)
        ref_phi = np.mod(np.arctan2(vecs[1, 1], vecs[0, 1]), np.pi)
        s1, s2 = np.sqrt(max(roots[1], 0.0)), np.sqrt(max(roots[0], 0.0))
        ref_mu = (s1 - s2) / (s1 + s2) if s1 + s2 > 0 else 0.0
        worst_val = max(worst_val, abs(l1 - roots[1]), abs(l2 - roots[0]),
                        abs(mu - ref_mu))
        dphi = abs(phi - ref_phi)
        worst_phi = max(worst_phi, min(dphi, np.pi - dphi))
        ok_ranges &= bool(0.0 <= mu <= 1.0) and bool(0.0 <= phi < np.pi)
    _report(
        3,
        worst_val < 1e-10 and worst_phi < 1e-10 and ok_ranges,
        f"1000 PSD tensors: worst eigen/coherence err {worst_val:.2e}, "
        f"worst angle err {worst_phi:.2e}, ranges valid {ok_ranges}",
    )


def test_criterion_04_hash_totality_and_boundaries():
    cfg = HashConfig()  # (8, 3, 3) with default thresholds
    phi = np.linspace(0.0, np.pi, 64, endpoint=False)
    lam = np.linspace(0.0, 0.002, 64)
    mu = np.linspace(0.0, 1.0, 64)
    pp, ll, mm = np.meshgrid(phi, lam, mu, indexing="ij")
    stats = GradientStatsMap(
        orientation=pp.reshape(64, -1),
        strength=ll.reshape(64, -1),
        coherence=mm.reshape(64, -1),
    )
    idx = hash_classes(stats, cfg).indices
    in_range = idx.min() >= 1 and idx.max() <= 72
    covered = np.unique(idx)

    # boundary semantics: floor on angle bins, strictly-below on thresholds
    def cls(p, l, m):
        s = GradientStatsMap(orientation=np.array([[p]]),
                             strength=np.array([[l]]),
                             coherence=np.array([[m]]))
        return int(hash_classes(s, cfg).indices[0, 0])

    edge = np.pi / 8
    boundaries_ok = (
        cls(0.0, 0.0, 0.0) == 1
        and cls(edge - 1e-12, 0.0, 0.0) == 1
        and cls(edge, 0.0, 0.0) == 10  # angle bin 1 starts exactly at the edge
        and cls(0.0, cfg.strength_thresholds[0], 0.0) == 1  # at threshold: low bin
        and cls(0.0, cfg.strength_thresholds[0] + 1e-12, 0.0) == 4
        and cls(0.0, 0.0, cfg.coherence_thresholds[0]) == 1
        and cls(0.0, 0.0, cfg.coherence_thresholds[0] + 1e-12) == 2
        and cls(np.pi - 1e-12, 1.0, 1.0) == 72
    )
    _report(
        4,
        in_range and boundaries_ok and covered.size == 72,
        f"64^3 sweep in 1..72 ({covered.size}/72 classes hit), "
        f"boundary rules hold: {boundaries_ok}",
    )


def test_criterion_05_flops_reconciliation():
    def kflops(net):
        return sum(flops for _, flops in net.flops_layers()) / 1000.0

    edsr16 = kflops(build_csdn(CsdnConfig(arch="edsr", num_blocks=16, num_features=16,
                                          use_csconv=False, num_classes=1)))
    carn16 = kflops(build_csdn(CsdnConfig(arch="carn", num_features=16,
                                          use_csconv=False, num_classes=1)))
    cs_edsr = kflops(build_csdn(CsdnConfig(arch="edsr", num_blocks=16, num_features=16,
                                           use_csconv=True, num_classes=72)))
    pcn = kflops(build_pcn(PcnConfig()))
    combined = cs_edsr + pcn

    ok = (
        abs(edsr16 - 145.1) <= 0.05 * 145.1
        and abs(carn16 - 72.6) <= 0.05 * 72.6
        and abs(combined - 148.0) <= 0.05 * 148.0
        and pcn <= 5.0
    )
    _report(
        5,
        ok,
        f"EDSR16 {edsr16:.1f} (145.1±5%), CARN16 {carn16:.1f} (72.6±5%), "
        f"CS-EDSR+classifier {combined:.1f} (148.0±5%), classifier {pcn:.2f} (≤5)",
    )


@pytest.fixture(scope="module")
def acceptance_images(toy_images):
    assert len(toy_images) == 5
    assert all(im.shape[0] <= 128 and im.shape[1] <= 128 for im in toy_images)
    return toy_images


@pytest.mark.slow
def test_criterion_06_toy_denoising_gain(acceptance_images):
    t0 = time.time()
    cfg = TrainConfig(sigma=25.0, batch_size=4, patch_size=48, epochs=10,
                      steps_per_epoch=150, learning_rate=1e-3, seed=0)
    steps = cfg.epochs * cfg.steps_per_epoch
    assert steps <= 2000
    net, history = train_csdn(
        acceptance_images, cfg,
        CsdnConfig(arch="edsr", num_blocks=2, num_features=8,
                   use_csconv=True, num_classes=72),
        classifier="raisr-noisy",
    )
    rows, summary = evaluate(net, acceptance_images, 25.0, seed=123,
                             classifier="raisr-noisy")
    gain = summary["mean_psnr"] - summary["mean_psnr_noisy"]
    elapsed = time.time() - t0
    _report(
        6,
        gain >= 3.0 and elapsed < 1800.0 and all(np.isfinite(h) for h in history),
        f"{steps} steps: mean PSNR {summary['mean_psnr_noisy']:.2f} -> "
        f"{summary['mean_psnr']:.2f} dB (gain {gain:.2f}, need ≥3), "
        f"{elapsed / 60:.1f} min",
    )


@pytest.mark.slow
def test_criterion_07_classification_quality_direction(acceptance_images):
    wins = 0
    details = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(sigma=25.0, batch_size=4, patch_size=48, epochs=6,
                          steps_per_epoch=100, learning_rate=1e-3, seed=seed)
        assert cfg.epochs * cfg.steps_per_epoch <= 2000
        net, _ = train_pcn(acceptance_images, cfg)
        rng = np.random.default_rng(1000 + seed)
        mse_pcn, mse_analysis = [], []
        for img in acceptance_images:
            noisy = add_awgn(img, 25.0, rng)
            target = compute_stats(img)
            mse_pcn.append(normalized_stats_mse(pcn_forward(net, noisy), target))
            mse_analysis.append(normalized_stats_mse(compute_stats(noisy), target))
        won = np.mean(mse_pcn) < np.mean(mse_analysis)
        wins += won
        details.append(f"seed{seed}: {np.mean(mse_pcn):.4f} vs "
                       f"{np.mean(mse_analysis):.4f}")
    _report(7, wins >= 2, f"network-vs-analysis stats MSE on noisy input, "
                          f"{wins}/3 seeds better ({'; '.join(details)})")


@pytest.mark.slow
def test_criterion_08_ablation_direction(acceptance_images):
    wins = 0
    details = []
    csdn_cfg = CsdnConfig(arch="edsr", num_blocks=2, num_features=8,
                          use_csconv=True, num_classes=72)
    for seed in (0, 1, 2):
        finals = {}
        for mode in ("raisr-clean", "raisr-noisy"):
            cfg = TrainConfig(sigma=25.0, batch_size=4, patch_size=40,
                              epochs=6, steps_per_epoch=125,
                              learning_rate=1e-3, seed=seed)
            _, history = train_csdn(acceptance_images, cfg, csdn_cfg,
                                    classifier=mode)
            finals[mode] = history[-1]
        won = finals["raisr-clean"] <= finals["raisr-noisy"]
        wins += won
        details.append(f"seed{seed}: clean {finals['raisr-clean']:.5f} vs "
                       f"noisy {finals['raisr-noisy']:.5f}")
    _report(8, wins >= 2, f"clean-stats classification reaches ≤ final loss in "
                          f"{wins}/3 paired runs ({'; '.join(details)})")


def test_criterion_09_serialization(tmp_path):
    rng = np.random.default_rng(909)
    net = build_csdn(CsdnConfig(arch="edsr", num_blocks=2, num_features=8,
                                use_csconv=True, num_classes=72), seed=4)
    for _, p in net.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.shape)
    hash_cfg = HashConfig()
    p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
    save_model(net, hash_cfg, p1, seed=4)
    loaded, loaded_hash = load_model(p1)
    save_model(loaded, loaded_hash, p2, seed=4)
    byte_identical = p1.read_bytes() == p2.read_bytes()

    images = [rng.random((32, 32)) for _ in range(2)]
    rows_a, _ = evaluate(net, images, 25.0, seed=7, classifier="raisr-noisy")
    rows_b, _ = evaluate(loaded, images, 25.0, seed=7, classifier="raisr-noisy")
    bit_match = rows_a == rows_b
    _report(9, byte_identical and bit_match,
            f"save->load->save byte-identical: {byte_identical}, "
            f"seeded evaluation bit-match: {bit_match}")


def test_criterion_10_metric_values():
    rng = np.random.default_rng(1010)
    a = rng.random((64, 64)) * 0.5 + 0.2
    offset_psnr = psnr(a, a + 0.0625)
    ssim_self = ssim(a, a.copy())
    flat = np.full((128, 128), 0.5)
    rows, _ = evaluate(None, [flat], 25.0, seed=11)
    identity_psnr = rows[0]["psnr"]
    expected_identity = 20.0 * np.log10(255.0 / 25.0)
    ok = (
        abs(offset_psnr - 24.08) <= 0.01
        and ssim_self == 1.0
        and abs(identity_psnr - expected_identity) <= 0.3
    )
    _report(
        10,
        ok,
        f"offset PSNR {offset_psnr:.4f} (24.08±0.01), SSIM(a,a)={ssim_self}, "
        f"identity denoiser {identity_psnr:.2f} ({expected_identity:.2f}±0.3)",
    )
