"""Data synthesis, two-stage training protocol, and evaluation.

Stage one trains the classification network against statistics measured
on clean patches; stage two freezes it and trains the denoiser under a
chosen pixel classifier (network prediction, or structure-tensor
analysis of the noisy or clean patch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .csdn import CsdnConfig, build_csdn, check_class_count, csdn_forward, csdn_loss
from .errors import ConfigError, CsdError, ShapeError
from .gradient_stats import (
    HashConfig,
    compute_class_map,
    compute_stats,
    normalize_stats,
)
from .metrics import psnr, ssim
from .optim import Adam
from .pcn import PcnConfig, build_pcn, pcn_class_map, pcn_loss

CLASSIFIER_MODES = ("pcn", "raisr-noisy", "raisr-clean")


@dataclass
class TrainConfig:
    sigma: float = 25.0
    batch_size: int = 4
    patch_size: int = 96
    epochs: int = 100
    steps_per_epoch: int = 50
    learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        _check_sigma(self.sigma)
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(
                f"learning rate must be finite and >= 0, got {self.learning_rate}"
            )
        if min(self.batch_size, self.patch_size, self.epochs, self.steps_per_epoch) < 1:
            raise ConfigError("batch/patch/epochs/steps must all be >= 1")
        _check_seed(self.seed)


# -- data ----------------------------------------------------------------------


def _check_sigma(sigma: float):
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")


def _check_seed(seed: int):
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def add_awgn(img: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive white Gaussian noise with std sigma in 8-bit units, unclipped."""
    _check_sigma(sigma)
    img = np.asarray(img, dtype=np.float64)
    return img + rng.normal(0.0, sigma / 255.0, size=img.shape)


def augment_patch(patch: np.ndarray, transform_id: int) -> np.ndarray:
    """Apply one of the 8 dihedral transforms; id 0 is the identity."""
    if not 0 <= transform_id <= 7:
        raise ConfigError(f"transform_id must be in 0..7, got {transform_id}")
    patch = np.asarray(patch)
    quarter_turns = transform_id % 4
    if patch.shape[0] != patch.shape[1] and quarter_turns % 2 == 1:
        raise ShapeError(
            f"quarter-turn rotation needs a square patch, got {patch.shape}"
        )
    out = np.fliplr(patch) if transform_id >= 4 else patch
    return np.rot90(out, quarter_turns).copy()


def _check_images(images, patch_size: int | None = None):
    images = [np.asarray(im, dtype=np.float64) for im in images]
    if not images:
        raise ConfigError("no images given")
    for i, im in enumerate(images):
        if im.ndim != 2:
            raise ShapeError(f"image {i} is not 2-D: {im.shape}")
        if not np.isfinite(im).all():
            raise ConfigError(f"image {i} holds non-finite values")
        if patch_size is not None and min(im.shape) < patch_size:
            raise ConfigError(
                f"image {i} ({im.shape}) is smaller than patch size {patch_size}"
            )
    return images


def _check_step_finite(net, loss: float, epoch: int, step: int):
    """Stop a diverged run before the optimizer writes non-finite weights."""
    grad_sq = sum(float(np.vdot(p.grad, p.grad)) for p in net.parameters() if p.grad is not None)
    if not (np.isfinite(loss) and np.isfinite(grad_sq)):
        raise CsdError(f"training diverged at epoch {epoch + 1}, step {step + 1}: "
                       f"loss {loss}, gradient norm {np.sqrt(grad_sq)}")


def sample_clean_patch(images, patch_size: int, rng: np.random.Generator) -> np.ndarray:
    img = images[int(rng.integers(len(images)))]
    top = int(rng.integers(img.shape[0] - patch_size + 1))
    left = int(rng.integers(img.shape[1] - patch_size + 1))
    patch = img[top : top + patch_size, left : left + patch_size]
    return augment_patch(patch, int(rng.integers(8)))


# -- classification front-end ---------------------------------------------------


def _check_classifier(mode: str, pcn):
    if mode not in CLASSIFIER_MODES:
        raise ConfigError(f"unknown classifier mode {mode!r}; pick from {CLASSIFIER_MODES}")
    if mode == "pcn" and pcn is None:
        raise ConfigError("classifier mode 'pcn' needs a trained network")


def classify_for_denoiser(noisy: np.ndarray, clean: np.ndarray | None,
                          mode: str, pcn=None, hash_cfg: HashConfig | None = None):
    """Class map for a patch under one of the classifier modes."""
    hash_cfg = hash_cfg if hash_cfg is not None else HashConfig()
    _check_classifier(mode, pcn)
    if mode == "pcn":
        _, cmap = pcn_class_map(pcn, noisy, hash_cfg)
    elif mode == "raisr-noisy":
        _, cmap = compute_class_map(noisy, hash_cfg)
    else:
        if clean is None:
            raise ConfigError("classifier mode 'raisr-clean' needs the clean image")
        _, cmap = compute_class_map(clean, hash_cfg)
    return cmap


# -- training ----------------------------------------------------------------------

# The protocol halves the learning rate every 20 epochs.
LR_HALVING_EPOCHS = 20


def _fit(net, images, cfg: TrainConfig, step_loss):
    """Adam loop shared by both stages; returns the per-epoch mean loss history.

    Each step draws a batch of clean patches and their noisy copies, both
    (batch, 1, patch, patch), and ``step_loss(clean, noisy)`` maps it to the
    scalar loss tensor of ``net``.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(net.parameters(), learning_rate=cfg.learning_rate)
    shape = (cfg.batch_size, 1, cfg.patch_size, cfg.patch_size)
    history = []
    for epoch in range(cfg.epochs):
        opt.learning_rate = cfg.learning_rate * 0.5 ** (epoch // LR_HALVING_EPOCHS)
        losses = []
        for step in range(cfg.steps_per_epoch):
            clean_batch, noisy_batch = np.empty(shape), np.empty(shape)
            for b in range(cfg.batch_size):
                clean = sample_clean_patch(images, cfg.patch_size, rng)
                clean_batch[b, 0] = clean
                noisy_batch[b, 0] = add_awgn(clean, cfg.sigma, rng)
            loss = step_loss(clean_batch, noisy_batch)
            net.zero_grads()
            loss.backward()
            losses.append(loss.item())
            del loss  # the step's graph goes before the next batch's forward
            _check_step_finite(net, losses[-1], epoch, step)
            opt.step()
        history.append(float(np.mean(losses)))
    net.zero_grads()
    return history


def train_pcn(images, cfg: TrainConfig, pcn_cfg: PcnConfig | None = None):
    """Train the classification network on clean-image statistics targets.

    Returns (network, per-epoch mean loss history).
    """
    pcn_cfg = pcn_cfg if pcn_cfg is not None else PcnConfig()
    images = _check_images(images, cfg.patch_size)
    net = build_pcn(pcn_cfg, seed=cfg.seed)
    if cfg.patch_size % net.scale_factor:
        raise ConfigError(
            f"patch size {cfg.patch_size} must be divisible by {net.scale_factor} "
            f"for {pcn_cfg.num_scales} scales"
        )

    def step_loss(clean, noisy):
        target = np.stack([normalize_stats(compute_stats(c[0])) for c in clean])
        return pcn_loss(net(Tensor(noisy)), Tensor(target))

    return net, _fit(net, images, cfg, step_loss)


def train_csdn(images, cfg: TrainConfig, csdn_cfg: CsdnConfig | None = None,
               classifier: str = "raisr-noisy", pcn=None,
               hash_cfg: HashConfig | None = None):
    """Train the denoiser with the classification front-end frozen.

    Returns (network, per-epoch mean loss history).
    """
    csdn_cfg = csdn_cfg if csdn_cfg is not None else CsdnConfig()
    hash_cfg = hash_cfg if hash_cfg is not None else HashConfig()
    if csdn_cfg.use_csconv:  # a plain denoiser reads no classes
        _check_classifier(classifier, pcn)
    check_class_count(hash_cfg, csdn_cfg)
    images = _check_images(images, cfg.patch_size)
    net = build_csdn(csdn_cfg, seed=cfg.seed)

    def step_loss(clean, noisy):
        classes = None
        if csdn_cfg.use_csconv:
            classes = np.stack([
                classify_for_denoiser(n[0], c[0], classifier, pcn, hash_cfg).indices
                for c, n in zip(clean, noisy)
            ])
        return csdn_loss(net(Tensor(noisy), classes), Tensor(clean))

    return net, _fit(net, images, cfg, step_loss)


# -- inference and evaluation ------------------------------------------------------


def denoise_image(net, noisy: np.ndarray, classifier: str = "raisr-noisy", pcn=None,
                  hash_cfg: HashConfig | None = None, clean: np.ndarray | None = None):
    """Classify (for a class-specific net), denoise and clip one image to [0, 1].

    The PCN classifies a float32 copy of the image, as the denoiser runs in
    float32; the raisr modes read the image as given."""
    hash_cfg = hash_cfg if hash_cfg is not None else HashConfig()
    check_class_count(hash_cfg, net.config)
    classes = None
    if net.config.use_csconv:
        image = np.asarray(noisy, np.float32) if classifier == "pcn" else noisy
        classes = classify_for_denoiser(image, clean, classifier, pcn, hash_cfg).indices
    return np.clip(csdn_forward(net, noisy, classes), 0.0, 1.0)


def evaluate(net, images, sigma: float, seed: int = 0, classifier: str = "raisr-noisy",
             pcn=None, hash_cfg: HashConfig | None = None, names=None):
    """Corrupt, classify, denoise and score each image.

    ``net=None`` scores the identity denoiser (output = noisy input).
    Returns (per-image row dicts, summary dict with mean metrics).
    """
    _check_seed(seed)
    images = _check_images(images)
    if names is None:
        names = [f"image{i:03d}" for i in range(len(images))]
    if len(names) != len(images):
        raise ConfigError(f"{len(names)} names given for {len(images)} images")
    rng = np.random.default_rng(seed)
    rows = []
    for name, clean in zip(names, images):
        noisy = add_awgn(clean, sigma, rng)
        noisy_clipped = np.clip(noisy, 0.0, 1.0)
        restored = noisy_clipped if net is None else denoise_image(
            net, noisy, classifier, pcn, hash_cfg, clean)
        rows.append(
            {
                "image": name,
                "sigma": float(sigma),
                "psnr_noisy": psnr(noisy_clipped, clean),
                "psnr": psnr(restored, clean),
                "ssim": ssim(restored, clean),
            }
        )
    summary = {f"mean_{key}": float(np.mean([r[key] for r in rows]))
               for key in ("psnr_noisy", "psnr", "ssim")}
    return rows, summary
