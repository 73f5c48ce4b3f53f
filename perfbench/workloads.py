"""The three benchmark workloads and their output checks.

Each workload has a set-up step (inputs, fixture models, warm-up), a timed
operation that goes through a public entry point of the package, a check
of every operation's output, a guard on the input properties the timings
depend on, and a small canonical operation whose result is compared with
the values stored in ``reference.json``.

The package is looked up through module attributes at call time, so the
tracer's wrappers are used when it is installed.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import csdenoise
from csdenoise import cli
from inputs import make_images, make_mosaic

SIGMA = 25.0
# Inputs of the canonical reference operations; independent of --seed.
CHECK_SEED = 7
CHECK_SIZE = 64
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Loss histories may differ by this relative amount from the stored values.
# Reversing the order of the conv sums moved them by 4e-16; a CSConv input
# gradient scaled by 0.9 moved them by 3e-2 and a class dispatched to the
# wrong kernel by 0.3. A gradient scaled uniformly does not show: Adam's
# update does not depend on the gradient's scale.
LOSS_RTOL = 1e-6
# A denoised canonical image may differ from the stored one in this share
# of pixels (by more than one grey level) and by this much PSNR. A classifier
# retrained with reordered sums can flip the class of a few boundary pixels.
PIXEL_MISMATCH_SHARE = 0.02
PSNR_TOL_DB = 0.05


@dataclass(frozen=True)
class Profile:
    """Input sizes of one run; ``full`` is the benchmark, ``smoke`` the test."""

    image_size: int
    patch_size: int
    batch_size: int
    warm_patch: int
    pcn_train_size: int
    pcn_train_patch: int
    pcn_train_steps: int
    min_denoise_classes: int
    min_denoise_effective: float
    min_train_classes: float


PROFILES = {
    "full": Profile(image_size=256, patch_size=96, batch_size=4, warm_patch=32,
                    pcn_train_size=128, pcn_train_patch=48, pcn_train_steps=30,
                    min_denoise_classes=64, min_denoise_effective=15.0,
                    min_train_classes=10.0),
    "smoke": Profile(image_size=64, patch_size=32, batch_size=2, warm_patch=16,
                     pcn_train_size=64, pcn_train_patch=32, pcn_train_steps=10,
                     min_denoise_classes=8, min_denoise_effective=2.0,
                     min_train_classes=2.0),
}


class CheckFailed(Exception):
    """An operation's output does not match its reference."""


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def class_occupancy(indices: np.ndarray, num_classes: int) -> tuple[int, float]:
    """(classes present, effective class count = exp(entropy of the histogram))."""
    counts = np.bincount(np.asarray(indices).ravel(), minlength=num_classes + 1)[1:]
    p = counts[counts > 0] / counts.sum()
    return int((counts > 0).sum()), float(np.exp(-(p * np.log(p)).sum()))


def check_losses(history, expected, rtol=LOSS_RTOL):
    """Raise CheckFailed unless the loss history is finite and matches."""
    history = [float(v) for v in history]
    if not all(math.isfinite(v) for v in history):
        raise CheckFailed(f"non-finite loss in {history}")
    if len(history) != len(expected) or not np.allclose(history, expected, rtol=rtol, atol=0.0):
        raise CheckFailed(f"loss history {history} differs from reference {expected}")


def check_image(out_u8: np.ndarray, psnr_db: float, expected: dict):
    """Compare a denoised 8-bit image with a stored digest, pixels and PSNR."""
    if not math.isfinite(psnr_db):
        raise CheckFailed(f"non-finite PSNR {psnr_db}")
    if abs(psnr_db - expected["psnr"]) > PSNR_TOL_DB:
        raise CheckFailed(f"PSNR {psnr_db:.4f} dB differs from reference {expected['psnr']:.4f}")
    if hashlib.sha256(out_u8.tobytes()).hexdigest() == expected["sha256"]:
        return
    ref = np.frombuffer(base64.b64decode(expected["pixels"]), dtype=np.uint8)
    if ref.size != out_u8.size:
        raise CheckFailed(f"output has {out_u8.size} pixels, reference {ref.size}")
    off = np.abs(out_u8.reshape(-1).astype(np.int64) - ref.astype(np.int64)) > 1
    if off.mean() > PIXEL_MISMATCH_SHARE:
        raise CheckFailed(f"{off.mean():.2%} of pixels differ from the reference image")


# -- shared fixtures ------------------------------------------------------------------


def fixture_csdn(seed: int):
    """CS-EDSR-16x16, M=72, with seeded weights whose class stacks differ.

    The built network starts every class from one shared stack and its
    untrained output saturates, so neither would show a class dispatched to
    the wrong kernel. Residual-block kernels are redrawn per class at a
    small scale and the tail is scaled so the output mostly stays in [0, 1].
    """
    net = csdenoise.build_csdn(csdenoise.CsdnConfig(), seed=seed)
    rng = np.random.default_rng([seed, 2])
    for name, p in net.named_parameters():
        if name.startswith("blocks.") and p.data.ndim == 4 and p.shape[2] == 3:
            p.data[...] = rng.normal(0.0, 0.3 / math.sqrt(p.shape[1] * 9), p.shape)
    net.tail.kernel.data *= 0.2
    net.tail.bias.data[...] = 0.5
    return net


def fixture_pcn(size: int, patch: int, steps: int, seed: int):
    """A PCN trained briefly at lr 1e-3, enough to spread maps over the classes."""
    cfg = csdenoise.TrainConfig(sigma=SIGMA, batch_size=2, patch_size=patch, epochs=1,
                                steps_per_epoch=steps, learning_rate=1e-3, seed=0)
    net, history = csdenoise.train_pcn(make_images(size, seed), cfg)
    return net, history


def _noisy_u8(clean: np.ndarray, seed: int) -> np.ndarray:
    noisy = csdenoise.add_awgn(clean, SIGMA, np.random.default_rng([seed, 3]))
    return csdenoise.image_io.quantize_unit(noisy)


def _write_pgm(u8: np.ndarray, path: Path):
    csdenoise.write_image(u8 / 255.0, path)


def _denoise_cli(in_path, pcn_path, csdn_path, out_path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_cli(["denoise", "--in", str(in_path), "--pcn", str(pcn_path),
                            "--csdn", str(csdn_path), "--out", str(out_path)])


def _read_u8(path: Path) -> np.ndarray:
    return csdenoise.image_io.quantize_unit(csdenoise.read_image(path))


# -- workloads ------------------------------------------------------------------------


class _Train:
    """A training entry point timed one call at a time on seeded images."""

    epochs: int
    steps_per_epoch: int
    params_key: str

    def __init__(self, profile: Profile, workdir: Path):
        self.p = profile
        self.cfg = self._config(profile.batch_size, profile.patch_size,
                                self.epochs, self.steps_per_epoch, lr=1e-4)
        self.units_per_op = self.epochs * self.steps_per_epoch  # training steps
        self.pixels_per_op = self.units_per_op * profile.batch_size * profile.patch_size ** 2
        self.first = None

    @staticmethod
    def _config(batch, patch, epochs, steps, lr):
        return csdenoise.TrainConfig(sigma=SIGMA, batch_size=batch, patch_size=patch,
                                     epochs=epochs, steps_per_epoch=steps,
                                     learning_rate=lr, seed=0)

    def _train(self, images, cfg):
        raise NotImplementedError

    def setup(self, seed: int):
        self.images = make_images(self.p.image_size, seed)
        self._train(self.images, self._config(1, self.p.warm_patch, 1, 1, lr=1e-4))

    def op(self, i: int):
        return self._train(self.images, self.cfg)

    def check(self, result):
        net, history = result
        if self.first is None:
            check_losses(history, history)
            self.first = (net.parameter_count(), list(history))
        check_losses(history, self.first[1], rtol=1e-9)
        return {"final_loss": float(history[-1])}

    def guard(self, seed: int, reference: dict) -> dict:
        props = {
            "image_shapes": sorted({im.shape for im in self.images}),
            "batch": self.p.batch_size, "patch": self.p.patch_size,
            "param_count": self.first[0] if self.first else None,
        }
        _require(props["param_count"] == reference["properties"][self.params_key],
                 f"the network has {props['param_count']} parameters")
        _require(props["image_shapes"] == [(self.p.image_size, self.p.image_size)],
                 f"image shapes {props['image_shapes']}")
        return props

    def reference_op(self):
        cfg = self._config(2, 32, 3, 1, lr=1e-3)
        _, history = self._train(make_images(CHECK_SIZE, CHECK_SEED), cfg)
        return {"losses": [float(v) for v in history]}

    @staticmethod
    def check_reference(result, expected):
        check_losses(result["losses"], expected["losses"])


class TrainCsdn(_Train):
    """train_csdn: CS-EDSR-16x16, M=72, raisr-noisy classes, one step per call."""

    name = "train-csdn"
    epochs, steps_per_epoch = 1, 1
    params_key = "csdn_params"

    def _train(self, images, cfg):
        return csdenoise.train_csdn(images, cfg, csdenoise.CsdnConfig(),
                                    classifier="raisr-noisy")

    def guard(self, seed: int, reference: dict) -> dict:
        props = super().guard(seed, reference)
        rng = np.random.default_rng([seed, 4])
        occ = [class_occupancy(
            csdenoise.compute_class_map(csdenoise.add_awgn(im, SIGMA, rng))[1].indices, 72)
            for im in self.images]
        props["classes_present"] = float(np.mean([c for c, _ in occ]))
        props["effective_classes"] = float(np.mean([e for _, e in occ]))
        _require(props["classes_present"] >= self.p.min_train_classes,
                 f"raisr-noisy maps hold {props['classes_present']:.1f} classes")
        return props


class TrainPcn(_Train):
    """train_pcn: default PcnConfig, two epochs of two steps per call."""

    name = "train-pcn"
    epochs, steps_per_epoch = 2, 2
    params_key = "pcn_params"

    def _train(self, images, cfg):
        return csdenoise.train_pcn(images, cfg)


class Denoise:
    """run_cli denoise on noisy mosaics, with a briefly trained PCN."""

    name = "denoise"
    units_per_op = 1  # images
    num_images = 2

    def __init__(self, profile: Profile, workdir: Path):
        self.p = profile
        self.dir = workdir
        self.pixels_per_op = profile.image_size ** 2
        self.first: dict[int, tuple] = {}

    def _models(self, seed, size, patch, steps, tag):
        pcn, _ = fixture_pcn(size, patch, steps, seed)
        csdn = fixture_csdn(seed)
        hash_cfg = csdenoise.HashConfig()
        pcn_path, csdn_path = self.dir / f"{tag}pcn.model", self.dir / f"{tag}csdn.model"
        csdenoise.save_model(pcn, hash_cfg, pcn_path, seed=0)
        csdenoise.save_model(csdn, hash_cfg, csdn_path, seed=seed)
        return pcn, csdn, pcn_path, csdn_path

    def setup(self, seed: int):
        p = self.p
        self.pcn, self.csdn, self.pcn_path, self.csdn_path = self._models(
            seed, p.pcn_train_size, p.pcn_train_patch, p.pcn_train_steps, "")
        self.clean, self.inputs = [], []
        for k in range(self.num_images):
            clean = make_mosaic(p.image_size, seed * self.num_images + k)
            path = self.dir / f"noisy{k}.pgm"
            _write_pgm(_noisy_u8(clean, seed * self.num_images + k), path)
            self.clean.append(clean)
            self.inputs.append(path)
        warm = self.dir / "warm.pgm"
        _write_pgm(_noisy_u8(make_mosaic(32, seed), seed), warm)
        code = _denoise_cli(warm, self.pcn_path, self.csdn_path, self.dir / "warm_out.pgm")
        _require(code == 0, f"warm-up denoise exited with {code}")

    def op(self, i: int):
        k = i % self.num_images
        out = self.dir / f"out{k}.pgm"
        return k, out, _denoise_cli(self.inputs[k], self.pcn_path, self.csdn_path, out)

    def check(self, result):
        k, out, code = result
        if code != 0:
            raise CheckFailed(f"denoise exited with {code}")
        u8 = _read_u8(out)
        psnr_db = csdenoise.psnr(u8 / 255.0, self.clean[k])
        digest = hashlib.sha256(u8.tobytes()).hexdigest()
        if k not in self.first:
            if not math.isfinite(psnr_db):
                raise CheckFailed(f"non-finite PSNR {psnr_db}")
            self.first[k] = (digest, psnr_db)
        if (digest, psnr_db) != self.first[k]:
            raise CheckFailed(f"image {k}: output differs from the first denoise of the run")
        return {"psnr": psnr_db}

    def guard(self, seed: int, reference: dict) -> dict:
        hash_cfg = csdenoise.HashConfig()
        occ = [class_occupancy(
            csdenoise.pcn_class_map(self.pcn, csdenoise.read_image(path), hash_cfg)[1].indices,
            hash_cfg.num_classes) for path in self.inputs]
        props = {
            "image_shapes": sorted({csdenoise.read_image(p).shape for p in self.inputs}),
            "csdn_params": self.csdn.parameter_count(),
            "pcn_params": self.pcn.parameter_count(),
            "classes_present": min(c for c, _ in occ),
            "effective_classes": min(e for _, e in occ),
        }
        props_ref = reference["properties"]
        _require(props["csdn_params"] == props_ref["csdn_params"],
                 f"CS-EDSR has {props['csdn_params']} parameters")
        _require(props["pcn_params"] == props_ref["pcn_params"],
                 f"PCN has {props['pcn_params']} parameters")
        _require(props["image_shapes"] == [(self.p.image_size, self.p.image_size)],
                 f"image shapes {props['image_shapes']}")
        _require(props["classes_present"] >= self.p.min_denoise_classes,
                 f"class maps hold only {props['classes_present']} classes")
        _require(props["effective_classes"] >= self.p.min_denoise_effective,
                 f"effective class count fell to {props['effective_classes']:.1f}")
        return props

    def reference_op(self):
        _, _, pcn_path, csdn_path = self._models(CHECK_SEED, CHECK_SIZE, 32, 10, "check_")
        clean = make_mosaic(CHECK_SIZE, CHECK_SEED)
        noisy, out = self.dir / "check_noisy.pgm", self.dir / "check_out.pgm"
        _write_pgm(_noisy_u8(clean, CHECK_SEED), noisy)
        code = _denoise_cli(noisy, pcn_path, csdn_path, out)
        if code != 0:
            raise CheckFailed(f"canonical denoise exited with {code}")
        u8 = _read_u8(out)
        return {
            "psnr": csdenoise.psnr(u8 / 255.0, clean),
            "sha256": hashlib.sha256(u8.tobytes()).hexdigest(),
            "pixels": base64.b64encode(u8.tobytes()).decode("ascii"),
        }

    @staticmethod
    def check_reference(result, expected):
        ref_pixels = result["pixels"]
        check_image(np.frombuffer(base64.b64decode(ref_pixels), dtype=np.uint8),
                    result["psnr"], expected)


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(f"workload property changed: {message}")


WORKLOADS = {w.name: w for w in (TrainCsdn, TrainPcn, Denoise)}
