"""Command-line driver.

Subcommands: classify, denoise, train-pcn, train-csdn, eval, flops.
Exit codes: 0 success, 1 usage error, 2 runtime/data error. Defaults come from
the config dataclasses; a flat ``key = value`` file (``--config``) overrides
them, and explicit flags win over both.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .csdn import CsdnConfig
from .errors import ConfigError, CsdError
from .gradient_stats import HashConfig, compute_class_map, normalize_stats
from .image_io import read_image, write_image
from .model_io import load_kind, load_model, save_model
from .pcn import PcnConfig, build_pcn, pcn_class_map
from .pipeline import (
    CLASSIFIER_MODES,
    TrainConfig,
    denoise_image,
    evaluate,
    train_csdn,
    train_pcn,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


# -- config file ------------------------------------------------------------------


def _parse_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: no command reads the key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args, key, default, cast=str):
    """Flag value if given, else config-file value, else default."""
    explicit = getattr(args, key, None)
    if explicit is not None:
        return explicit
    cfg = args._file_config
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config value {key} = {cfg[key]!r}: {exc}") from exc


def _float_list(text: str):
    return tuple(float(t) for t in text.replace(",", " ").split())


# config fields whose flag (and config-file key) has another name
_FLAG_NAMES = {"learning_rate": "lr"}

# the configs each subcommand builds, each limited to the fields it has flags for
_COMMAND_CONFIGS = {
    "classify": {HashConfig: None},
    "train-pcn": {PcnConfig: None, TrainConfig: None, HashConfig: None},
    "train-csdn": {TrainConfig: None, HashConfig: None,
                   CsdnConfig: ("num_blocks", "num_features")},
    "eval": {TrainConfig: ("sigma", "seed")},
}


def _fields(cls, names=None):
    """(field, flag/file key, cast by its default's type) per field of ``cls`` in ``names``."""
    for field in dataclasses.fields(cls):
        if names is None or field.name in names:
            cast = _float_list if isinstance(field.default, tuple) else type(field.default)
            yield field, _FLAG_NAMES.get(field.name, field.name), cast


# a config file may set what any command reads, since one file seeds both stages
_FILE_KEYS = {key for configs in _COMMAND_CONFIGS.values() for cls, names in configs.items()
              for _, key, _ in _fields(cls, names)} | {"classifier", "arch"}


def _build(cls, args, **given):
    """A ``cls`` config: each field not ``given`` comes from its flag, the config
    file or its default. Fields without a flag on this command keep the default."""
    for field, key, cast in _fields(cls):
        if field.name not in given and hasattr(args, key):
            given[field.name] = _resolve(args, key, field.default, cast)
    return cls(**given)


def _pcn_for(args, reads_classes: bool, hash_cfg: HashConfig | None = None):
    """(--pcn model or None, hash config of the classes, classifier mode), by one rule:
    a --pcn is read only where the model dispatches on classes and the classifier is
    pcn; it is required there and refused elsewhere. The classifier is --classifier
    where a command has it (pcn when --pcn is given, else raisr-noisy, by default),
    raisr-noisy with --raisr, and pcn otherwise. A read PCN fixes the classes: hash
    flags are refused, and a denoiser's ``hash_cfg`` must be its own. Without a PCN
    the classes hash by ``hash_cfg``, or else by the hash flags."""
    classifier = "raisr-noisy" if getattr(args, "raisr", False) else "pcn"
    if hasattr(args, "classifier"):
        classifier = _resolve(args, "classifier", "raisr-noisy" if args.pcn is None else "pcn")
    if classifier not in CLASSIFIER_MODES:  # a config-file value, unchecked by argparse
        raise ConfigError(f"unknown classifier {classifier!r}; pick from {CLASSIFIER_MODES}")
    if args.pcn is None:
        if reads_classes and classifier == "pcn":
            raise ConfigError("the pcn classifier needs a --pcn model")
        return None, hash_cfg if hash_cfg is not None else _build(HashConfig, args), classifier
    if not (reads_classes and classifier == "pcn"):
        why = f"with classifier {classifier}" if reads_classes else "for a model without CSConv"
        raise ConfigError(f"--pcn is not read {why}; drop it")
    flags = [f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(HashConfig)
             if getattr(args, f.name, None) is not None]
    if flags:
        raise ConfigError(f"the --pcn model fixes the hash config; drop {' '.join(flags)}")
    pcn, pcn_hash = load_kind(args.pcn, "pcn")
    if hash_cfg is not None and pcn_hash != hash_cfg:
        what = "hash" if pcn_hash.num_classes == hash_cfg.num_classes else "class-count"
        raise ConfigError(f"{what} mismatch: --pcn has {pcn_hash}, the denoiser {hash_cfg}")
    return pcn, pcn_hash, classifier


def _load_images(directory):
    root = Path(directory)
    if not root.is_dir():
        raise ConfigError(f"{directory}: not a directory")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in (".pgm", ".png"))
    if not paths:
        raise ConfigError(f"no images found in {directory}")
    return [read_image(p) for p in paths], [p.stem for p in paths]


def _scale_class_map(indices: np.ndarray, num_classes: int) -> np.ndarray:
    if num_classes <= 1:
        return np.zeros_like(indices, dtype=np.float64)
    return (indices - 1) / (num_classes - 1)


# -- subcommands --------------------------------------------------------------------


def _cmd_classify(args) -> int:
    img = read_image(args.infile)
    net, hash_cfg, _ = _pcn_for(args, reads_classes=True)
    if net is not None:
        stats, cmap = pcn_class_map(net, img.astype(np.float32), hash_cfg)  # as denoise does
    else:
        stats, cmap = compute_class_map(img, hash_cfg)
    out = Path(args.out)
    write_image(_scale_class_map(cmap.indices, hash_cfg.num_classes), out)
    print(f"wrote class map ({hash_cfg.num_classes} classes): {out}")
    channels = normalize_stats(stats)
    for name, channel in zip(("orientation", "strength", "coherence"), channels):
        dump = out.with_name(f"{out.stem}_{name}{out.suffix}")
        write_image(channel, dump)
        print(f"wrote stats dump: {dump}")
    return 0


def _cmd_denoise(args) -> int:
    csdn, csdn_hash = load_kind(args.csdn, "csdn")
    pcn, hash_cfg, classifier = _pcn_for(args, csdn.config.use_csconv, csdn_hash)
    img = read_image(args.infile)
    write_image(denoise_image(csdn, img, classifier, pcn, hash_cfg), args.out)
    print(f"wrote denoised image: {args.out}")
    return 0


def _save_trained(args, net, history, hash_cfg, seed: int, what: str) -> int:
    for epoch, loss in enumerate(history):
        print(f"epoch {epoch:3d}  mean loss {loss:.6f}")
    save_model(net, hash_cfg, args.out, seed=seed)
    print(f"saved {what} model: {args.out}")
    return 0


def _cmd_train_pcn(args) -> int:
    images, _ = _load_images(args.data)
    cfg = _build(TrainConfig, args)
    pcn_cfg = _build(PcnConfig, args)
    hash_cfg = _build(HashConfig, args)
    net, history = train_pcn(images, cfg, pcn_cfg)
    return _save_trained(args, net, history, hash_cfg, cfg.seed, "classification")


def _cmd_train_csdn(args) -> int:
    images, _ = _load_images(args.data)
    cfg = _build(TrainConfig, args)
    use_csconv = not args.plain
    pcn, hash_cfg, classifier = _pcn_for(args, use_csconv)
    csdn_cfg = _build(CsdnConfig, args, use_csconv=use_csconv,
                      num_classes=hash_cfg.num_classes if use_csconv else 1)
    net, history = train_csdn(images, cfg, csdn_cfg, classifier=classifier, pcn=pcn,
                              hash_cfg=hash_cfg)
    return _save_trained(args, net, history, hash_cfg, cfg.seed, "denoising")


def _cmd_eval(args) -> int:
    images, names = _load_images(args.data)
    csdn, csdn_hash = load_kind(args.csdn, "csdn")
    pcn, hash_cfg, classifier = _pcn_for(args, csdn.config.use_csconv, csdn_hash)
    cfg = _build(TrainConfig, args)  # sigma and seed, with training's defaults
    rows, summary = evaluate(
        csdn, images, cfg.sigma, seed=cfg.seed, classifier=classifier, pcn=pcn,
        hash_cfg=hash_cfg, names=names,
    )
    print(f"# config: {dataclasses.asdict(csdn.config)}")
    print(f"# hash: {dataclasses.asdict(hash_cfg)}")
    print(f"# classifier: {classifier}  sigma: {cfg.sigma}  seed: {cfg.seed}")
    _report(rows, summary, args.report)
    print(f"wrote report: {args.report}")
    return 0


def _report(rows, summary, path):
    """Print the results table and write it as CSV (image, sigma, psnr_noisy, psnr,
    ssim), one row per image plus the mean row."""
    import csv

    metrics = ("psnr_noisy", "psnr", "ssim")
    mean = {"image": "mean", "sigma": rows[0]["sigma"],
            **{key: summary[f"mean_{key}"] for key in metrics}}
    print(f"{'image':<16s} {'sigma':>6s} {'psnr_noisy':>11s} {'psnr':>8s} {'ssim':>7s}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", "sigma", *metrics])
        for r in [*rows, mean]:
            sigma = "" if r is mean else f"{r['sigma']:.1f}"  # the table leaves the mean's blank
            print(f"{r['image']:<16s} {sigma:>6s} {r['psnr_noisy']:>11.2f} "
                  f"{r['psnr']:>8.2f} {r['ssim']:>7.4f}")
            writer.writerow([r["image"], r["sigma"], *(f"{r[key]:.4f}" for key in metrics)])


# how every module's flops_per_pixel counts
_FLOPS_CONVENTION = (
    "MAC=2 FLOPs; conv 2*K^2*(C_in/groups)*C_out per px; CSConv as conv; "
    "activations/adds/resampling C per px; biases and class lookups free; "
    "sub-resolution layers scaled by area fraction"
)


def _kflops(net) -> float:
    return sum(flops for _, flops in net.flops_layers()) / 1000.0


def _cmd_flops(args) -> int:
    net, _ = load_model(args.model)
    uses_classes = net.kind == "csdn" and net.config.use_csconv
    # the PCN's FLOPs are an optional addition; no hash compared: FLOPs do not depend on one
    pcn = None if args.pcn is None else _pcn_for(args, uses_classes)[0]
    print(f"FLOPs report: {type(net).__name__} {dataclasses.asdict(net.config)}")
    print(f"convention: {_FLOPS_CONVENTION}")
    for name, flops in net.flops_layers():
        print(f"  {name:<24s} {flops:12.1f} FLOPs/px")
    total = _kflops(net)
    print(f"  {'total':<24s} {total:12.3f} kFLOPs/px")
    if uses_classes:
        pcn = pcn if pcn is not None else build_pcn(PcnConfig())
        print(f"+ classifier ({type(pcn).__name__}): {_kflops(pcn):.3f} kFLOPs/px")
        print(f"combined total: {total + _kflops(pcn):.3f} kFLOPs/px")
    return 0


# -- parser ---------------------------------------------------------------------------


def _add_config(p, configs):
    """--config, and one --field-name flag per field in ``configs``."""
    p.add_argument("--config", default=None, help="flat key = value config file")
    for cls, names in configs.items():
        for _, key, cast in _fields(cls, names):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=cast, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="csdenoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="write a class map and stats dumps")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pcn", default=None, help="classification model file")
    source.add_argument("--raisr", action="store_true",
                        help="classify by structure-tensor analysis of the input")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("denoise", help="denoise one image with trained models")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pcn", default=None, help="classification model (class-specific denoiser)")
    p.add_argument("--csdn", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("train-pcn", help="train the classification network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_pcn)

    p = sub.add_parser("train-csdn", help="train the denoiser (classifier frozen)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classifier", choices=CLASSIFIER_MODES, default=None)
    p.add_argument("--pcn", default=None, help="frozen classification model")
    p.add_argument("--arch", choices=("edsr", "carn"), default=None)
    p.add_argument("--plain", action="store_true",
                   help="use shared-weight convolutions (no class dispatch)")
    p.set_defaults(func=_cmd_train_csdn)

    p = sub.add_parser("eval", help="evaluate a denoiser on a directory of images")
    p.add_argument("--data", required=True)
    p.add_argument("--csdn", required=True)
    p.add_argument("--pcn", default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--classifier", choices=CLASSIFIER_MODES, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("flops", help="print the per-layer FLOPs/pixel report")
    p.add_argument("--model", required=True)
    p.add_argument("--pcn", default=None,
                   help="classifier model to include in the combined total")
    p.set_defaults(func=_cmd_flops)

    for command, configs in _COMMAND_CONFIGS.items():  # after each command's own flags
        _add_config(sub.choices[command], configs)
    return parser


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        config = getattr(args, "config", None)
        args._file_config = _parse_config_file(config) if config else {}
        return args.func(args)
    except (CsdError, OSError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
