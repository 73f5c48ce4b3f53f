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
from .flops import count_flops
from .gradient_stats import HashConfig, compute_class_map, normalize_stats
from .image_io import read_image, write_image
from .model_io import load_kind, load_model, save_model
from .pcn import PcnConfig, build_pcn, pcn_class_map
from .pipeline import (
    CLASSIFIER_MODES,
    TrainConfig,
    denoise_image,
    evaluate,
    format_report,
    train_csdn,
    train_pcn,
    write_report_csv,
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
        values[key.strip().replace("-", "_")] = value.strip()
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


def _build(cls, args, **given):
    """A ``cls`` config: each field not ``given`` is resolved from its flag,
    the config file cast to the type of the field's default, or the default.
    Fields without a flag on this command keep their default."""
    for field in dataclasses.fields(cls):
        key = _FLAG_NAMES.get(field.name, field.name)
        if field.name not in given and hasattr(args, key):
            cast = _float_list if isinstance(field.default, tuple) else type(field.default)
            given[field.name] = _resolve(args, key, field.default, cast)
    return cls(**given)


def _load_pcn(args):
    """A PCN model and the hash config it was trained with. That config
    fixes the classes, so explicit hash flags are refused, not dropped."""
    flags = [f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(HashConfig)
             if getattr(args, f.name) is not None]
    if flags:
        raise ConfigError(f"the --pcn model fixes the hash config; drop {' '.join(flags)}")
    return load_kind(args.pcn, "pcn")


def _refuse_unread_pcn(args, why: str):
    """A --pcn that nothing would read is refused, not dropped."""
    if args.pcn is not None:
        raise ConfigError(f"--pcn is not read {why}; drop it")


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
    if args.pcn is not None:
        net, hash_cfg = _load_pcn(args)
        stats, cmap = pcn_class_map(net, img, hash_cfg)
    else:
        hash_cfg = _build(HashConfig, args)
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
    pcn, hash_cfg = load_kind(args.pcn, "pcn")
    csdn, _ = load_kind(args.csdn, "csdn")
    img = read_image(args.infile)
    write_image(denoise_image(csdn, img, "pcn", pcn, hash_cfg), args.out)
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
    classifier = _resolve(args, "classifier", "raisr-noisy")
    if args.plain or classifier != "pcn":
        _refuse_unread_pcn(args, "with --plain" if args.plain else f"with classifier {classifier}")
    pcn = None
    if args.pcn is not None:
        pcn, hash_cfg = _load_pcn(args)
    else:
        hash_cfg = _build(HashConfig, args)
    use_csconv = not args.plain
    csdn_cfg = _build(CsdnConfig, args, use_csconv=use_csconv,
                      num_classes=hash_cfg.num_classes if use_csconv else 1)
    net, history = train_csdn(images, cfg, csdn_cfg, classifier=classifier, pcn=pcn,
                              hash_cfg=hash_cfg)
    return _save_trained(args, net, history, hash_cfg, cfg.seed, "denoising")


def _cmd_eval(args) -> int:
    images, names = _load_images(args.data)
    csdn, hash_cfg = load_kind(args.csdn, "csdn")
    classifier = _resolve(args, "classifier", "raisr-noisy" if args.pcn is None else "pcn")
    if classifier != "pcn":
        _refuse_unread_pcn(args, f"with classifier {classifier}")
    pcn = None
    if args.pcn is not None:
        pcn, hash_cfg = load_kind(args.pcn, "pcn")
    cfg = _build(TrainConfig, args)  # sigma and seed, with training's defaults
    rows, summary = evaluate(
        csdn, images, cfg.sigma, seed=cfg.seed, classifier=classifier, pcn=pcn,
        hash_cfg=hash_cfg, names=names,
    )
    header = (
        f"config: {dataclasses.asdict(csdn.config)}\n"
        f"hash: {dataclasses.asdict(hash_cfg)}\n"
        f"classifier: {classifier}  sigma: {cfg.sigma}  seed: {cfg.seed}"
    )
    print(format_report(rows, summary, header))
    write_report_csv(rows, summary, args.report)
    print(f"wrote report: {args.report}")
    return 0


def _cmd_flops(args) -> int:
    net, _ = load_model(args.model)
    uses_classes = net.kind == "csdn" and net.config.use_csconv
    if not uses_classes:
        _refuse_unread_pcn(args, "for a model without CSConv")
    report = count_flops(net)
    title = f"{type(net).__name__} {dataclasses.asdict(net.config)}"
    print(report.format(title))
    if uses_classes:
        if args.pcn is not None:
            pcn, _ = load_kind(args.pcn, "pcn")
        else:
            pcn = build_pcn(PcnConfig())
        pcn_report = count_flops(pcn)
        combined = report.total_kflops_per_pixel + pcn_report.total_kflops_per_pixel
        print(
            f"+ classifier ({type(pcn).__name__}): "
            f"{pcn_report.total_kflops_per_pixel:.3f} kFLOPs/px"
        )
        print(f"combined total: {combined:.3f} kFLOPs/px")
    return 0


# -- parser ---------------------------------------------------------------------------


def _add_config(p, seed=True):
    p.add_argument("--config", default=None, help="flat key = value config file")
    if seed:
        p.add_argument("--seed", type=int, default=None)


def _add_hash_flags(p):
    p.add_argument("--orientation-bins", dest="orientation_bins", type=int, default=None)
    p.add_argument("--strength-bins", dest="strength_bins", type=int, default=None)
    p.add_argument("--coherence-bins", dest="coherence_bins", type=int, default=None)
    p.add_argument("--strength-thresholds", dest="strength_thresholds",
                   type=_float_list, default=None)
    p.add_argument("--coherence-thresholds", dest="coherence_thresholds",
                   type=_float_list, default=None)


def _add_train_flags(p):
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--patch-size", dest="patch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)


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
    _add_hash_flags(p)
    _add_config(p, seed=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("denoise", help="denoise one image with trained models")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pcn", required=True)
    p.add_argument("--csdn", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("train-pcn", help="train the classification network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base-channels", dest="base_channels", type=int, default=None)
    p.add_argument("--num-scales", dest="num_scales", type=int, default=None)
    p.add_argument("--residual-blocks", dest="residual_blocks", type=int, default=None)
    _add_train_flags(p)
    _add_hash_flags(p)
    _add_config(p)
    p.set_defaults(func=_cmd_train_pcn)

    p = sub.add_parser("train-csdn", help="train the denoiser (classifier frozen)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classifier", choices=CLASSIFIER_MODES, default=None)
    p.add_argument("--pcn", default=None, help="frozen classification model")
    p.add_argument("--arch", choices=("edsr", "carn"), default=None)
    p.add_argument("--num-blocks", dest="num_blocks", type=int, default=None)
    p.add_argument("--num-features", dest="num_features", type=int, default=None)
    p.add_argument("--plain", action="store_true",
                   help="use shared-weight convolutions (no class dispatch)")
    _add_train_flags(p)
    _add_hash_flags(p)
    _add_config(p)
    p.set_defaults(func=_cmd_train_csdn)

    p = sub.add_parser("eval", help="evaluate a denoiser on a directory of images")
    p.add_argument("--data", required=True)
    p.add_argument("--csdn", required=True)
    p.add_argument("--pcn", default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--classifier", choices=CLASSIFIER_MODES, default=None)
    p.add_argument("--sigma", type=float, default=None)
    _add_config(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("flops", help="print the per-layer FLOPs/pixel report")
    p.add_argument("--model", required=True)
    p.add_argument("--pcn", default=None,
                   help="classifier model to include in the combined total")
    p.set_defaults(func=_cmd_flops)

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
    except (CsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
