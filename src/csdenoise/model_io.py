"""Model files: magic + version + JSON metadata + raw parameter payloads.

Layout (little-endian):
    b"CSDN" | u32 version | u64 metadata length | metadata JSON (UTF-8)
    then per parameter, in builder registration order:
    u64 element count | count * f64 raw values

Metadata records the architecture kind, its config, the hash quantizer
config and the build seed, so a file alone rebuilds the network. Loading
then saving again is byte-identical for files this version writes; an older
denoiser file loses its ``"global_residual": "feature"`` config entry, the
one value of a removed option.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .csdn import CsdnConfig, build_csdn, check_class_count
from .errors import CsdError, ModelFormatError
from .gradient_stats import HashConfig
from .pcn import PcnConfig, build_pcn

MAGIC = b"CSDN"
VERSION = 1


def _meta_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(net, hash_cfg: HashConfig, path, seed: int = 0):
    """Serialize a built network plus its quantizer config; a failed save writes nothing."""
    if net.kind == "csdn":
        check_class_count(hash_cfg, net.config)
    params = list(net.named_parameters())
    meta = {
        "kind": net.kind,
        "config": dataclasses.asdict(net.config),
        "hash": dataclasses.asdict(hash_cfg),
        "seed": int(seed),
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params],
    }
    blob = _meta_bytes(meta)
    tmp = Path(f"{path}.{os.getpid()}.tmp")  # same directory: os.replace is atomic
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for name, p in params:
                data = np.ascontiguousarray(p.data, dtype="<f8")
                if not np.isfinite(data).all():  # load_model would refuse the file
                    raise ModelFormatError(f"{path}: parameter {name!r} holds non-finite "
                                           "values; not saved")
                fh.write(struct.pack("<Q", data.size))
                fh.write(data.tobytes())
        os.replace(tmp, path)
    except BaseException:  # a failed save leaves the file at ``path`` as it was
        tmp.unlink(missing_ok=True)
        raise


def _read_exact(fh, n: int, section: str, path) -> bytes:
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        # checked before reading: a forged length must not become a huge allocation
        raise ModelFormatError(
            f"{path}: truncated: {section} needs {n} bytes, only {remaining} remain"
        )
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError(f"{path}: truncated while reading {section}")
    return data


def load_model(path):
    """Rebuild (network, HashConfig) from a model file, bit-exact."""
    path = Path(path)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic", path) != MAGIC:
            raise ModelFormatError(f"{path}: bad magic; not a model file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version", path))
        if version != VERSION:
            raise ModelFormatError(
                f"{path}: format version {version} unsupported (expected {VERSION})"
            )
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, "metadata length", path))
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata", path))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ModelFormatError(f"{path}: malformed metadata block") from exc

        try:
            kind = meta["kind"]
            hash_cfg = HashConfig(**meta["hash"])
            seed = meta["seed"]
            declared = meta["params"]
            if type(seed) is not int or seed < 0:
                raise ModelFormatError(f"{path}: seed {seed!r} is not a non-negative integer")
            if not isinstance(declared, list) or not all(isinstance(e, dict) for e in declared):
                raise ModelFormatError(f"{path}: metadata params must be a list of entries")
            shapes = [tuple(entry.get("shape", ())) for entry in declared]
            config = {**meta["config"]}  # a copy, and a TypeError for a non-mapping
            if kind == "pcn":
                net = build_pcn(PcnConfig(**config), seed=seed)
            elif kind == "csdn":
                residual = config.pop("global_residual", "feature")  # a removed option
                if residual != "feature":
                    raise ModelFormatError(f"{path}: unsupported global_residual {residual!r}")
                cfg = CsdnConfig(**config)
                check_class_count(hash_cfg, cfg)
                net = build_csdn(cfg, seed=seed)
            else:
                raise ModelFormatError(f"{path}: unknown architecture kind {kind!r}")
        except CsdError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: incomplete or malformed metadata: {exc}") from exc

        params = list(net.named_parameters())
        if len(params) != len(declared):
            raise ModelFormatError(
                f"{path}: metadata lists {len(declared)} parameters, "
                f"architecture has {len(params)}"
            )
        for (name, tensor), entry, shape in zip(params, declared, shapes):
            if entry.get("name") != name or shape != tensor.shape:
                raise ModelFormatError(
                    f"{path}: parameter {name!r} does not match metadata entry {entry}"
                )
            (count,) = struct.unpack(
                "<Q", _read_exact(fh, 8, f"length prefix of {name!r}", path)
            )
            if count != tensor.data.size:
                raise ModelFormatError(
                    f"{path}: parameter {name!r} declares {count} values, "
                    f"expected {tensor.data.size}"
                )
            raw = _read_exact(fh, count * 8, f"payload of {name!r}", path)
            tensor.data[...] = np.frombuffer(raw, dtype="<f8").reshape(tensor.shape)
            if not np.all(np.isfinite(tensor.data)):
                raise ModelFormatError(f"{path}: parameter {name!r} holds non-finite values")
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError(f"{path}: unexpected trailing bytes")
    return net, hash_cfg


def load_kind(path, expect: str):
    """Load and insist on an architecture kind ('pcn' or 'csdn')."""
    net, hash_cfg = load_model(path)
    if net.kind != expect:
        raise ModelFormatError(
            f"{path}: holds a {net.kind!r} model where {expect!r} is expected"
        )
    return net, hash_cfg
