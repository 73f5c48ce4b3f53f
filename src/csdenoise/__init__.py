"""Class-specific convolution denoising.

A pixel-wise classification network regresses noise-free gradient
statistics from a noisy image; a hash quantizer buckets them into
classes; denoising networks then convolve each pixel with per-class
weights drawn from a learned filter bank.
"""

from .csdn import CsdnConfig, build_csdn, csdn_forward
from .errors import (
    ConfigError,
    ContractError,
    CsdError,
    DispatchError,
    ImageFormatError,
    ModelFormatError,
    ShapeError,
)
from .gradient_stats import HashConfig, compute_class_map
from .image_io import read_image, write_image
from .metrics import psnr
from .model_io import load_model, save_model
from .pcn import PcnConfig, build_pcn, pcn_class_map
from .pipeline import TrainConfig, add_awgn, evaluate, train_csdn, train_pcn

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "CsdError",
    "CsdnConfig",
    "DispatchError",
    "HashConfig",
    "ImageFormatError",
    "ModelFormatError",
    "PcnConfig",
    "ShapeError",
    "TrainConfig",
    "add_awgn",
    "build_csdn",
    "build_pcn",
    "compute_class_map",
    "csdn_forward",
    "evaluate",
    "load_model",
    "pcn_class_map",
    "psnr",
    "read_image",
    "save_model",
    "train_csdn",
    "train_pcn",
    "write_image",
]
