"""Training and float32 inference give the same bits at any BLAS thread count.

Each net trains in a fresh interpreter at one and at two OpenBLAS threads,
which must agree on the loss history and on every parameter byte, and then
classifies and denoises in float32, which must agree on every output byte.
OpenBLAS picks its thread count when it loads, so this cannot run in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csdenoise

WORKER = r"""
import hashlib, json
import numpy as np
from csdenoise import functional as F
from csdenoise.autodiff import Tensor, no_grad
from csdenoise.csdn import CsdnConfig, csdn_forward
from csdenoise.gradient_stats import HashConfig
from csdenoise.pcn import PcnConfig
from csdenoise.pipeline import TrainConfig, classify_for_denoiser, train_csdn, train_pcn

def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

yy, xx = np.mgrid[0:80, 0:80] / 80.0
images = [0.5 + 0.4 * np.sin(2 * np.pi * (7 * xx + 3 * yy)),
          0.5 + 0.4 * np.cos(2 * np.pi * 9 * np.hypot(xx - 0.5, yy - 0.55))]
cfg = TrainConfig(batch_size=2, patch_size=64, epochs=2, steps_per_epoch=2, seed=1)
nets = {
    "pcn": lambda: train_pcn(images, cfg, PcnConfig()),
    "plain-edsr": lambda: train_csdn(images, cfg, CsdnConfig(num_blocks=4, use_csconv=False,
                                                               num_classes=1)),
    "cs-edsr": lambda: train_csdn(images, cfg, CsdnConfig(num_blocks=4),
                                  hash_cfg=HashConfig()),
    "cs-carn": lambda: train_csdn(images, cfg, CsdnConfig(arch="carn", num_blocks=2),
                                  hash_cfg=HashConfig()),
}
result, trained = {}, {}
for name, train in nets.items():
    net, history = train()
    trained[name] = net
    result[name] = [history, digest(p.data for _, p in net.named_parameters())]

# float32 inference of the trained class-specific denoisers
noisy = images[0] + 0.1 * np.random.default_rng(6).standard_normal(images[0].shape)
classes = classify_for_denoiser(noisy, None, "raisr-noisy").indices
for name in ("cs-edsr", "cs-carn"):
    result[name + "-float32"] = [[], digest([csdn_forward(trained[name], noisy, classes)])]
# float32 classification of the trained PCN, as inference runs it
pcn_map = classify_for_denoiser(noisy.astype(np.float32), None, "pcn", trained["pcn"]).indices
result["pcn-float32"] = [[], digest([pcn_map])]

# one padded row wider than a GEMM may be: every row splits into column spans
rng = np.random.default_rng(5)
x = Tensor(rng.standard_normal((2, 16, 9, 400)), requires_grad=True)
k = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
b = Tensor(rng.standard_normal((1, 16, 1, 1)), requires_grad=True)
out = F.conv2d(x, k, b)
(out * Tensor(rng.standard_normal(out.shape))).sum().backward()
result["wide-conv2d"] = [[], digest([out.data, x.grad, k.grad, b.grad])]
with no_grad():
    out = F.conv2d(Tensor(x.data.astype(np.float32)), k, b)
result["wide-conv2d-float32"] = [[], digest([out.data])]
print(json.dumps(result))
"""


def _run(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(csdenoise.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", WORKER], env=env, capture_output=True,
                          text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return _run(1), _run(2)


@pytest.mark.parametrize("name", ["pcn", "plain-edsr", "cs-edsr", "cs-carn", "wide-conv2d",
                                  "cs-edsr-float32", "cs-carn-float32", "pcn-float32",
                                  "wide-conv2d-float32"])
def test_same_bits_at_one_and_two_threads(runs, name):
    one, two = runs
    assert one[name] == two[name]
