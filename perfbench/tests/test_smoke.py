"""Smoke test of the benchmark runner at tiny sizes.

    python3 -m pytest perfbench/tests

Not part of the package's test suite: it runs run.py as a subprocess
for every workload, traced and untraced, and shows that the output checks
reject a wrong result.
"""

import base64
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402

WORKLOADS = ("train-csdn", "train-pcn", "denoise")


def run_bench(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def spec_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ops_ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_units("per_layer")
    assert all(metrics[f"{layer}.errors"] == 0 for layer in
               ("csconv", "functional", "autodiff", "pipeline", "cli"))
    if workload == "train-pcn":
        assert metrics["csconv.calls"] == 0
        assert metrics["functional.conv2d.calls"] > 0
    else:
        assert metrics["csconv.calls"] == 16  # one per residual block and step/image
        assert metrics["csconv.vs_conv_ratio"] > 0
    if workload == "denoise":
        assert metrics["autodiff.backward_self_ms"] == 0
        assert metrics["model_io.bytes_read"] > 0
    else:
        assert metrics["autodiff.backward_self_ms"] > 0
        assert metrics["optim.param_count"] > 0


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("work"))
    proc = run_bench("train-pcn", 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def reference():
    return W.load_reference()


@pytest.mark.parametrize("name", ["train-csdn", "train-pcn"])
def test_loss_check_flags_perturbed_reference(name, reference, tmp_path):
    workload = W.WORKLOADS[name](W.PROFILES["smoke"], tmp_path)
    result = workload.reference_op()
    expected = reference[name]
    workload.check_reference(result, expected)
    # a reduction-order change moves losses far less than the tolerance
    workload.check_reference({"losses": [v * (1 + 1e-10) for v in result["losses"]]}, expected)
    wrong = {"losses": [v * (1 + 1e-4) for v in expected["losses"]]}
    with pytest.raises(W.CheckFailed):
        workload.check_reference(result, wrong)
    with pytest.raises(W.CheckFailed):
        W.check_losses([float("nan")] + result["losses"][1:], expected["losses"])


def test_image_check_flags_wrong_output(reference, tmp_path):
    workload = W.Denoise(W.PROFILES["smoke"], tmp_path)
    result = workload.reference_op()
    expected = reference["denoise"]
    workload.check_reference(result, expected)
    pixels = np.frombuffer(base64.b64decode(result["pixels"]), dtype=np.uint8).copy()

    def with_pixels(u8):
        return {**result, "pixels": base64.b64encode(u8.tobytes()).decode("ascii")}

    few = pixels.copy()
    few[: pixels.size // 200] ^= 0x40  # 0.5% of pixels, as boundary class flips would
    workload.check_reference(with_pixels(few), expected)
    many = pixels.copy()
    many[: pixels.size // 10] ^= 0x40
    with pytest.raises(W.CheckFailed):
        workload.check_reference(with_pixels(many), expected)
    with pytest.raises(W.CheckFailed):
        workload.check_reference(result, {**expected, "psnr": expected["psnr"] + 0.5})


def test_guard_flags_collapsed_class_occupancy(reference, tmp_path):
    import csdenoise

    workload = W.Denoise(W.PROFILES["smoke"], tmp_path)
    workload.setup(3)
    workload.guard(3, reference)
    workload.pcn = csdenoise.build_pcn(csdenoise.PcnConfig())  # untrained: ~1 class
    with pytest.raises(W.CheckFailed, match="class"):
        workload.guard(3, reference)
