import dataclasses

import numpy as np
import pytest

from csdenoise import cli, pipeline
from csdenoise.cli import run_cli
from csdenoise.csdn import CsdnConfig, build_csdn
from csdenoise.gradient_stats import HashConfig
from csdenoise.image_io import read_image, write_image
from csdenoise.model_io import load_model, save_model
from csdenoise.pcn import PcnConfig, build_pcn
from csdenoise.pipeline import TrainConfig
from helpers import subcommand_parsers


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    from conftest import make_toy_images

    root = tmp_path_factory.mktemp("images")
    for i, img in enumerate(make_toy_images(size=64, seed=11)[:3]):
        write_image(img, root / f"img{i}.pgm")
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_dir):
    """Tiny PCN + CSDN model files trained through the CLI."""
    root = tmp_path_factory.mktemp("models")
    pcn = root / "pcn.model"
    csdn = root / "csdn.model"
    rc = run_cli([
        "train-pcn", "--data", str(data_dir), "--out", str(pcn),
        "--sigma", "25", "--epochs", "1", "--steps-per-epoch", "6",
        "--batch-size", "2", "--patch-size", "32", "--lr", "1e-3",
        "--base-channels", "4", "--num-scales", "2", "--residual-blocks", "1",
        "--seed", "0",
    ])
    assert rc == 0
    rc = run_cli([
        "train-csdn", "--data", str(data_dir), "--out", str(csdn),
        "--sigma", "25", "--epochs", "1", "--steps-per-epoch", "6",
        "--batch-size", "2", "--patch-size", "24", "--lr", "1e-3",
        "--num-blocks", "1", "--num-features", "4",
        "--classifier", "pcn", "--pcn", str(pcn), "--seed", "0",
    ])
    assert rc == 0
    return pcn, csdn


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["flops", "--bogus", "x"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "classify" in capsys.readouterr().out


def _field_flags(cls, *unflagged):
    return {"lr" if f.name == "learning_rate" else f.name
            for f in dataclasses.fields(cls) if f.name not in unflagged}


# per subcommand: the config fields it has flags for, i.e. the fields of the
# configs it builds less the ones it sets itself
CONFIG_FLAGS = {
    "classify": _field_flags(HashConfig),
    "denoise": set(),
    "train-pcn": _field_flags(TrainConfig) | _field_flags(PcnConfig) | _field_flags(HashConfig),
    "train-csdn": _field_flags(TrainConfig) | _field_flags(HashConfig)
    | _field_flags(CsdnConfig, "use_csconv", "num_classes"),
    "eval": {"sigma", "seed"},
    "flops": set(),
}


class TestParserSurface:
    def test_config_flags_are_the_built_fields(self):
        every_field = set().union(*(_field_flags(cls) for cls in
                                    (TrainConfig, HashConfig, PcnConfig, CsdnConfig)))
        flags = {name: {a.dest for a in p._actions if a.dest in every_field}
                 for name, p in subcommand_parsers().items()}
        assert flags == CONFIG_FLAGS

    def test_flag_names_follow_the_field_names(self):
        for name, parser in subcommand_parsers().items():
            for action in parser._actions:
                if action.dest in CONFIG_FLAGS[name]:
                    assert action.option_strings == ["--" + action.dest.replace("_", "-")]

    def test_unknown_arch_is_usage_error(self, tmp_path, data_dir, capsys):
        rc = run_cli(["train-csdn", "--data", str(data_dir), "--out", str(tmp_path / "m.model"),
                      "--arch", "x"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err.lower()
        assert not list(tmp_path.iterdir())


class TestClassify:
    def test_raisr_mode_writes_map_and_stats(self, tmp_path, data_dir):
        out = tmp_path / "map.pgm"
        rc = run_cli(["classify", "--in", str(data_dir / "img0.pgm"),
                      "--raisr", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        for channel in ("orientation", "strength", "coherence"):
            assert (tmp_path / f"map_{channel}.pgm").exists()
        vals = read_image(out)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_pcn_mode(self, tmp_path, data_dir, trained):
        pcn, _ = trained
        out = tmp_path / "map.pgm"
        rc = run_cli(["classify", "--in", str(data_dir / "img1.pgm"),
                      "--pcn", str(pcn), "--out", str(out)])
        assert rc == 0 and out.exists()

    def test_pcn_map_is_the_one_denoise_dispatches_on(self, tmp_path, data_dir, trained,
                                                      monkeypatch):
        """``classify --pcn`` and ``denoise`` both classify in float32."""
        pcn, csdn = trained
        dispatched = []
        forward = pipeline.csdn_forward

        def spy(net, noisy, classes=None):
            dispatched.append(classes)
            return forward(net, noisy, classes)

        monkeypatch.setattr(pipeline, "csdn_forward", spy)
        img, out = data_dir / "img1.pgm", tmp_path / "map.pgm"
        assert run_cli(["classify", "--in", str(img), "--pcn", str(pcn), "--out", str(out)]) == 0
        assert run_cli(["denoise", "--in", str(img), "--pcn", str(pcn), "--csdn", str(csdn),
                        "--out", str(tmp_path / "d.pgm")]) == 0
        m = HashConfig().num_classes
        # the map is written as (class - 1) / (M - 1) in 8 bits; M < 128 rounds back
        written = np.rint(read_image(out) * (m - 1)).astype(np.int64) + 1
        assert len(dispatched) == 1
        assert np.array_equal(written, dispatched[0])

    def test_needs_exactly_one_source(self, tmp_path, data_dir):
        rc = run_cli(["classify", "--in", str(data_dir / "img0.pgm"),
                      "--out", str(tmp_path / "m.pgm")])
        assert rc == 1  # missing source flag is a usage error
        rc = run_cli(["classify", "--in", str(data_dir / "img0.pgm"),
                      "--raisr", "--pcn", "x.model",
                      "--out", str(tmp_path / "m.pgm")])
        assert rc == 1

    def test_missing_file_is_data_error(self, tmp_path):
        rc = run_cli(["classify", "--in", str(tmp_path / "nope.pgm"),
                      "--raisr", "--out", str(tmp_path / "m.pgm")])
        assert rc == 2


class TestPcnModelFixesHash:
    """A PCN model carries the hash config it was trained with."""

    def test_explicit_hash_flags_refused(self, tmp_path, data_dir, trained, capsys):
        pcn, _ = trained
        for argv in (["classify", "--in", str(data_dir / "img1.pgm"),
                      "--out", str(tmp_path / "map.pgm")],
                     ["train-csdn", "--data", str(data_dir), "--out", str(tmp_path / "m.model"),
                      "--classifier", "pcn", "--epochs", "1", "--steps-per-epoch", "1",
                      "--batch-size", "1", "--patch-size", "24", "--num-blocks", "1",
                      "--num-features", "4"]):
            rc = run_cli(argv + ["--pcn", str(pcn), "--orientation-bins", "4"])
            assert rc == 2
            assert "--orientation-bins" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    def test_config_file_hash_values_allowed(self, tmp_path, data_dir, trained, capsys):
        pcn, _ = trained
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("orientation_bins = 4\n")
        rc = run_cli(["classify", "--in", str(data_dir / "img1.pgm"), "--pcn", str(pcn),
                      "--out", str(tmp_path / "map.pgm"), "--config", str(cfg)])
        assert rc == 0
        assert "72 classes" in capsys.readouterr().out


class TestUnreadPcnRefused:
    """A --pcn that the command would not read ends in exit 2, not silence."""

    def test_train_csdn_without_pcn_classifier(self, tmp_path, data_dir, capsys):
        out = tmp_path / "m.model"
        rc = run_cli(["train-csdn", "--data", str(data_dir), "--out", str(out),
                      "--classifier", "raisr-noisy", "--pcn", str(tmp_path / "missing.model"),
                      "--epochs", "1", "--steps-per-epoch", "1", "--batch-size", "1",
                      "--patch-size", "16", "--num-blocks", "1", "--num-features", "4"])
        assert rc == 2
        assert "--pcn is not read with classifier raisr-noisy" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_eval_without_pcn_classifier(self, tmp_path, data_dir, trained, capsys):
        pcn, csdn = trained
        report = tmp_path / "r.csv"
        rc = run_cli(["eval", "--data", str(data_dir), "--csdn", str(csdn), "--pcn", str(pcn),
                      "--classifier", "raisr-noisy", "--report", str(report)])
        assert rc == 2
        assert "--pcn is not read with classifier raisr-noisy" in capsys.readouterr().err
        assert not report.exists()

    def test_flops_for_model_without_csconv(self, tmp_path, capsys):
        from csdenoise.csdn import build_csdn
        from csdenoise.model_io import save_model

        path = tmp_path / "plain.model"
        save_model(build_csdn(CsdnConfig(num_blocks=1, num_features=4, use_csconv=False,
                                         num_classes=1)), HashConfig(), path)
        rc = run_cli(["flops", "--model", str(path), "--pcn", str(tmp_path / "missing.model")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--pcn is not read for a model without CSConv" in captured.err
        assert captured.out == ""


@pytest.fixture(scope="module")
def plain_model(tmp_path_factory):
    """A plain denoiser saved under another hash than the PCN's."""
    path = tmp_path_factory.mktemp("plain") / "plain.model"
    save_model(build_csdn(CsdnConfig(num_blocks=1, num_features=4, use_csconv=False,
                                     num_classes=1)), HashConfig(orientation_bins=2), path)
    return path


NOT_READ = "--pcn is not read"
NO_NET = "the pcn classifier needs a --pcn model"
# (command, model: class-specific "cs" or "plain", --classifier or None, --pcn given,
#  exit code, stderr fragment). A --pcn is read only where a class-specific model
# dispatches on classes with the pcn classifier, the default when --pcn is given.
PCN_RULE = [
    ("classify", "cs", None, True, 0, ""),
    ("classify", "cs", None, False, 0, ""),
    ("denoise", "cs", None, True, 0, ""),
    ("denoise", "cs", None, False, 2, NO_NET),
    ("denoise", "plain", None, True, 2, f"{NOT_READ} for a model without CSConv"),
    ("denoise", "plain", None, False, 0, ""),
    ("eval", "cs", None, True, 0, "classifier: pcn"),
    ("eval", "cs", None, False, 0, "classifier: raisr-noisy"),
    ("eval", "cs", "raisr-noisy", True, 2, f"{NOT_READ} with classifier raisr-noisy"),
    ("eval", "cs", "pcn", False, 2, NO_NET),
    ("eval", "plain", None, True, 2, f"{NOT_READ} for a model without CSConv"),
    ("eval", "plain", "pcn", True, 2, f"{NOT_READ} for a model without CSConv"),
    ("eval", "plain", None, False, 0, "classifier: raisr-noisy"),
    ("eval", "plain", "pcn", False, 0, "classifier: pcn"),
    ("flops", "cs", None, True, 0, "combined total"),
    ("flops", "cs", None, False, 0, "combined total"),
    ("flops", "plain", None, True, 2, f"{NOT_READ} for a model without CSConv"),
    ("flops", "plain", None, False, 0, "total"),
    ("train-csdn", "cs", None, True, 0, "saved denoising model"),
    ("train-csdn", "cs", "raisr-clean", True, 2, f"{NOT_READ} with classifier raisr-clean"),
    ("train-csdn", "cs", "pcn", False, 2, NO_NET),
    ("train-csdn", "plain", None, True, 2, f"{NOT_READ} for a model without CSConv"),
    ("train-csdn", "plain", "pcn", False, 0, "saved denoising model"),
]


class TestPcnRule:
    @pytest.mark.parametrize(
        "command, model, classifier, given, rc, fragment", PCN_RULE,
        ids=["-".join([c, m, k or "default", "pcn" if g else "no-pcn"])
             for c, m, k, g, _, _ in PCN_RULE])
    def test_pcn_read_only_where_classes_are(self, tmp_path, data_dir, trained, plain_model,
                                             capsys, command, model, classifier, given,
                                             rc, fragment):
        pcn, csdn = trained
        model_file = str(plain_model if model == "plain" else csdn)
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "classify": ["--in", str(data_dir / "img0.pgm"), "--out", str(out / "map.pgm")]
            + ([] if given else ["--raisr"]),
            "denoise": ["--in", str(data_dir / "img0.pgm"), "--csdn", model_file,
                        "--out", str(out / "x.pgm")],
            "eval": ["--data", str(data_dir), "--csdn", model_file, "--report", str(out / "r.csv")],
            "flops": ["--model", model_file],
            "train-csdn": ["--data", str(data_dir), "--out", str(out / "m.model"),
                           "--epochs", "1", "--steps-per-epoch", "1", "--batch-size", "1",
                           "--patch-size", "16", "--num-blocks", "1", "--num-features", "4"]
            + (["--plain"] if model == "plain" else []),
        }[command]
        argv = [command, *argv, *(["--classifier", classifier] if classifier else []),
                *(["--pcn", str(pcn)] if given else [])]
        assert run_cli(argv) == rc
        captured = capsys.readouterr()
        assert fragment in (captured.err if rc else captured.out)
        if rc:
            assert captured.out == ""
            assert not list(out.iterdir())
        elif command != "flops":
            assert list(out.iterdir())


class TestDenoiseAndEval:
    def test_denoise_round_trip(self, tmp_path, data_dir, trained):
        pcn, csdn = trained
        out = tmp_path / "restored.pgm"
        rc = run_cli(["denoise", "--in", str(data_dir / "img0.pgm"),
                      "--pcn", str(pcn), "--csdn", str(csdn),
                      "--out", str(out)])
        assert rc == 0
        restored = read_image(out)
        assert restored.shape == (64, 64)

    def test_denoise_deterministic(self, tmp_path, data_dir, trained):
        pcn, csdn = trained
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            assert run_cli(["denoise", "--in", str(data_dir / "img0.pgm"),
                            "--pcn", str(pcn), "--csdn", str(csdn),
                            "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scale", [1e300, 1e39], ids=["float64-overflow", "float32-overflow"])
    def test_non_finite_output_exits_two(self, tmp_path, capsys, scale):
        """Huge head and tail weights: a 1e39 weight is finite in the model file
        but overflows float32. The denoised image is refused, not written black."""
        net = build_csdn(CsdnConfig(num_blocks=1, num_features=4, use_csconv=False,
                                    num_classes=1))
        net.head.kernel.data[...] = scale
        net.tail.kernel.data[...] = scale
        model, noisy, out = tmp_path / "m.model", tmp_path / "in.pgm", tmp_path / "out.pgm"
        save_model(net, HashConfig(), model)
        write_image(np.full((32, 32), 0.5), noisy)
        assert run_cli(["denoise", "--in", str(noisy), "--csdn", str(model),
                        "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command,scale", [
        ("classify", 1e300), ("classify", 1e39), ("denoise", 1e300), ("denoise", 1e39),
        ("eval", 1e300), ("eval", 1e39), ("train-csdn", 1e300),
    ])
    def test_non_finite_pcn_exits_two(self, tmp_path, data_dir, capsys, command, scale):
        """Huge PCN head and tail weights: 1e300 overflows the float64 forward that
        training classifies with, 1e39 only the float32 one of inference. The
        prediction is refused, not clamped into a class map, and nothing is written."""
        pcn = build_pcn(PcnConfig(base_channels=4, num_scales=2, residual_blocks=1))
        pcn.head.kernel.data[...] = scale
        pcn.tail.kernel.data[...] = scale
        pcn_path, csdn_path = tmp_path / "pcn.model", tmp_path / "csdn.model"
        save_model(pcn, HashConfig(), pcn_path)
        save_model(build_csdn(CsdnConfig(num_blocks=1, num_features=4)), HashConfig(), csdn_path)
        out = tmp_path / "out"
        argv = {
            "classify": ["--in", str(data_dir / "img0.pgm"), "--out", f"{out}.pgm"],
            "denoise": ["--in", str(data_dir / "img0.pgm"), "--csdn", str(csdn_path),
                        "--out", f"{out}.pgm"],
            "eval": ["--data", str(data_dir), "--csdn", str(csdn_path), "--report", f"{out}.csv"],
            "train-csdn": ["--data", str(data_dir), "--out", f"{out}.model", "--classifier", "pcn",
                           "--epochs", "1", "--steps-per-epoch", "1", "--batch-size", "1",
                           "--patch-size", "16", "--num-blocks", "1", "--num-features", "4"],
        }[command]
        assert run_cli([command, "--pcn", str(pcn_path)] + argv) == 2
        captured = capsys.readouterr()
        assert "gradient statistics prediction has" in captured.err
        assert "non-finite" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["csdn.model", "pcn.model"]

    def test_class_count_mismatch_exits_two(self, tmp_path, data_dir, trained, capsys):
        _, csdn = trained
        small_pcn = tmp_path / "small.model"
        rc = run_cli([
            "train-pcn", "--data", str(data_dir), "--out", str(small_pcn),
            "--epochs", "1", "--steps-per-epoch", "2", "--batch-size", "1",
            "--patch-size", "16", "--base-channels", "4", "--num-scales", "2",
            "--residual-blocks", "0",
            "--orientation-bins", "4", "--strength-bins", "2",
            "--coherence-bins", "2", "--strength-thresholds", "0.001",
            "--coherence-thresholds", "0.5",
        ])
        assert rc == 0
        rc = run_cli(["denoise", "--in", str(data_dir / "img0.pgm"),
                      "--pcn", str(small_pcn), "--csdn", str(csdn),
                      "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert "class-count" in capsys.readouterr().err

    def test_hash_mismatch_exits_two(self, tmp_path, data_dir, trained, capsys):
        """Same class count as the PCN, other thresholds: the denoiser's filters
        belong to other classes, so pairing the two is refused."""
        pcn, _ = trained
        csdn = tmp_path / "other-hash.model"
        hash_cfg = HashConfig(strength_thresholds=(0.01, 0.1), coherence_thresholds=(0.1, 0.9))
        save_model(build_csdn(CsdnConfig(num_blocks=1, num_features=4)), hash_cfg, csdn)
        out, report = tmp_path / "x.pgm", tmp_path / "r.csv"
        for argv in (["denoise", "--in", str(data_dir / "img0.pgm"), "--out", str(out)],
                     ["eval", "--data", str(data_dir), "--report", str(report)]):
            rc = run_cli(argv + ["--pcn", str(pcn), "--csdn", str(csdn)])
            assert rc == 2
            assert "hash mismatch" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["other-hash.model"]
        # the denoiser's own hash still classifies for it
        assert run_cli(["eval", "--data", str(data_dir), "--report", str(report),
                        "--csdn", str(csdn), "--classifier", "raisr-noisy"]) == 0

    def test_eval_writes_report(self, tmp_path, data_dir, trained):
        pcn, csdn = trained
        report = tmp_path / "report.csv"
        rc = run_cli(["eval", "--data", str(data_dir), "--sigma", "25",
                      "--pcn", str(pcn), "--csdn", str(csdn),
                      "--report", str(report), "--seed", "3"])
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "image,sigma,psnr_noisy,psnr,ssim"
        assert len(lines) == 5  # 3 images + mean

    def test_eval_empty_directory_exits_two(self, tmp_path, trained, capsys):
        pcn, csdn = trained
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run_cli(["eval", "--data", str(empty), "--csdn", str(csdn),
                      "--pcn", str(pcn), "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "no images found" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_eval_non_finite_sigma_exits_two(self, tmp_path, data_dir, trained,
                                             capsys, sigma):
        pcn, csdn = trained
        report = tmp_path / "report.csv"
        rc = run_cli(["eval", "--data", str(data_dir), "--sigma", sigma,
                      "--pcn", str(pcn), "--csdn", str(csdn),
                      "--report", str(report)])
        assert rc == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not report.exists()

    def test_train_non_finite_lr_exits_two(self, tmp_path, data_dir, capsys):
        out = tmp_path / "pcn.model"
        rc = run_cli(["train-pcn", "--data", str(data_dir), "--out", str(out),
                      "--lr", "nan", "--epochs", "1", "--steps-per-epoch", "1",
                      "--batch-size", "1", "--patch-size", "16",
                      "--base-channels", "4", "--num-scales", "2"])
        assert rc == 2
        assert "learning rate must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestSeedAndThresholds:
    def test_train_pcn_negative_seed_exits_two(self, tmp_path, data_dir, capsys):
        out = tmp_path / "pcn.model"
        rc = run_cli(["train-pcn", "--data", str(data_dir), "--out", str(out),
                      "--seed", "-1", "--epochs", "1", "--steps-per-epoch", "1",
                      "--batch-size", "1", "--patch-size", "16",
                      "--base-channels", "4", "--num-scales", "2"])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_train_csdn_negative_seed_exits_two(self, tmp_path, data_dir, capsys):
        out = tmp_path / "csdn.model"
        rc = run_cli(["train-csdn", "--data", str(data_dir), "--out", str(out),
                      "--seed", "-1", "--epochs", "1", "--steps-per-epoch", "1",
                      "--batch-size", "1", "--patch-size", "16",
                      "--num-blocks", "1", "--num-features", "4"])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_negative_seed_exits_two(self, tmp_path, data_dir, trained, capsys):
        pcn, csdn = trained
        report = tmp_path / "report.csv"
        rc = run_cli(["eval", "--data", str(data_dir), "--seed", "-1",
                      "--pcn", str(pcn), "--csdn", str(csdn),
                      "--report", str(report)])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not report.exists()

    def test_classify_non_finite_threshold_exits_two(self, tmp_path, data_dir, capsys):
        out = tmp_path / "m.pgm"
        rc = run_cli(["classify", "--in", str(data_dir / "img0.pgm"), "--raisr",
                      "--out", str(out), "--strength-thresholds", "nan 0.001"])
        assert rc == 2
        assert "thresholds must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.iterdir())


class TestOutOfMemory:
    """An allocation that cannot be made ends in exit 2 and writes nothing. A batch
    past 128 TiB fails at once under any overcommit setting, allocating nothing."""

    @pytest.mark.parametrize("command, net_flags", [
        ("train-pcn", ["--base-channels", "4", "--num-scales", "2"]),
        ("train-csdn", ["--num-blocks", "1", "--num-features", "4"]),
    ])
    def test_huge_batch_exits_two(self, tmp_path, data_dir, capsys, command, net_flags):
        rc = run_cli([command, "--data", str(data_dir), "--out", str(tmp_path / "m.model"),
                      "--batch-size", str(10**12), "--patch-size", "16", "--epochs", "1",
                      "--steps-per-epoch", "1", *net_flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not list(tmp_path.iterdir())

    def test_bare_memory_error_is_named(self, tmp_path, data_dir, monkeypatch, capsys):
        def train(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "train_pcn", train)
        out = tmp_path / "m.model"
        assert run_cli(["train-pcn", "--data", str(data_dir), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()


class TestFlops:
    def test_csdn_report_includes_classifier_line(self, trained, capsys):
        _, csdn = trained
        assert run_cli(["flops", "--model", str(csdn)]) == 0
        out = capsys.readouterr().out
        assert "kFLOPs/px" in out
        assert "classifier" in out
        assert "combined total" in out

    def test_pcn_report(self, trained, capsys):
        pcn, _ = trained
        assert run_cli(["flops", "--model", str(pcn)]) == 0
        assert "total" in capsys.readouterr().out

    def test_default_cs_edsr_lands_in_published_band(self, tmp_path, capsys):
        from csdenoise.csdn import CsdnConfig, build_csdn
        from csdenoise.gradient_stats import HashConfig
        from csdenoise.model_io import save_model

        path = tmp_path / "default.model"
        save_model(build_csdn(CsdnConfig()), HashConfig(), path)
        assert run_cli(["flops", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        total_line = [ln for ln in out.splitlines() if ln.strip().startswith("total")][0]
        total = float(total_line.split()[1])
        assert 145.0 <= total <= 150.0  # denoiser alone, before the classifier line
        assert "combined total" in out


CONVENTION = (
    "convention: MAC=2 FLOPs; conv 2*K^2*(C_in/groups)*C_out per px; CSConv as conv; "
    "activations/adds/resampling C per px; biases and class lookups free; "
    "sub-resolution layers scaled by area fraction"
)

# `flops` output after the title line, per default-config model
GOLDEN_FLOPS = {
    "pcn": """\
  head                             24.0 FLOPs/px
  encoder.0                       804.0 FLOPs/px
  down.0                            3.0 FLOPs/px
  encoder.1                       201.0 FLOPs/px
  down.1                            0.8 FLOPs/px
  bottleneck_in                    50.2 FLOPs/px
  bottleneck.0                     51.0 FLOPs/px
  bottleneck.1                     51.0 FLOPs/px
  bottleneck.2                     51.0 FLOPs/px
  up.1                              3.0 FLOPs/px
  decoder.0                       363.0 FLOPs/px
  up.0                             12.0 FLOPs/px
  decoder.1                      1452.0 FLOPs/px
  tail                             72.0 FLOPs/px
  total                           3.138 kFLOPs/px
""",
    "cs-edsr": """\
  head                            288.0 FLOPs/px
  block.0                        9248.0 FLOPs/px
  block.1                        9248.0 FLOPs/px
  block.2                        9248.0 FLOPs/px
  block.3                        9248.0 FLOPs/px
  block.4                        9248.0 FLOPs/px
  block.5                        9248.0 FLOPs/px
  block.6                        9248.0 FLOPs/px
  block.7                        9248.0 FLOPs/px
  block.8                        9248.0 FLOPs/px
  block.9                        9248.0 FLOPs/px
  block.10                       9248.0 FLOPs/px
  block.11                       9248.0 FLOPs/px
  block.12                       9248.0 FLOPs/px
  block.13                       9248.0 FLOPs/px
  block.14                       9248.0 FLOPs/px
  block.15                       9248.0 FLOPs/px
  long_skip                        16.0 FLOPs/px
  tail                            288.0 FLOPs/px
  total                         148.560 kFLOPs/px
+ classifier (PcnNet): 3.138 kFLOPs/px
combined total: 151.698 kFLOPs/px
""",
    "plain-carn": """\
  head                            288.0 FLOPs/px
  cascade.0                     23904.0 FLOPs/px
  global_fusion.0                1024.0 FLOPs/px
  cascade.1                     23904.0 FLOPs/px
  global_fusion.1                1024.0 FLOPs/px
  cascade.2                     23904.0 FLOPs/px
  global_fusion.2                1024.0 FLOPs/px
  tail                            288.0 FLOPs/px
  total                          75.360 kFLOPs/px
""",
}

GOLDEN_NETS = {
    "pcn": lambda: build_pcn(PcnConfig()),
    "cs-edsr": lambda: build_csdn(CsdnConfig()),
    "plain-carn": lambda: build_csdn(CsdnConfig(arch="carn", use_csconv=False, num_classes=1)),
}

# `eval --sigma 25 --seed 3` of the CLI-trained models, after the config echo
GOLDEN_EVAL = """\
# hash: {'orientation_bins': 8, 'strength_bins': 3, 'coherence_bins': 3, \
'strength_thresholds': (0.0001, 0.001), 'coherence_thresholds': (0.25, 0.5)}
# classifier: pcn  sigma: 25.0  seed: 3
image             sigma  psnr_noisy     psnr    ssim
img0               25.0       20.77    11.56  0.7800
img1               25.0       20.80     4.04 -0.3280
img2               25.0       20.76     6.79  0.2693
mean                          20.78     7.46  0.2404
"""

GOLDEN_EVAL_CSV = """\
image,sigma,psnr_noisy,psnr,ssim\r
img0,25.0,20.7697,11.5577,0.7800\r
img1,25.0,20.7974,4.0388,-0.3280\r
img2,25.0,20.7604,6.7875,0.2693\r
mean,25.0,20.7758,7.4613,0.2404\r
"""


class TestGoldenOutput:
    """Every line the flops and eval reports print or write, pinned."""

    @pytest.mark.parametrize("name", GOLDEN_FLOPS)
    def test_flops_report(self, tmp_path, capsys, name):
        net = GOLDEN_NETS[name]()
        path = tmp_path / "m.model"
        save_model(net, HashConfig(), path)
        assert run_cli(["flops", "--model", str(path)]) == 0
        title = f"FLOPs report: {type(net).__name__} {dataclasses.asdict(net.config)}"
        assert capsys.readouterr().out == f"{title}\n{CONVENTION}\n{GOLDEN_FLOPS[name]}"

    def test_eval_report(self, tmp_path, data_dir, trained, capsys):
        pcn, csdn = trained
        report = tmp_path / "report.csv"
        assert run_cli(["eval", "--data", str(data_dir), "--sigma", "25", "--seed", "3",
                        "--pcn", str(pcn), "--csdn", str(csdn), "--report", str(report)]) == 0
        config = dataclasses.asdict(load_model(csdn)[0].config)
        assert capsys.readouterr().out == (
            f"# config: {config}\n{GOLDEN_EVAL}wrote report: {report}\n")
        assert report.read_bytes().decode() == GOLDEN_EVAL_CSV


def _built_configs(monkeypatch, argv):
    """Run a train command with training and saving stubbed out; return the
    configs it built, keyed by type."""
    built = {}

    def train(images, cfg, net_cfg, **kwargs):
        built.update({TrainConfig: cfg, type(net_cfg): net_cfg})
        return None, []

    def save(net, hash_cfg, path, seed):
        built[HashConfig] = hash_cfg

    monkeypatch.setattr(cli, "train_pcn", train)
    monkeypatch.setattr(cli, "train_csdn", train)
    monkeypatch.setattr(cli, "save_model", save)
    assert run_cli(argv) == 0
    return built


# one key per config the CLI builds:
# (command, config-file key, file value, flag value, config type, field, parsed values)
CONFIG_KEYS = [
    ("train-pcn", "lr", "0.002", "0.003", TrainConfig, "learning_rate", (0.002, 0.003)),
    ("train-csdn", "seed", "5", "6", TrainConfig, "seed", (5, 6)),
    ("train-pcn", "strength_thresholds", "0.002 0.02", "0.003,0.03", HashConfig,
     "strength_thresholds", ((0.002, 0.02), (0.003, 0.03))),
    ("train-pcn", "base_channels", "8", "16", PcnConfig, "base_channels", (8, 16)),
    ("train-csdn", "arch", "carn", "edsr", CsdnConfig, "arch", ("carn", "edsr")),
    ("train-csdn", "num_blocks", "2", "3", CsdnConfig, "num_blocks", (2, 3)),
]


class TestConfigFile:
    @pytest.mark.parametrize("command, key, file_value, flag_value, cls, field, parsed",
                             CONFIG_KEYS, ids=[case[1] for case in CONFIG_KEYS])
    def test_config_supplies_defaults_and_flags_override(
            self, tmp_path, data_dir, monkeypatch, command, key, file_value, flag_value,
            cls, field, parsed):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# experiment record\n{key} = {file_value}\n")
        argv = [command, "--data", str(data_dir), "--out", str(tmp_path / "m.model"),
                "--config", str(cfg)]
        from_file = _built_configs(monkeypatch, argv)[cls]
        flag = "--" + key.replace("_", "-")
        from_flag = _built_configs(monkeypatch, argv + [flag, flag_value])[cls]
        assert (getattr(from_file, field), getattr(from_flag, field)) == parsed

    def test_required_flags_alone_build_the_default_configs(self, tmp_path, data_dir,
                                                            monkeypatch):
        out = ["--data", str(data_dir), "--out", str(tmp_path / "m.model")]
        pcn = _built_configs(monkeypatch, ["train-pcn", *out])
        csdn = _built_configs(monkeypatch, ["train-csdn", *out])
        assert pcn == {TrainConfig: TrainConfig(), PcnConfig: PcnConfig(),
                       HashConfig: HashConfig()}
        assert csdn == {TrainConfig: TrainConfig(), CsdnConfig: CsdnConfig(),
                        HashConfig: HashConfig()}

    @pytest.mark.parametrize("line", ["epochz = 3", "num_classes = 12",
                                      "global_residual = image", "learning_rate = 0.1"])
    def test_key_no_command_reads_exits_two(self, tmp_path, data_dir, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"epochs = 1\n{line}\n")
        out = tmp_path / "m.model"
        rc = run_cli(["train-pcn", "--data", str(data_dir), "--out", str(out),
                      "--config", str(cfg)])
        assert rc == 2
        assert repr(line.split()[0]) in capsys.readouterr().err
        assert not out.exists()

    def test_key_the_other_stage_reads_is_allowed(self, tmp_path, data_dir, monkeypatch):
        """One file seeds both stages: train-csdn passes over the PCN's keys."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("base_channels = 8\nnum_blocks = 2\nclassifier = raisr-clean\n")
        built = _built_configs(monkeypatch, ["train-csdn", "--data", str(data_dir),
                                             "--out", str(tmp_path / "m.model"),
                                             "--config", str(cfg)])
        assert built[CsdnConfig].num_blocks == 2

    def test_unknown_classifier_exits_two(self, tmp_path, data_dir, plain_model, capsys):
        """Refused where it is resolved, though a plain denoiser reads no classes."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("classifier = oracle\n")
        report = tmp_path / "r.csv"
        rc = run_cli(["eval", "--data", str(data_dir), "--csdn", str(plain_model),
                      "--report", str(report), "--config", str(cfg)])
        assert rc == 2
        assert "unknown classifier 'oracle'" in capsys.readouterr().err
        assert not report.exists()

    def test_malformed_config_exits_two(self, tmp_path, data_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 1\n")
        rc = run_cli(["train-pcn", "--data", str(data_dir),
                      "--out", str(tmp_path / "m.model"), "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("line", ["epochs = one", "sigma = x", "seed = 1.5",
                                      "strength_thresholds = 0.1 x"])
    def test_config_value_of_wrong_type_exits_two(self, tmp_path, data_dir, capsys, line):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "m.model"
        rc = run_cli(["train-pcn", "--data", str(data_dir), "--out", str(out),
                      "--config", str(cfg)])
        assert rc == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not out.exists()
