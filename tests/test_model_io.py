import dataclasses
import json
import struct

import numpy as np
import pytest

from csdenoise.cli import run_cli
from csdenoise.csdn import CsdnConfig, build_csdn
from csdenoise.errors import ConfigError, ModelFormatError
from csdenoise.gradient_stats import HashConfig
from csdenoise.image_io import write_image
from csdenoise.model_io import load_kind, load_model, save_model
from csdenoise.pcn import PcnConfig, build_pcn


def small_csdn(seed=0):
    return build_csdn(
        CsdnConfig(arch="edsr", num_blocks=2, num_features=8,
                   use_csconv=True, num_classes=8),
        seed=seed,
    )


# the 8 classes of small_csdn's filter bank
HASH8 = HashConfig(orientation_bins=8, strength_bins=1, coherence_bins=1,
                   strength_thresholds=(), coherence_thresholds=())


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        net = small_csdn()
        hash_cfg = HashConfig(orientation_bins=2, strength_bins=2,
                              coherence_bins=2, strength_thresholds=(0.001,),
                              coherence_thresholds=(0.4,))
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(net, hash_cfg, p1, seed=5)
        loaded, loaded_hash = load_model(p1)
        save_model(loaded, loaded_hash, p2, seed=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameters_bit_exact(self, tmp_path, rng):
        net = small_csdn(seed=3)
        for _, p in net.named_parameters():
            p.data += rng.standard_normal(p.shape)  # break the init pattern
        path = tmp_path / "m.model"
        save_model(net, HASH8, path)
        loaded, _ = load_model(path)
        for (na, a), (nb, b) in zip(net.named_parameters(),
                                    loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(a.data, b.data)

    def test_pcn_round_trip(self, tmp_path):
        net = build_pcn(PcnConfig(base_channels=8, num_scales=2,
                                  residual_blocks=1), seed=1)
        path = tmp_path / "pcn.model"
        save_model(net, HashConfig(), path, seed=1)
        loaded, hash_cfg = load_model(path)
        assert loaded.kind == "pcn"
        assert loaded.config == net.config
        assert hash_cfg == HashConfig()

    def test_forward_bit_match_after_reload(self, tmp_path, rng):
        from csdenoise.csdn import csdn_forward

        net = small_csdn(seed=7)
        path = tmp_path / "m.model"
        save_model(net, HASH8, path)
        loaded, _ = load_model(path)
        img = rng.random((16, 16))
        classes = rng.integers(1, 9, size=(16, 16))
        assert np.array_equal(
            csdn_forward(net, img, classes), csdn_forward(loaded, img, classes)
        )


class TestAtomicSave:
    def test_failed_save_keeps_the_old_model(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_csdn(seed=1), HASH8, path)
        before = path.read_bytes()
        net = small_csdn(seed=2)
        _, last = list(net.named_parameters())[-1]
        last.data = np.full(last.shape, "x")  # fails after the header and earlier payloads
        with pytest.raises(ValueError):
            save_model(net, HASH8, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]

    def test_failed_replace_leaves_no_file(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(OSError):
            save_model(small_csdn(), HASH8, target)
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert not list(target.iterdir())


class TestNonFiniteSave:
    """A parameter that load_model would refuse is refused at save, before the
    file at ``path`` changes."""

    @staticmethod
    def _nan_pcn():
        net = build_pcn(PcnConfig(base_channels=4, num_scales=2, residual_blocks=1), seed=1)
        net.tail.bias.data[0, 1] = np.nan
        return net

    def test_nothing_written(self, tmp_path):
        path = tmp_path / "pcn.model"
        with pytest.raises(ModelFormatError, match="'tail.bias' holds non-finite values"):
            save_model(self._nan_pcn(), HashConfig(), path)
        assert not list(tmp_path.iterdir())

    def test_existing_file_untouched(self, tmp_path):
        path = tmp_path / "pcn.model"
        save_model(build_pcn(PcnConfig(base_channels=4, num_scales=2, residual_blocks=1)),
                   HashConfig(), path)
        before = path.read_bytes()
        with pytest.raises(ModelFormatError, match="non-finite"):
            save_model(self._nan_pcn(), HashConfig(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pcn.model"]


class TestClassCount:
    """A class-specific denoiser's hash must hash into as many classes as its
    filter bank holds; the check runs when a model is saved and when it is loaded."""

    def test_save_refuses_a_mismatch(self, tmp_path):
        path = tmp_path / "m.model"
        with pytest.raises(ConfigError, match="class-count mismatch"):
            save_model(small_csdn(), HashConfig(), path)
        assert not list(tmp_path.iterdir())

    def test_load_refuses_a_mismatch(self, tmp_path, capsys):
        path = tmp_path / "m.model"
        save_model(small_csdn(), HASH8, path)
        _rewrite_meta(path, lambda meta: meta.update(hash=dataclasses.asdict(HashConfig())))
        with pytest.raises(ConfigError, match="class-count mismatch"):
            load_kind(path, "csdn")
        noisy, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_image(np.full((8, 8), 0.5), noisy)
        for argv in (["denoise", "--in", str(noisy), "--csdn", str(path), "--out", str(out)],
                     ["flops", "--model", str(path)]):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert "class-count mismatch: classifier hashes into 72 classes" in captured.err
            assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm", "m.model"]


class TestErrors:
    def test_kind_mismatch(self, tmp_path):
        net = build_pcn(PcnConfig(base_channels=4, num_scales=2,
                                  residual_blocks=0), seed=0)
        path = tmp_path / "pcn.model"
        save_model(net, HashConfig(), path)
        with pytest.raises(ModelFormatError, match="expected"):
            load_kind(path, "csdn")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"JUNKyard")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        net = small_csdn()
        path = tmp_path / "m.model"
        save_model(net, HASH8, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_corrupt_length_prefix_names_parameter(self, tmp_path):
        net = small_csdn()
        path = tmp_path / "m.model"
        save_model(net, HASH8, path)
        raw = bytearray(path.read_bytes())
        meta_len = struct.unpack("<Q", raw[8:16])[0]
        first_prefix = 16 + meta_len
        raw[first_prefix : first_prefix + 8] = struct.pack("<Q", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="head.kernel"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        net = small_csdn()
        path = tmp_path / "m.model"
        save_model(net, HASH8, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        net = small_csdn()
        path = tmp_path / "m.model"
        save_model(net, HASH8, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    def test_forged_metadata_length_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "m.model"
        save_model(small_csdn(), HASH8, path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<Q", 2**60)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="metadata"):
            load_model(path)
        assert run_cli(["flops", "--model", str(path)]) == 2
        assert "metadata" in capsys.readouterr().err

    def test_malformed_metadata(self, tmp_path):
        path = tmp_path / "m.model"
        meta = b"{not json"
        path.write_bytes(b"CSDN" + struct.pack("<I", 1)
                         + struct.pack("<Q", len(meta)) + meta)
        with pytest.raises(ModelFormatError, match="metadata"):
            load_model(path)


def _rewrite_meta(path, edit):
    """Rewrite a model file's metadata block with ``edit(meta)`` applied."""
    raw = path.read_bytes()
    meta_len = struct.unpack("<Q", raw[8:16])[0]
    meta = json.loads(raw[16 : 16 + meta_len])
    edit(meta)
    blob = json.dumps(meta).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + meta_len :])


class TestRemovedGlobalResidual:
    """Denoiser files from before ``CsdnConfig.global_residual`` was removed
    carry ``"global_residual": "feature"``, the value every network now has."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "old.model"
        save_model(small_csdn(seed=7), HASH8, path)
        return path

    def test_feature_value_loads_and_resaves_as_a_fresh_save(self, path, tmp_path, rng):
        from csdenoise.csdn import csdn_forward

        _rewrite_meta(path, lambda meta: meta["config"].update(global_residual="feature"))
        loaded, hash_cfg = load_model(path)
        img = rng.random((16, 16))
        classes = rng.integers(1, 9, size=(16, 16))
        assert np.array_equal(csdn_forward(loaded, img, classes),
                              csdn_forward(small_csdn(seed=7), img, classes))
        resaved, fresh = tmp_path / "resaved.model", tmp_path / "fresh.model"
        save_model(loaded, hash_cfg, resaved)
        save_model(small_csdn(seed=7), HASH8, fresh)
        assert resaved.read_bytes() == fresh.read_bytes()

    def test_image_value_refused(self, path, tmp_path, capsys):
        _rewrite_meta(path, lambda meta: meta["config"].update(global_residual="image"))
        with pytest.raises(ModelFormatError, match="unsupported global_residual 'image'"):
            load_model(path)
        data, report = tmp_path / "data", tmp_path / "report.csv"
        data.mkdir()
        write_image(np.full((16, 16), 0.5), data / "img.pgm")
        for argv in (["flops", "--model", str(path)],
                     ["eval", "--data", str(data), "--csdn", str(path), "--report", str(report)]):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert "global_residual" in captured.err
            assert captured.out == ""
        assert not report.exists()


class TestCorruptContent:
    """Corruptions that decode as far as the content: each is a ModelFormatError
    and exit status 2 from the CLI, never another exception."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(small_csdn(), HASH8, path)
        return path

    def _rejected(self, path, match, capsys):
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)
        assert run_cli(["flops", "--model", str(path)]) == 2
        assert match in capsys.readouterr().err

    def test_bit_flip_to_invalid_utf8_in_metadata(self, path, capsys):
        raw = bytearray(path.read_bytes())
        raw[16 + raw[16:].index(b"edsr")] ^= 0x80
        path.write_bytes(bytes(raw))
        self._rejected(path, "malformed metadata", capsys)

    def test_negative_seed(self, path, capsys):
        _rewrite_meta(path, lambda meta: meta.update(seed=-1))
        self._rejected(path, "seed -1", capsys)

    def test_params_not_a_list(self, path, capsys):
        _rewrite_meta(path, lambda meta: meta.update(params=5))
        self._rejected(path, "params must be a list", capsys)

    def test_non_numeric_thresholds(self, path, capsys):
        _rewrite_meta(path, lambda meta: meta["hash"].update(strength_thresholds=["x", "y"]))
        self._rejected(path, "malformed metadata", capsys)

    def test_param_shape_not_a_sequence(self, path, capsys):
        _rewrite_meta(path, lambda meta: meta["params"][0].update(shape=5))
        self._rejected(path, "malformed metadata", capsys)

    @pytest.mark.parametrize("config", ["edsr", [["arch", "edsr"]]], ids=["string", "list"])
    def test_config_not_a_mapping(self, path, capsys, config):
        _rewrite_meta(path, lambda meta: meta.update(config=config))
        self._rejected(path, "malformed metadata", capsys)

    def test_nan_weight(self, path, capsys):
        raw = bytearray(path.read_bytes())
        first_value = 16 + struct.unpack("<Q", raw[8:16])[0] + 8
        raw[first_value : first_value + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        self._rejected(path, "non-finite", capsys)
