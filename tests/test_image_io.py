import struct
import zlib

import numpy as np
import pytest

from csdenoise.cli import run_cli
from csdenoise.csdn import CsdnConfig, build_csdn
from csdenoise.errors import ImageFormatError
from csdenoise.gradient_stats import HashConfig
from csdenoise.image_io import _PNG_SIGNATURE, _png_chunk, quantize_unit, read_image, write_image
from csdenoise.model_io import save_model
from csdenoise.pcn import PcnConfig, build_pcn


class TestPgm:
    def test_documented_byte_scaling(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = read_image(path)
        assert np.allclose(img, [[0.0, 128 / 255], [1.0, 64 / 255]])

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5 # comment\n# another\n 2\t1 \n255\n" + bytes([7, 9]))
        img = read_image(path)
        assert img.shape == (1, 2)

    def test_round_trip_quantization_error(self, tmp_path, rng):
        img = rng.random((17, 23))
        path = tmp_path / "rt.pgm"
        write_image(img, path)
        back = read_image(path)
        assert np.max(np.abs(back - img)) <= 1.0 / 510 + 1e-12

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_samples_scale_by_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 50]))
        assert read_image(path).tolist() == [[1.0, 0.5]]

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([101, 50]))
        with pytest.raises(ImageFormatError, match="maxval"):
            read_image(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ImageFormatError):
            read_image(path)


class TestQuantize:
    def test_rule_points(self):
        vals = quantize_unit(np.array([[0.0, 1.0, 0.5, -0.1, 1.3]]))
        assert vals.tolist() == [[0, 255, 128, 0, 255]]

    def test_idempotent_bytes(self, tmp_path, rng):
        img = rng.random((9, 9))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(img, p1)
        write_image(img, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPng:
    def test_round_trip(self, tmp_path, rng):
        img = rng.random((13, 19))
        path = tmp_path / "rt.png"
        write_image(img, path)
        back = read_image(path)
        assert np.max(np.abs(back - img)) <= 1.0 / 510 + 1e-12

    def test_pgm_and_png_agree(self, tmp_path, rng):
        img = rng.random((10, 10))
        write_image(img, tmp_path / "x.pgm")
        write_image(img, tmp_path / "x.png")
        assert np.array_equal(read_image(tmp_path / "x.pgm"),
                              read_image(tmp_path / "x.png"))

    def test_rgb_collapses_to_luminance(self, tmp_path):
        pil = pytest.importorskip("PIL.Image")
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        rgb[..., 0] = 200  # pure red
        path = tmp_path / "rgb.png"
        pil.fromarray(rgb, "RGB").save(path)
        img = read_image(path)
        assert np.allclose(img, 0.299 * 200 / 255, atol=1e-9)

    def test_cross_check_against_pillow(self, tmp_path, rng):
        pil = pytest.importorskip("PIL.Image")
        data = (rng.random((12, 15)) * 255).astype(np.uint8)
        path = tmp_path / "pil.png"
        pil.fromarray(data, "L").save(path)
        assert np.array_equal(read_image(path), data / 255.0)

        ours = tmp_path / "ours.png"
        write_image(data / 255.0, ours)
        assert np.array_equal(np.asarray(pil.open(ours)), data)

    def test_corrupt_stream(self, tmp_path):
        path = tmp_path / "bad.png"
        good = tmp_path / "good.png"
        write_image(np.zeros((4, 4)), good)
        payload = bytearray(good.read_bytes())
        payload[40] ^= 0xFF  # flip a byte inside IDAT
        path.write_bytes(bytes(payload))
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_chunk_crcs_checked(self, tmp_path, rng, capsys):
        img, good = rng.random((6, 7)), tmp_path / "good.png"
        write_image(img, good)
        assert np.array_equal(read_image(good), quantize_unit(img) / 255.0)
        data = good.read_bytes()
        ihdr_crc = len(_PNG_SIGNATURE) + 8 + 13
        (idat_len,) = struct.unpack(">I", data[ihdr_crc + 4 : ihdr_crc + 8])
        idat_crc = ihdr_crc + 4 + 8 + idat_len
        flipped = [bytearray(data), bytearray(data)]
        flipped[0][ihdr_crc + 1] ^= 0x01
        flipped[1][idat_crc + 3] ^= 0x80
        pcn, csdn = tmp_path / "pcn.model", tmp_path / "csdn.model"
        save_model(build_pcn(PcnConfig(base_channels=4, num_scales=2, residual_blocks=1)),
                   HashConfig(), pcn)
        save_model(build_csdn(CsdnConfig(num_blocks=1, num_features=4)), HashConfig(), csdn)
        for bad, match in ((flipped[0], "b'IHDR' fails its CRC"),
                           (flipped[1], "b'IDAT' fails its CRC"),
                           (data[:-4], "truncated PNG chunk b'IEND'")):
            path = tmp_path / "bad.png"
            path.write_bytes(bytes(bad))
            with pytest.raises(ImageFormatError, match=match):
                read_image(path)
            out = tmp_path / "out.pgm"
            assert run_cli(["denoise", "--in", str(path), "--pcn", str(pcn),
                            "--csdn", str(csdn), "--out", str(out)]) == 2
            assert match in capsys.readouterr().err
            assert not out.exists()

    @staticmethod
    def _png(tmp_path, ihdr, raw):
        """A PNG file of the given IHDR body and uncompressed scanline bytes."""
        path = tmp_path / "t.png"
        path.write_bytes(_PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr)
                         + _png_chunk(b"IDAT", zlib.compress(raw)) + _png_chunk(b"IEND", b""))
        return path

    def test_ihdr_of_wrong_length_rejected(self, tmp_path, capsys):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
        for body in (ihdr[:12], ihdr + b"\x00"):
            path = self._png(tmp_path, body, bytes(4 * 5))
            with pytest.raises(ImageFormatError, match="IHDR is"):
                read_image(path)
        out = tmp_path / "map.pgm"
        assert run_cli(["classify", "--in", str(path), "--raisr", "--out", str(out)]) == 2
        assert "IHDR is 14 bytes" in capsys.readouterr().err

    def test_zero_extents_rejected(self, tmp_path):
        for width, height in ((0, 0), (0, 4), (4, 0)):
            ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
            path = self._png(tmp_path, ihdr, bytes(height * (width + 1)))
            with pytest.raises(ImageFormatError, match="bad PNG extents"):
                read_image(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "x.jpg"
        path.write_bytes(b"\xff\xd8\xff\xe0 not really")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_unknown_extension_on_write(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_image(np.zeros((4, 4)), tmp_path / "x.bmp")
