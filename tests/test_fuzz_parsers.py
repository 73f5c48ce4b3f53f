"""Property-based fuzzing of the file parsers.

Files written by the package are truncated at a random length or get one
random bit flipped. Reading them back must either decode or raise a
``CsdError``; any other exception is a parser bug. Example budgets come from
the settings profile in ``conftest.py``.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_toy_images
from csdenoise.csdn import CsdnConfig, build_cs_edsr
from csdenoise.errors import CsdError
from csdenoise.gradient_stats import HashConfig
from csdenoise.image_io import _PNG_SIGNATURE, read_image, write_image
from csdenoise.model_io import load_model, save_model
from csdenoise.pcn import PcnConfig, build_pcn


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """name -> (bytes of a file the package wrote, its reader)."""
    root = tmp_path_factory.mktemp("fuzz")
    img = make_toy_images(size=12, seed=5)[3]
    models = {
        "csdn.model": build_cs_edsr(CsdnConfig(arch="edsr", num_blocks=1, num_features=4,
                                               use_csconv=True, num_classes=2), seed=1),
        "pcn.model": build_pcn(PcnConfig(base_channels=4, num_scales=2,
                                          residual_blocks=0), seed=2),
    }
    for name in ("img.pgm", "img.png"):
        write_image(img, root / name)
    for name, net in models.items():
        save_model(net, HashConfig(orientation_bins=2, strength_bins=1, coherence_bins=1,
                                   strength_thresholds=(), coherence_thresholds=()),
                   root / name, seed=3)
    readers = {"img.pgm": read_image, "img.png": read_image,
               "csdn.model": load_model, "pcn.model": load_model}
    return {name: ((root / name).read_bytes(), reader) for name, reader in readers.items()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed")


def _decodes_or_csd_error(data: bytes, reader, path):
    path.write_bytes(data)
    try:
        reader(path)
    except CsdError:
        pass


def _header_length(name: str, data: bytes) -> int:
    """Bytes before the bulk payload, where most parser decisions are made."""
    if name.endswith(".model"):
        return 16 + struct.unpack("<Q", data[8:16])[0]  # up to the end of the metadata
    if name.endswith(".png"):
        return len(_PNG_SIGNATURE) + 25 + 8  # through IHDR and the IDAT chunk header
    return data.index(b"\n255\n") + 5  # through the PGM maxval line


NAMES = ["img.pgm", "img.png", "csdn.model", "pcn.model"]


@pytest.mark.parametrize("name", NAMES)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file(written, scratch, name, fraction):
    data, reader = written[name]
    _decodes_or_csd_error(data[: int(fraction * len(data))], reader, scratch / name)


@pytest.mark.parametrize("name", NAMES)
@given(choice=st.data())
def test_single_bit_flip(written, scratch, name, choice):
    data, reader = written[name]
    # half the flips land in the header and metadata, which the payload dwarfs
    span = choice.draw(st.sampled_from([_header_length(name, data), len(data)]))
    bit = choice.draw(st.integers(0, 8 * min(span, len(data)) - 1))
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _decodes_or_csd_error(bytes(flipped), reader, scratch / name)


def test_header_spans_lie_inside_the_files(written):
    for name, (data, _) in written.items():
        assert 0 < _header_length(name, data) < len(data)
