"""Property-based fuzzing of the command-line contract.

``hypothesis`` draws argv for all six subcommands over small images, tiny
models and 1-epoch, 1-step training. Whatever it draws, ``run_cli`` must
return 0, 1 or 2 without raising, and a run that fails (exit 1 or 2) must
leave no output file behind. Example budgets come from the settings profile
in ``conftest.py``.
"""

import contextlib
import io
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_toy_images
from helpers import subcommand_parsers
from csdenoise.cli import run_cli
from csdenoise.csdn import CsdnConfig, build_csdn
from csdenoise.gradient_stats import HashConfig
from csdenoise.image_io import write_image
from csdenoise.model_io import save_model
from csdenoise.pcn import PcnConfig, build_pcn
from csdenoise.pipeline import CLASSIFIER_MODES


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """Inputs the drawn argv can name: good, broken and missing files."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    img = make_toy_images(size=32, seed=9)[4]
    for name in ("data", "empty", "mixed"):
        (root / name).mkdir()
    write_image(img[:16, :24], root / "data" / "a.pgm")
    write_image(img, root / "data" / "b.png")
    write_image(img[:20, :20], root / "mixed" / "a.pgm")
    (root / "mixed" / "b.pgm").write_bytes(b"P5 4 4 255\n")
    write_image(img[:20, :24], root / "img.pgm")
    (root / "bad.pgm").write_bytes(b"P5\n")
    (root / "bad.model").write_bytes(b"CSDNMODEL-garbage")
    m2 = HashConfig(orientation_bins=2, strength_bins=1, coherence_bins=1,
                    strength_thresholds=(), coherence_thresholds=())
    m4 = HashConfig(orientation_bins=4, strength_bins=1, coherence_bins=1,
                    strength_thresholds=(), coherence_thresholds=())
    pcn = build_pcn(PcnConfig(base_channels=4, num_scales=2, residual_blocks=0), seed=1)
    save_model(pcn, m2, root / "pcn.model", seed=1)
    save_model(pcn, m4, root / "pcn4.model", seed=1)
    for name, arch, cs in (("csdn", "edsr", True), ("carn", "carn", True),
                           ("plain", "edsr", False)):
        net = build_csdn(CsdnConfig(arch=arch, num_blocks=1, num_features=4,
                                    use_csconv=cs, num_classes=2 if cs else 1), seed=2)
        save_model(net, m2, root / f"{name}.model", seed=2)
    (root / "good.cfg").write_text("epochs = 1\nsteps_per_epoch = 1\n")
    (root / "bad.cfg").write_text("no equals sign\n")
    (root / "typed.cfg").write_text("epochs = one\nsigma = x\nseed = 1.5\n")
    (root / "nan.cfg").write_text("sigma = nan\nlr = inf\n")
    return root


def _opt(flag, good, bad=(), required=False):
    """A flag as (required, well-formed argv pieces, malformed argv pieces)."""
    return required, [[flag, str(v)] for v in good], [[flag, str(v)] for v in bad]


def _req(flag, good, bad=()):
    return _opt(flag, good, bad, required=True)


NUMBER_JUNK = ["x", "nan", "inf", ""]
MODELS = ["pcn.model", "pcn4.model", "csdn.model", "carn.model", "plain.model",
          "bad.model", "missing.model", "img.pgm"]
IMAGE_IN = (["img.pgm", "data/b.png"], ["bad.pgm", "missing.pgm", "data"])
DATA = (["data"], ["mixed", "empty", "missing", "img.pgm"])
IMAGE_OUT = (["out/x.pgm", "out/x.png"], ["out/x.jpg", "out/sub/x.pgm"])
FILE_OUT = (["out/x.model", "out/x.csv"], ["out/sub/x.model", "out"])
THRESHOLDS = ["", "0.5", "0.5 0.25", "nan 0.5", "0 1", "1 2 3", "x"]

SEED = _opt("--seed", [0, 7], [-1, 2**70, "x"])
CONFIG = _opt("--config", ["good.cfg"], ["bad.cfg", "typed.cfg", "nan.cfg", "missing.cfg"])
# bin counts come with as many thresholds as they need (one fewer)
HASH = [_opt("--orientation-bins", [1, 2, 4], [-1, 0, "x"]),
        (False, [["--strength-bins", "1", "--strength-thresholds", ""],
                 ["--strength-bins", "2", "--strength-thresholds", "0.001"],
                 ["--strength-thresholds", "0.001,0.01"]],
         [["--strength-bins", b] for b in ("0", "2", "x")]
         + [["--strength-thresholds", t] for t in THRESHOLDS]),
        (False, [["--coherence-bins", "1", "--coherence-thresholds", ""],
                 ["--coherence-bins", "2", "--coherence-thresholds", "0.5"],
                 ["--coherence-thresholds", "0.2 0.6"]],
         [["--coherence-bins", b] for b in ("0", "2", "x")]
         + [["--coherence-thresholds", t] for t in THRESHOLDS])]
TRAIN = [_opt("--sigma", [5, 25], [-1, 0, 1e300, *NUMBER_JUNK]),
         _req("--epochs", [1], [-1, 0, "x"]),
         _req("--steps-per-epoch", [1], [-1, 0, "x"]),
         _opt("--batch-size", [1, 2], [-1, 0, "x"]),
         _req("--patch-size", [8, 16], [-1, 0, 1, 7, 17, 33, "x"]),
         _opt("--lr", [1e-3, 1e-2], [-1, 0, 1e300, *NUMBER_JUNK])]
CLASSIFIER = _opt("--classifier", CLASSIFIER_MODES, ["x"])

COMMANDS = {
    "classify": [_req("--in", *IMAGE_IN), _req("--out", *IMAGE_OUT),
                 (True, [["--raisr"], ["--pcn", "pcn.model"], ["--pcn", "pcn4.model"]],
                  [["--raisr", "--pcn", "pcn.model"], ["--pcn", "csdn.model"],
                   ["--pcn", "bad.model"], ["--pcn", "missing.model"]]),
                 *HASH, CONFIG],
    "denoise": [_req("--in", *IMAGE_IN), _opt("--pcn", ["pcn.model"], MODELS[1:]),
                _req("--csdn", ["csdn.model", "carn.model", "plain.model"], MODELS),
                _req("--out", *IMAGE_OUT)],
    "train-pcn": [_req("--data", *DATA), _req("--out", *FILE_OUT),
                  _opt("--base-channels", [1, 4], [-1, 0, "x"]),
                  _opt("--num-scales", [1, 2, 3], [0, 5, "x"]),
                  _opt("--residual-blocks", [0, 1], [-1, "x"]),
                  *TRAIN, *HASH, SEED, CONFIG],
    "train-csdn": [_req("--data", *DATA), _req("--out", *FILE_OUT), CLASSIFIER,
                   _opt("--pcn", ["pcn.model", "pcn4.model"], MODELS[2:]),
                   _opt("--arch", ["edsr", "carn"], ["x"]),
                   _opt("--num-blocks", [1, 2], [-1, 0, "x"]),
                   _req("--num-features", [1, 4], [-1, 0, "x"]),
                   (False, [["--plain"]], []), *TRAIN, *HASH, SEED, CONFIG],
    "eval": [_req("--data", *DATA), _req("--report", *FILE_OUT),
             _req("--csdn", ["csdn.model", "carn.model", "plain.model"], MODELS),
             _opt("--pcn", ["pcn.model", "pcn4.model"], MODELS[2:]), CLASSIFIER,
             _opt("--sigma", [5, 25], [-1, 0, 1e300, *NUMBER_JUNK]), SEED, CONFIG],
    "flops": [_req("--model", MODELS[:5], MODELS[5:]),
              _opt("--pcn", ["pcn.model"], MODELS[1:])],
}


def test_commands_table_covers_every_flag():
    """A flag the parser gains is fuzzed too: the table names every option."""
    parsers = subcommand_parsers()
    assert sorted(COMMANDS) == sorted(parsers)
    for name, parser in parsers.items():
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        named = {token for _, good, bad in COMMANDS[name] for piece in good + bad
                 for token in piece if token.startswith("--")}
        assert named == options, name


@st.composite
def argvs(draw):
    """A subcommand and its flags in any order. A strict draw gives every
    required flag a well-formed value; otherwise any flag may be missing or
    malformed."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    strict = draw(st.booleans())
    pieces = []
    for required, good, bad in COMMANDS[command]:
        if not (required and (strict or draw(st.integers(0, 9)))) and draw(st.booleans()):
            continue
        malformed = bad and not strict and draw(st.integers(0, 3)) == 0
        pieces.append(draw(st.sampled_from(bad if malformed else good)))
    pieces = draw(st.permutations(pieces))
    return [command] + [token for piece in pieces for token in piece]


# paths are resolved against the fixture tree, everything else passes as is
PATH_FLAGS = {"--in", "--out", "--pcn", "--csdn", "--model", "--data", "--report",
              "--config"}


@given(argv=argvs())
def test_cli_contract(tree, argv):
    out_dir = tree / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    argv = [str(tree / a) if prev in PATH_FLAGS else a
            for prev, a in zip([None] + argv, argv)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = run_cli(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc:
        left = sorted(p.name for p in out_dir.rglob("*"))
        assert not left, (argv, rc, left, err.getvalue())
