import inspect
import re
from pathlib import Path

import csdenoise
from csdenoise import csconv, functional

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(csdenoise.__all__)) == len(csdenoise.__all__)
    for name in csdenoise.__all__:
        assert getattr(csdenoise, name) is not None, name


def test_readme_library_import_runs():
    match = re.search(r"^from csdenoise import \(.*?\)$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match is not None
    namespace = {}
    exec(match.group(0), namespace)
    for name in re.findall(r"\w+", match.group(0).split("(", 1)[1]):
        assert name in csdenoise.__all__, name
        assert namespace[name] is getattr(csdenoise, name)


def _public_functions(module):
    """What ``perfbench/spans.py`` wraps and times as one op each: the public
    functions a module defines."""
    return sorted(name for name, fn in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__)


def test_only_ops_are_public_in_the_traced_layers():
    """A helper made public by mistake would be timed as an op of its own,
    e.g. as an extra ``functional.*`` span in the elementwise metrics."""
    assert _public_functions(functional) == [
        "avg_downsample2x", "bilinear_upsample2x", "concat_channels", "conv2d",
        "l1_loss", "prelu", "relu",
    ]
    assert _public_functions(csconv) == ["csconv_forward"]
    # the tracer reads the feature and the layer positionally
    assert list(inspect.signature(csconv.csconv_forward).parameters)[:3] == [
        "q", "plan", "layer"]
