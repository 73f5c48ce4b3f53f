import re
from pathlib import Path

import csdenoise

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
