"""The README's library example runs against the package's public names."""

import re
from pathlib import Path

import flextrack as ft

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_runs():
    box = ft.BoundingBox(10.0, 20.0, 30.0, 40.0)
    namespace = {"detection_stream": [[ft.Detection(box)], [ft.Detection(box)]]}
    exec(library_use_block(), namespace)
    assert [d.state.name for d in namespace["result"].decisions] == ["MATCH", "POTENTIAL_MATCH"]
    assert namespace["live"] == [(1, namespace["mot"].trackers[0].box)]


def test_public_names_are_those_of_the_library_use():
    assert set(re.findall(r"\bft\.(\w+)", library_use_block())) == set(ft.__all__)
