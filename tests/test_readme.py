"""README's library example runs as written and gives what its comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    ns: dict = {}
    exec(compile(_library_example(), str(README), "exec"), ns)
    assert abs(ns["margin"].margin) <= 1e-9          # margin ~0
    assert ns["flag"] is False
    assert ns["probe"].verdict == "consistent"
    assert ns["sextic"].verdict == "consistent"
    assert ns["sextic"].witness["method"] == "exact"
    assert ns["split"].verdict == "refuted"
