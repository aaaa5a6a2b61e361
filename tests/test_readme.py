"""The README's library snippet runs as written and returns what its comments say."""

import re
from pathlib import Path

from qheatnet import gaussian, global_mme, local_mme

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    assert tuple(namespace["grid"]) == local_mme.FIELDS
    assert tuple(namespace["modes"]) == global_mme.FIELDS
    assert tuple(namespace["cells"]) == gaussian.FIELDS
    assert all(len(column) == 200 for column in namespace["grid"].values())
    assert namespace["errors"] == [None] * 200
