"""README's library example runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first fenced Python block under the "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["report"].slope >= 2.95
    assert np.isfinite(namespace["kkt"]).all()
