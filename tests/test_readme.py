"""The README's library quickstart runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.bound_satisfied
    assert namespace["plan"].degree == 35
