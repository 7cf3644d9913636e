"""The README's library quickstart runs as printed, and its flag lists match the parser."""

import argparse
import re
from pathlib import Path

from eigenreflect.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.bound_satisfied
    assert namespace["plan"].degree == 35


def test_command_line_bullets_match_the_parser():
    # each subcommand's bullet under "## Command line" lists exactly the flags it takes
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", section, re.M)
    documented = {name: set(re.findall(r"`(--[\w-]+)`", text)) for name, text in bullets}
    (subcommands,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsed = {
        name: {s for a in p._actions for s in a.option_strings} - {"--config", "-h", "--help"}
        for name, p in subcommands.choices.items()
    }
    assert len(bullets) == 4
    assert documented == parsed
