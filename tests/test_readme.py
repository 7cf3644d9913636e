"""The README's library quickstart runs and its verify runs print what it quotes;
its flag lists match the parser."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eigenreflect
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


def quoted_verify_errors():
    """(threads, verify flags, quoted measured_error) for each verify run README prints."""
    text = README.read_text()
    runs = [
        (int(threads), flags.replace("\\\n", " ").split(), quoted)
        for threads, flags, quoted in re.findall(
            r"\$ OPENBLAS_NUM_THREADS=(\d+) eigenreflect verify ((?:.*\\\n)*.*)\n\{\n"
            r"  \"measured_error\": ([^,]+),",
            text,
        )
    ]
    assert runs, "README prints no verify run with its thread count"
    (flags, one, two), = re.findall(
        r"\(`verify ([^`]+)`\s+writes `measured_error` (\S+) under one OpenBLAS\s+"
        r"thread and (\S+) under two\)",
        text,
    )
    return runs + [(1, flags.split(), one), (2, flags.split(), two)]


@pytest.mark.parametrize("threads, flags, quoted", quoted_verify_errors())
def test_quoted_measured_errors_are_reproduced(threads, flags, quoted):
    # the thread count README names, since it changes the last digits
    src = str(Path(eigenreflect.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = [] if "--out" in flags else ["--out", "-"]
    proc = subprocess.run(
        [sys.executable, "-m", "eigenreflect", "verify", *flags, *out],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert re.search(r'"measured_error": ([^,]+),', proc.stdout).group(1) == quoted
