"""README.md: the library example and the command-line examples run as printed."""

import re
import shlex
from pathlib import Path

import pytest

from symq.cli import main

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def cli_examples():
    """(argv, expected first lines) of each `$ symq` command; `...` ends the shown output."""
    examples = []
    for _, block in BLOCKS:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            lines = chunk.replace("\\\n", " ").splitlines()
            shown = [line for line in lines[1:] if line.strip()]
            if "..." in shown:
                shown = shown[:shown.index("...")]
            examples.append((shlex.split(lines[0]), shown))
    return examples


EXAMPLES = cli_examples()


def test_the_library_example_prints_zero(capsys):
    (code,) = [code for lang, code in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "0\n"


def test_the_cli_examples_are_found():
    heads = [(argv[:3], shown) for argv, shown in EXAMPLES]
    assert heads == [(["symq", "cohomology", "--rack"], ["H2_SR = Z4", "Z2 = Z4", "B2 = 0"]),
                     (["symq", "wells", "extend"], ["OBSTRUCTED: class=[2]"])]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=["cohomology", "wells extend"])
def test_a_cli_example_prints_what_the_readme_shows(argv, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out.splitlines()[:len(shown)] == shown
