"""README's examples run as written: each python block, and the workload
example prints the figure its comment shows."""

import re
import shlex
from pathlib import Path

from frugaleval import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_python_examples_run(capsys):
    blocks = code_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})  # each in a fresh namespace
        assert capsys.readouterr().out, block


def test_workload_example_prints_its_figure(capsys):
    [example] = [block for block in code_blocks("sh") if block.startswith("frugaleval workload")]
    command, comment = example.replace("\\\n", " ").rstrip("\n").split("\n# ")
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == comment
    assert comment == "reviews per member per day: 2.1415"
