"""README.md as a contract: its command examples run, and it names no
private name."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from diamondcgt import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PROMPT = "$ diamondcgt "


def _fenced_blocks(text: str) -> list[list[str]]:
    blocks = []
    block = None
    for line in text.splitlines():
        if line.startswith("```"):
            if block is None:
                block = []
            else:
                blocks.append(block)
                block = None
        elif block is not None:
            block.append(line)
    return blocks


def _examples(blocks) -> list[tuple[str, list[str]]]:
    """Each ``$ diamondcgt`` line with the lines printed below it."""
    examples = []
    for block in blocks:
        for line in block:
            if line.startswith(PROMPT):
                examples.append((line[len(PROMPT):], []))
            elif examples and block[0].startswith(PROMPT):
                examples[-1][1].append(line)
    return examples


def _run(capsys, argv):
    cli.main(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    blocks = _fenced_blocks(README.read_text())
    examples = _examples(blocks)
    assert examples
    for command, printed in examples:
        out, err = _run(capsys, shlex.split(command))
        assert (out.splitlines(), err) == (printed, ""), command

    payloads = [b for b in blocks if b and b[0] == "{" and b[-1] == "}"]
    assert len(payloads) == 1
    expected = json.loads("\n".join(payloads[0]))
    argv = ["--json", *expected["command"].split(), expected["input"]]
    out, err = _run(capsys, argv)
    assert (json.loads(out), err) == (expected, "")


def test_readme_names_no_private_name():
    # a name that starts with one underscore, bare or after a dot or slash
    private = re.compile(r"(?<!\w)_(?!_)\w+")
    found = [
        (number, name)
        for number, line in enumerate(README.read_text().splitlines(), 1)
        for name in private.findall(line)
    ]
    assert found == []
