"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from pricelab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})


def command_line_block() -> list[list[str]]:
    """The sh block under "## Command line", one argv per command, its
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_the_command_line_block_of_the_readme_runs(tmp_path, monkeypatch, capsys):
    """The tier-1 twin of CI's step "The README's command-line block runs":
    in an empty directory, each pricelab command runs in process and exits
    0, and each printf '%s\\n' ... > file writes its arguments one a line."""
    commands = command_line_block()
    assert commands[0][0] == "pricelab" and any(argv[1] == "ingest" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "printf":
            assert argv[1] == "%s\\n" and argv[-2] == ">", argv
            Path(argv[-1]).write_text("".join(f"{line}\n" for line in argv[2:-2]))
            continue
        assert argv[0] == "pricelab", argv
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
