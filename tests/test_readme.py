"""The README's examples, run as written: a removed public name or a changed
report byte fails here, not only in the reader's shell."""

import re
import shlex
from pathlib import Path

from pose6d.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def sessions(text: str) -> list[tuple[list[str], str]]:
    """Each ``$ pose6d ...`` command of a shell block (continuation lines
    joined) with the output shown under it, trailing blank lines dropped."""
    out = []
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            out.append((shlex.split(command), []))
        else:
            out[-1][1].append(line)
    return [(argv, "\n".join(shown).rstrip("\n") + "\n") for argv, shown in out]


def test_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = sessions(block("Quick start", "sh"))
    assert [argv[:2] for argv, _ in steps] == [["pose6d", "synth"], ["pose6d", "eval"]]
    for argv, shown in steps:
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == shown


def test_library_use_runs(capsys):
    exec(compile(block("Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("ladder pair")
