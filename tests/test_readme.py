"""The command block of README.md's "Command line" section runs as written."""

import pathlib
import shlex

from localpolytope.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
INCONCLUSIVE = {"solve decide --state werner --m 2 --v0 0.72"}  # exits 2


def readme_commands():
    """Each `localpolytope ...` line of the first fenced block under "## Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line.split(None, 1)[1] for line in block.splitlines()
            if line.startswith("localpolytope ")]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 9 and INCONCLUSIVE <= set(commands)
    monkeypatch.chdir(tmp_path)
    # the CHSH functional that `bound --functional chsh.tensor` reads
    (tmp_path / "chsh.tensor").write_text("2 2 false\n1 1\n1 -1\n")
    for command in commands:
        code = main(shlex.split(command))
        out, err = capsys.readouterr()
        assert code == (2 if command in INCONCLUSIVE else 0), (command, out, err)
