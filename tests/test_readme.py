import re
import shlex
from pathlib import Path

from nepoll.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_blocks():
    """``(info string, body)`` of every fenced block, indented ones too."""
    return re.findall(r"^ *```(\w*)\n(.*?)^ *```", README.read_text(),
                      re.S | re.M)


def test_readme_python_examples_run():
    blocks = [body for info, body in _fenced_blocks() if info == "python"]
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``nepoll`` line of the CLI block exits 0, in order, with the
    config-file example saved as the ``exp.cfg`` that ``sweep`` reads."""
    bodies = [body for info, body in _fenced_blocks() if not info]
    commands = next(b for b in bodies if b.startswith("nepoll "))
    config = next(b for b in bodies if b.startswith("graph.model"))
    (tmp_path / "exp.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    lines = commands.replace("\\\n", " ").splitlines()
    assert [shlex.split(line)[:2] for line in lines] == [
        ["nepoll", "generate"], ["nepoll", "report"], ["nepoll", "check"],
        ["nepoll", "sweep"]]
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line,
                                                  capsys.readouterr().err)
