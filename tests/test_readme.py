import re
import shlex
from pathlib import Path

from nepoll.cli import main
from nepoll.config import FLAGS

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


def test_readme_generate_flag_table_matches_the_key_table():
    """The README's flag -> config key table of ``generate`` states what
    ``nepoll.config.KEYS`` derives: each flag and the keys it sets, and
    each flag default."""
    rows = re.findall(r"^ *\| (`--.*?) \| (.*?) \|$", README.read_text(),
                      re.M)
    assert rows
    stated, defaults = {}, {}
    for flag_cell, key_cell in rows:
        flags = re.findall(r"`(--[\w-]+)`", flag_cell)
        keys = re.findall(r"`([a-z_.]+)`", key_cell)
        if len(flags) == 1:
            stated[flags[0]] = keys
        else:
            stated.update((flag, [key])
                          for flag, key in zip(flags, keys, strict=True))
        defaults.update((flag, float(value)) for flag, value in re.findall(
            r"`(--[\w-]+)` \(default (\S+)\)", flag_cell))
    assert stated == {flag: [key.name for key in keys]
                      for flag, keys in FLAGS.items()}
    assert defaults == {flag: keys[0].options["default"]
                        for flag, keys in FLAGS.items()
                        if "default" in (keys[0].options or {})}
