"""The CLI writes the committed golden bytes (see ``regenerate_golden.py``).
A mismatch names each differing file, its first differing line and the
numpy release, since numpy does not promise the same streams across
releases."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nepoll
from regenerate_golden import GOLDEN, run_cases


def _first_difference(name: str, want: bytes, got: bytes) -> str:
    want_lines = want.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    for i, (w, g) in enumerate(zip(want_lines, got_lines)):
        if w != g:
            return f"{name}:{i + 1}: expected {w!r}, got {g!r}"
    i = min(len(want_lines), len(got_lines))
    return (f"{name}:{i + 1}: expected {len(want_lines)} lines, "
            f"got {len(got_lines)}")


def _assert_golden(got: dict[str, bytes]) -> None:
    want = {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())}
    assert sorted(got) == sorted(want)
    differences = [_first_difference(name, want[name], got[name])
                   for name in want if got[name] != want[name]]
    assert not differences, \
        f"numpy {np.__version__}: " + "; ".join(differences)


def test_cli_outputs_match_golden_files(tmp_path):
    _assert_golden(run_cases(tmp_path))


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_golden_files_do_not_depend_on_the_blas_kernel(tmp_path, core):
    # each OpenBLAS kernel sums a dot product in its own order, and
    # OPENBLAS_CORETYPE picks one when the library loads; no float the CLI
    # writes may go through one (a numpy without OpenBLAS ignores it)
    paths = [str(Path(nepoll.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    subprocess.run(
        [sys.executable, "-c", "import sys, pathlib, regenerate_golden; "
         "regenerate_golden.run_cases(pathlib.Path(sys.argv[1]))",
         str(tmp_path)],
        env={**os.environ, "OPENBLAS_CORETYPE": core,
             "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        check=True)
    _assert_golden({p.name: p.read_bytes() for p in tmp_path.iterdir()})
