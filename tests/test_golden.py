"""The CLI writes the committed golden bytes (see ``regenerate_golden.py``).
A mismatch names each differing file, its first differing line and the
numpy release, since numpy does not promise the same streams across
releases."""

import numpy as np

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


def test_cli_outputs_match_golden_files(tmp_path):
    want = {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())}
    got = run_cases(tmp_path)
    assert sorted(got) == sorted(want)
    differences = [_first_difference(name, want[name], got[name])
                   for name in want if got[name] != want[name]]
    assert not differences, \
        f"numpy {np.__version__}: " + "; ".join(differences)
