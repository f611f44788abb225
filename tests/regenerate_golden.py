"""The CLI's golden outputs on small inputs, and the script that writes them.

``tests/golden/`` holds every file that the ``nepoll`` commands of ``CASES``
leave in one directory, run in order, so later commands read the files
earlier ones wrote: a rewired, labeled configuration-model graph and a
G(n, p) graph from ``generate``, ``report`` (text and ``--csv``) and
``check`` on each, with its labels and without, and a 50-replication
``sweep`` on the first, with each command's stdout.  ``test_golden.py``
reruns them and compares every file byte for byte.

    PYTHONPATH=src python tests/regenerate_golden.py

rewrites the files from the nepoll on the path.  Running it changes what the
gate accepts, so a change that runs it says why in CHANGES.md.
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# files the commands read, written before the first command runs
INPUTS = {
    "sweep.cfg": 'graph.path = "config.edges"\n'
                 'labels.path = "config.labels"\n'
                 "budgets = [1, 5, 20]\n"
                 "replications = 50\n"
                 "seed = 3\n",
}

# (file that receives the command's stdout, the command's arguments)
CASES = [
    ("generate_config.out",
     ["generate", "--model", "config", "--n", "400", "--alpha", "2.4",
      "--kmin", "3", "--kmax", "40", "--rkk", "-0.1", "--rho", "0.1",
      "--label-p", "0.3", "--seed", "7", "--out", "config"]),
    ("generate_er.out",
     ["generate", "--model", "er", "--n", "300", "--p", "0.03",
      "--label-p", "0.3", "--seed", "7", "--out", "er"]),
    *((f"{command}_{name}.out",
       [command, "--graph", f"{name}.edges", "--labels", f"{name}.labels",
        *(["--csv", f"report_{name}.csv"] if command == "report" else [])])
      for name in ("config", "er") for command in ("report", "check")),
    *((f"{command}_{name}_unlabeled.out",
       [command, "--graph", f"{name}.edges"])
      for name in ("config", "er") for command in ("report", "check")),
    ("sweep.out", ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"]),
]


def run_cases(workdir: Path) -> dict[str, bytes]:
    """Run ``CASES`` in ``workdir`` and return the bytes of every file
    there afterwards, by name.  A command that exits non-zero raises."""
    from nepoll.cli import main

    for name, text in INPUTS.items():
        (workdir / name).write_bytes(text.encode())
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for out, argv in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"nepoll {' '.join(argv)} exited {code}")
            Path(out).write_bytes(buf.getvalue().encode())
    finally:
        os.chdir(cwd)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def main() -> int:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    files = run_cases(GOLDEN)
    print(f"wrote {len(files)} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
