"""The golden-output table: argvs of ``harmonic_beta`` and what each printed.

The table is the repository's one pin on output.  Each row of
``golden.json`` holds an argv, the sha256 of its stdout, its exit code and
its stderr.  ``test_golden.py`` runs every row in process and fails each
row whose outcome differs from the recorded one; CI runs

    python tests/golden.py --check

on Python versions without numpy, which runs every row, prints the argv of
each row that differs and exits 1 if any does.  Where numpy cannot be
imported it leaves out, and counts, the rows that need it: the ``oracle``
rows and those with ``--float``.  A new row must hold under reduced SIMD
dispatch (``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
AVX512_SPR"``), or be recorded in ``--format text``: the JSON of ``oracle
quad`` prints numpy's error estimate to 17 digits, and the dispatch changes
them.  CI also runs ``--check`` with numpy and X86_V4 and the AVX-512
groups disabled.

A change that alters output re-records only the rows it changes, and lists
each old and new digest in CHANGES.md:

    python tests/golden.py --record verify thm2.2 --n-max 4 --x=3,1,2

runs the argv on the working tree's ``src`` and writes its row, in place of
the row with the same argv or else at the end of the table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("golden.json")

#: The fields a row records besides its argv, each compared exactly.
FIELDS = ("stdout_sha256", "exit", "stderr")


def load() -> list[dict]:
    return json.loads(TABLE.read_text())


def dump(rows: list[dict]) -> None:
    """Write the table one row per line, so a re-recorded row is a one-line diff."""
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


def outcome(argv: list[str]) -> dict:
    """The recorded fields of ``harmonic_beta argv``, run in process."""
    from harmonic_beta.cli import run

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return {"stdout_sha256": digest, "exit": code, "stderr": stderr.getvalue()}


def mismatches(rows: list[dict], run=outcome) -> list[dict]:
    """The rows whose argv, run by ``run``, differs from the recorded outcome."""
    return [row for row in rows if run(row["argv"]) != {field: row[field] for field in FIELDS}]


def check(rows: list[dict], run=outcome) -> int:
    """Print the argv of each row that differs and a summary; return the exit code.

    Without numpy, the rows that need it are left out and counted.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        kept = [row for row in rows if row["argv"][0] != "oracle" and "--float" not in row["argv"]]
    else:
        kept = rows
    bad = mismatches(kept, run)
    for row in bad:
        print("mismatch:", shlex.join(row["argv"]))
    print(f"{len(kept) - len(bad)} of {len(kept)} rows hold; "
          f"{len(rows) - len(kept)} rows that need numpy were left out")
    return 1 if bad else 0


def record(argv: list[str]) -> dict:
    """Run ``argv`` and write its row into the table; return the row."""
    row = {"argv": argv, **outcome(argv)}
    rows = load()
    at = next((i for i, old in enumerate(rows) if old["argv"] == argv), len(rows))
    rows[at:at + 1] = [row]
    dump(rows)
    return row


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if sys.argv[1:] == ["--check"]:
        sys.exit(check(load()))
    if sys.argv[1:2] != ["--record"] or len(sys.argv) < 3:
        sys.exit("usage: python tests/golden.py --check | --record <argv...>")
    print(json.dumps(record(sys.argv[2:])))
