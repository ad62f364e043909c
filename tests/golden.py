"""The golden-output table: argvs of ``harmonic_beta`` and what each printed.

Each row of ``golden.json`` holds an argv, the sha256 of its stdout, its
exit code and its stderr.  ``test_golden.py`` runs every row in process
and fails each row whose outcome differs from the recorded one.  A change
that alters output re-records only the rows it changes, and lists each old
and new digest in CHANGES.md:

    python tests/golden.py --record verify thm2.2 --n-max 4 --x=3,1,2

runs the argv on the working tree's ``src`` and writes its row, in place of
the row with the same argv or else at the end of the table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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


def record(argv: list[str]) -> dict:
    """Run ``argv`` and write its row into the table; return the row."""
    row = {"argv": argv, **outcome(argv)}
    rows = load()
    at = next((i for i, old in enumerate(rows) if old["argv"] == argv), len(rows))
    rows[at:at + 1] = [row]
    dump(rows)
    return row


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) < 3:
        sys.exit("usage: python tests/golden.py --record <argv...>")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(record(sys.argv[2:])))
