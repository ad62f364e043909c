"""Every row of the golden-output table (``golden.json``) still holds.

The table holds the argvs of CI's digest and refusal steps, each with the
sha256 of its stdout, its exit code and its stderr.
"""

import functools
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import harmonic_beta

ROWS = golden.load()


@functools.cache
def _run_once(argv: tuple[str, ...]) -> dict:
    return golden.outcome(list(argv))


def _outcome(argv: list[str]) -> dict:
    """golden.outcome, run once per argv in a session: the row tests and the
    checker's tests share the runs."""
    return _run_once(tuple(argv))


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_row_holds(row):
    assert golden.mismatches([row], _outcome) == []


def test_the_table_holds_every_ci_digest_and_refusal():
    workflow = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    digests = re.findall(r"^ *check ([0-9a-f]{64}) (.+)$", workflow, re.M)
    refused = re.findall(r"^ *(?:&& )?refused(?:_at_once)? (.+?)(?: \\)?$", workflow, re.M)
    assert len(digests) >= 63 and len(refused) >= 18
    table = {tuple(row["argv"]): row for row in ROWS}
    assert len(table) == len(ROWS)
    for digest, argv in digests:
        assert table[tuple(argv.split())]["stdout_sha256"] == digest, argv
    empty = hashlib.sha256(b"").hexdigest()
    for argv in refused:
        row = table[tuple(argv.split())]
        assert (row["stdout_sha256"], row["exit"]) == (empty, 2) and row["stderr"], argv


@pytest.mark.parametrize("field", golden.FIELDS)
def test_the_checker_fails_exactly_a_perturbed_row(field):
    rows = [dict(row) for row in ROWS]
    target = next(row for row in rows if row["argv"][:2] == ["verify", "beta-eq"])
    target[field] = {
        "stdout_sha256": target["stdout_sha256"][::-1],
        "exit": 1,
        "stderr": "error\n",
    }[field]
    assert golden.mismatches(rows, _outcome) == [target]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm2.2", "--n-max", "4", "--x=3,1,2", "--format", "text"],
        ["verify", "all", "--r-max", "-1"],  # a refusal, whose exit code main() passes on
    ],
)
def test_the_module_entry_point_prints_the_recorded_outcome(argv):
    row = next(row for row in ROWS if row["argv"] == argv)
    src = os.path.dirname(os.path.dirname(harmonic_beta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_beta", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    got = {
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "exit": proc.returncode,
        "stderr": proc.stderr.decode(),
    }
    assert got == {field: row[field] for field in golden.FIELDS}


def test_the_recorder_replaces_a_row_in_place_or_appends_one(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "TABLE", tmp_path / "golden.json")
    stale = {**ROWS[1], "exit": 1}
    golden.dump([ROWS[0], stale])
    assert golden.record(ROWS[1]["argv"]) == ROWS[1]
    new = golden.record(["compute", "H", "--n", "3", "--alpha", "1"])
    assert new["exit"] == 0 and new["stdout_sha256"] == hashlib.sha256(b"11/6\n").hexdigest()
    assert golden.load() == [ROWS[0], ROWS[1], new]
