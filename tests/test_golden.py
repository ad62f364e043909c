"""Every row of the golden-output table (``golden.json``) still holds.

The table holds the repository's pinned argvs (CI's refusals, README's
examples, the benchmark workloads' argvs at seed 0 and more), each with the
sha256 of its stdout, its exit code and its stderr.
"""

import functools
import hashlib
import os
import re
import shlex
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


def test_ci_keeps_no_digest_of_its_own_and_checks_the_table_without_numpy():
    workflow = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    assert not re.search(r"[0-9a-f]{64}", workflow)
    refused = re.findall(r"^ *(?:&& )?refused_at_once (.+?)(?: \\)?$", workflow, re.M)
    assert len(refused) == 4
    table = {tuple(row["argv"]): row for row in ROWS}
    assert len(table) == len(ROWS)
    empty = hashlib.sha256(b"").hexdigest()
    for argv in refused:
        row = table[tuple(argv.split())]
        assert (row["stdout_sha256"], row["exit"]) == (empty, 2) and row["stderr"], argv
    jobs = re.split(r"^  (?=\S)", workflow.split("\njobs:\n")[1], flags=re.M)
    checking = [job for job in jobs if "run: python tests/golden.py --check\n" in job]
    assert len(checking) == 1 and "pip install" not in checking[0]


def test_ci_checks_the_table_under_reduced_simd_dispatch():
    workflow = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    tests_job = re.split(r"^  (?=\S)", workflow.split("\njobs:\n")[1], flags=re.M)[1]
    assert tests_job.startswith("tests:") and "pip install numpy" in tests_job
    assert re.search(
        r'^ +run: NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" '
        r"python tests/golden.py --check$",
        tests_job,
        re.M,
    )


@pytest.mark.parametrize("numpy_missing", [False, True])
def test_the_check_names_a_perturbed_row_and_leaves_out_the_numpy_rows_without_numpy(
    monkeypatch, capsys, numpy_missing
):
    if numpy_missing:
        monkeypatch.setitem(sys.modules, "numpy", None)
    rows = [dict(row) for row in ROWS]
    target = next(row for row in rows if row["argv"][:2] == ["verify", "beta-eq"])
    target["exit"] = 1
    ran = []

    def run(argv):
        ran.append(argv)
        return _outcome(argv)

    assert golden.check(rows, run) == 1
    exact = [row["argv"] for row in ROWS if row["argv"][0] != "oracle" and "--float" not in row["argv"]]
    assert len(exact) >= 60
    expected = exact if numpy_missing else [row["argv"] for row in ROWS]
    assert ran == expected
    assert capsys.readouterr().out == (
        f"mismatch: {shlex.join(target['argv'])}\n"
        f"{len(expected) - 1} of {len(expected)} rows hold; "
        f"{len(ROWS) - len(expected)} rows that need numpy were left out\n"
    )


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
