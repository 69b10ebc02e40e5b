"""Output checks for benchmark jobs.

References are the stdout bytes of fdcalc 0.1.0, as first imported and
before any optimisation, for seed 1: one file per job under ``reference/``.
Because the inputs of every seed differ only by relabelling (see
``inputs.py``), the same references check every seed.  Outputs that an
improved canonical search may legitimately change (code bytes, row order,
representatives) are compared only through the columns that do not depend
on them.
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path

from jobs import Job

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

OK, FAILED, UNCHECKED = "ok", "failed", "unchecked"


def reference(job: Job) -> bytes | None:
    path = REFERENCE_DIR / f"{job.name}.out"
    return path.read_bytes() if path.is_file() else None


def _rows(text: bytes, columns: int) -> Counter:
    return Counter(tuple(line.split(b"\t")[:columns])
                   for line in text.splitlines())


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def check_output(job: Job, returncode: int, stdout: bytes,
                 expected: bytes | None) -> tuple[str, str]:
    """Verdict (OK, FAILED or UNCHECKED) and a reason for one job run."""
    if returncode != 0:
        return FAILED, f"exit code {returncode}"
    lines = stdout.splitlines()
    if job.is_verify and (not lines or lines[-1] != b"PASS"):
        return FAILED, "verify did not end in PASS"
    if job.legs:
        try:
            total = sum(int(line.split(b"\t")[0]) for line in lines)
        except ValueError:
            return FAILED, "closures row without a multiplicity"
        if total != _double_factorial(job.legs - 1):
            return FAILED, (f"multiplicities sum to {total},"
                            f" not ({job.legs}-1)!!")
    if expected is None:
        return UNCHECKED, "no reference output"
    if job.check == "exact":
        if stdout != expected:
            return FAILED, "output differs from the reference bytes"
    elif _rows(stdout, job.columns) != _rows(expected, job.columns):
        return FAILED, (f"first {job.columns} columns differ from the"
                        " reference as a multiset")
    return OK, ""
