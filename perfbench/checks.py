"""Reference outputs and the row checks that feed fail_frac.

``reference/acceptance.csv`` and ``reference/cli-moderate.csv`` are the
tables the seed code printed; a row passes only if its CSV line is
byte-identical to the reference line.  ``reference/scale.json`` holds
full-precision values for the scale rows with a tolerance and its reason
per row (see ``make_reference.py``).
"""

from __future__ import annotations

import json
from itertools import zip_longest
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"
RATE_COLUMNS = (5, 6, 8, 10)


def load_reference(name: str):
    path = REF_DIR / name
    return json.loads(path.read_text()) if path.suffix == ".json" else path.read_text()


def row_key(line: str) -> tuple[str, ...]:
    """(mesh, k, epsilon, N) as printed in a CSV row."""
    return tuple(line.split(",")[:4])


def _without_rates(line: str) -> str:
    cells = line.split(",")
    for col in RATE_COLUMNS:
        if col < len(cells):
            cells[col] = ""
    return ",".join(cells)


def csv_failures(text: str, ref_text: str, keys=None,
                 ignore_rates: bool = False) -> int:
    """Number of rows of ``text`` that differ from the reference table.

    ``keys`` restricts the reference to the rows a run attempted, kept in
    reference order; with ``keys=None`` a result of 0 means ``text`` is
    byte-identical to ``ref_text``.  ``ignore_rates`` blanks the rate
    columns, for tables of single rows that have no neighbour to take a
    rate against.
    """
    header, *ref_rows = ref_text.splitlines()
    if keys is not None:
        wanted = set(keys)
        ref_rows = [line for line in ref_rows if row_key(line) in wanted]
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return max(len(ref_rows), 1)
    got = lines[1:]
    if ignore_rates:
        got = [_without_rates(line) for line in got]
        ref_rows = [_without_rates(line) for line in ref_rows]
    failed = sum(1 for a, b in zip_longest(got, ref_rows) if a != b)
    if keys is None and failed == 0 and text != ref_text:
        failed = 1          # same rows, different bytes (line ends, padding)
    return failed


def _close(value, expected, tol: dict) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    if "rtol" in tol:
        return abs(value - expected) <= tol["rtol"] * abs(expected)
    return 0.0 <= value <= tol["max"]


def scale_failures(rows, ref: dict, check_rates: bool = True) -> int:
    """Number of StudyRows outside their reference tolerance.

    Each reference row names a tolerance for the three error columns and,
    where rates are meaningful, an absolute tolerance on the three rates.
    """
    by_key = {(r["mesh"], r["k"], r["eps"], r["N"]): r for r in ref["rows"]}
    failed = 0
    for row in rows:
        exp = by_key.get((row.kind.value, row.k, row.eps, row.n))
        if exp is None or row.failed:
            failed += 1
            continue
        tol = exp["tolerance"]
        ok = all(_close(getattr(row, field), exp[field], tol[field])
                 for field in ("energy", "l2u", "l2p"))
        if check_rates and "rate_atol" in tol:
            ok = ok and all(
                _rate_close(getattr(row, field), exp[field], tol["rate_atol"])
                for field in ("rate_r2", "l2u_rate", "l2p_rate"))
        failed += not ok
    return failed


def _rate_close(value, expected, atol: float) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    return abs(value - expected) <= atol
