"""Correctness checks on hopcav outputs: a comparator against stored reference
tables and invariants that hold for every seed.

Rows are dicts of parsed cells: ``None`` for an empty cell, ``bool`` for
``true``/``false``, ``int`` for ``branch``, ``str`` for ``error`` and
``float`` otherwise.  Records from ``hopcav point --json`` have the same
shape, so one comparator serves CSV rows and JSON records.
"""

from __future__ import annotations

import math

RESIDUAL_GATE = 1e-9
RTOL = 1e-9
BOUND_TOL = 1e-12

EXACT_COLUMNS = ("stable", "branch", "error", "hurwitz_reduced", "hurwitz_full", "agree")
MEASURES = (
    "en_f1m1", "en_f2m2", "en_m1m2", "en_f1f2",
    "theta_f1m1", "theta_f2m2", "theta_m1m2", "theta_f1f2",
    "fidelity", "fidelity_bound", "lyap_residual",
)
# compared only against the residual gate, never against the reference
GATED_COLUMNS = ("lyap_residual",)


def _cell(column: str, text: str):
    if column == "error":
        return text
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if column == "branch":
        return int(text)
    return float(text)


def read_table(text: str) -> list[dict]:
    """Parse a hopcav CSV (sweep or stability map); '#' lines are skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return [
        {c: _cell(c, v) for c, v in zip(columns, line.split(",", len(columns) - 1))}
        for line in lines[1:]
    ]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def compare_row(row: dict, ref: dict) -> list[str]:
    """Differences of one row from its reference row."""
    problems = []
    if set(row) != set(ref):
        return [f"columns differ: {sorted(set(row) ^ set(ref))}"]
    for column, expected in ref.items():
        got = row[column]
        if column in GATED_COLUMNS:
            continue
        if column in EXACT_COLUMNS:
            if got != expected:
                problems.append(f"{column} = {got!r}, reference {expected!r}")
        elif not _close(got, expected):
            problems.append(f"{column} = {got!r}, reference {expected!r} (rtol {RTOL:g})")
    return problems


def sweep_row_problems(row: dict) -> list[str]:
    """Invariants of one sweep row (or point record), for every seed."""
    problems = []
    if row.get("error"):
        problems.append(f"error: {row['error']}")
    if row.get("stable"):
        missing = [m for m in MEASURES if row.get(m) is None]
        if missing:
            problems.append(f"stable row lacks {missing}")
            return problems
        if not row["lyap_residual"] < RESIDUAL_GATE:
            problems.append(f"lyap_residual {row['lyap_residual']:.3e} >= {RESIDUAL_GATE:g}")
        bound = 1.0 / (1.0 + math.exp(-row["en_f1f2"]))
        if abs(row["fidelity_bound"] - bound) > BOUND_TOL:
            problems.append(f"fidelity_bound {row['fidelity_bound']!r} != 1/(1+exp(-en_f1f2)) = {bound!r}")
        if not 0.0 < row["fidelity"] <= 1.0:
            problems.append(f"fidelity {row['fidelity']!r} outside (0, 1]")
    else:
        carried = [m for m in MEASURES if row.get(m) is not None]
        if carried:
            problems.append(f"unstable row carries {carried}")
    return problems


def stability_row_problems(row: dict) -> list[str]:
    return [] if row.get("agree") else ["sign conditions and eigenvalue test disagree"]


def check_rows(rows: list[dict], ref_rows: list[dict] | None, invariants) -> dict[int, list[str]]:
    """Row index -> problems, over invariants and, when a reference is
    given, the comparison with it."""
    bad: dict[int, list[str]] = {}
    if ref_rows is not None and len(rows) != len(ref_rows):
        bad[-1] = [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, row in enumerate(rows):
        problems = invariants(row)
        if ref_rows is not None and i < len(ref_rows):
            problems += compare_row(row, ref_rows[i])
        if problems:
            bad[i] = problems
    return bad


def failed_count(bad: dict[int, list[str]], n_rows: int) -> int:
    """Rows counted as failed; a row-count mismatch fails every row."""
    return n_rows if -1 in bad else len(bad)
