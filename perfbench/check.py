"""Compare a workload's CSV output with its reference.

Label, integer and verdict cells must match exactly.  Numeric cells must
agree to ``REL_TOL`` relative, where two cells that are both within the
workload's absolute floor count as equal.  Byte identity is reported but is
not the gate: changes in the order of floating-point operations move the
last digits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from workloads import REL_TOL


@dataclass
class CheckResult:
    ok: bool
    identical: bool
    max_rel_dev: float
    problem: str = ""


def _parse_numbers(cell: str, complex_ok: bool) -> list[complex] | None:
    if cell == "":
        return []
    try:
        if complex_ok:
            return [complex(tok) for tok in cell.split(" ")]
        return [complex(float(cell))]
    except ValueError:
        return None


def _cell_kind(kind: str, row: dict) -> str:
    # spectrum's point column is a grid label on point tests and a computed
    # joint eigenvalue on the other rows
    if kind == "point":
        return "exact" if row.get("row_type") == "point_test" else "cnum"
    return kind


def compare_table(got: bytes, ref: bytes, columns: dict, floor: float) -> CheckResult:
    """Check one CSV body against its reference, cell by cell."""
    identical = got == ref
    got_rows = list(csv.reader(io.StringIO(got.decode("utf-8"), newline="")))
    ref_rows = list(csv.reader(io.StringIO(ref.decode("utf-8"), newline="")))
    if not got_rows or got_rows[0] != ref_rows[0]:
        return CheckResult(False, identical, 0.0, f"header {got_rows[:1]} != {ref_rows[:1]}")
    header = ref_rows[0]
    if header != list(columns):
        return CheckResult(False, identical, 0.0, f"unexpected columns {header}")
    if len(got_rows) != len(ref_rows):
        return CheckResult(
            False, identical, 0.0, f"{len(got_rows) - 1} rows, reference has {len(ref_rows) - 1}"
        )
    worst = 0.0
    for line, (g, r) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=2):
        if len(g) != len(header):
            return CheckResult(False, identical, worst, f"line {line}: {len(g)} cells")
        row = dict(zip(header, r))
        for name, gc, rc in zip(header, g, r):
            kind = _cell_kind(columns[name], row)
            if kind == "exact":
                if gc != rc:
                    return CheckResult(
                        False, identical, worst, f"line {line} {name}: {gc!r} != {rc!r}"
                    )
                continue
            gv = _parse_numbers(gc, kind == "cnum")
            rv = _parse_numbers(rc, kind == "cnum")
            if gv is None or rv is None or len(gv) != len(rv):
                return CheckResult(
                    False, identical, worst, f"line {line} {name}: {gc!r} vs {rc!r}"
                )
            for a, b in zip(gv, rv):
                dev = abs(a - b)
                if dev == 0.0:
                    continue
                if dev != dev or dev == float("inf"):  # NaN or infinite
                    return CheckResult(
                        False, identical, worst, f"line {line} {name}: {gc!r} vs {rc!r}"
                    )
                if max(abs(a), abs(b)) <= floor:
                    continue
                rel = dev / max(abs(b), floor)
                worst = max(worst, rel)
                if rel > REL_TOL:
                    return CheckResult(
                        False, identical, worst,
                        f"line {line} {name}: {gc} vs {rc} (rel {rel:.3g})",
                    )
    return CheckResult(True, identical, worst)


def check_outputs(outputs: list[bytes], refs: list[bytes], tables: list[tuple[dict, float]]) -> CheckResult:
    """Check every CSV a run wrote (main table, then summary if any)."""
    total = CheckResult(True, True, 0.0)
    for got, ref, (columns, floor) in zip(outputs, refs, tables):
        res = compare_table(got, ref, columns, floor)
        total.identical = total.identical and res.identical
        total.max_rel_dev = max(total.max_rel_dev, res.max_rel_dev)
        if not res.ok:
            return CheckResult(False, total.identical, total.max_rel_dev, res.problem)
    return total
