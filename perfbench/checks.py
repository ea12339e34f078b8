"""Correctness gates, run outside the timed phase of every run.

* ``report``: the exhaustive Table 2 cells (seed-independent) and Table 3
  must equal the committed reference exactly; each sampled Table 2 cell
  must lie within twice the sum of its 99% half-width and the committed
  high-sample reference's (see :func:`sampled_cell_ok` for why twice).
* ``campaign``: the report of the default path must equal, line for line,
  the report of the streaming shared-memory path for the same seed and
  size.
* ``serve``: every job completes, and its report equals the same
  ``repro evaluate`` run in-process.
* every run: the run-store hit and miss counts in each manifest must be
  exactly what a cold store gives, so a store left warm by an earlier run
  fails loudly instead of posting a fast number.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Table 2 columns evaluated exhaustively, whatever the seed
EXHAUSTIVE_COLUMNS = ("1 Bit", "1 Pin", "1 Byte", "2 Bits")
#: Table 2 columns estimated from samples
SAMPLED_COLUMNS = ("3 Bits", "1 Beat", "1 Entry")
#: two-sided 99% normal quantile, as the program's own half-widths use
Z99 = 2.576
#: half of the last printed digit of a Table 2 percentage (``x.xxxx%``)
ROUNDING = 0.5e-6
#: the run-summary line differs between stores by design
SUMMARY_PREFIX = "[repro runs]"


def markdown_table(text: str, heading: str) -> tuple[list[str], list[list]]:
    """Header and rows of the first table under a ``## heading`` line."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("## ") and heading in line)
    table = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            table.append([cell.strip() for cell in line.strip("|").split("|")])
        elif table:
            break
    header, rows = table[0], table[2:]
    return header, rows


def section(text: str, heading: str) -> str:
    """Every line of one ``## heading`` section, up to the next one."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("## ") and heading in line)
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    return "\n".join(lines[start:end]).strip()


def parse_percent(cell: str) -> float | None:
    if not cell.endswith("%"):
        return None
    return float(cell[:-1]) / 100.0


def half_width_99(p: float, n: int) -> float:
    """99% half-width of an estimate from ``n`` draws, as the program's
    ``PatternOutcome.sdc_confidence_99`` computes it (variance floored at
    ``1/n`` so rare-event cells keep a usable width)."""
    return Z99 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def sampled_cell_ok(cell: str, ref: dict, samples: int) -> tuple[bool, str]:
    """One sampled Table 2 cell against the high-sample reference.

    The printed SDC (0 for a ``C``, ``D`` or ``C/D`` cell) must lie within
    twice the sum of the 99% half-widths of a ``samples``-draw estimate and
    of the reference, both at the reference's rate; a
    reference of 0 SDC still has a width (the ``1/n`` floor), since rare
    miscorrections do occur (``duet`` on beat errors is one in ~10^5).  A
    cell without SDC must also show both outcomes when the reference's
    rarer one is expected at least 20 times in ``samples`` draws.  With about
    20 sampled cells carrying SDC in one report, one half-width per cell
    would fail roughly one correct run in six; the doubled bound fails
    about one in a million.  At 20,000 samples it still flags a 42% rate
    that moved by 2.2 points, a 3.4% rate that moved by 0.8 points, or a
    0.7% rate that moved by 0.4 points.
    """
    p_ref = ref["sdc"]
    value = parse_percent(cell)
    if value is None:
        if cell not in ("C", "D", "C/D"):
            return False, f"unexpected cell {cell!r}"
        rarer = min(ref["dce"], ref["due"])
        if p_ref == 0.0 and rarer * samples >= 20 and cell != "C/D":
            return False, f"{cell} where the reference is C/D"
        value = 0.0
    bound = 2.0 * (half_width_99(p_ref, samples)
                   + half_width_99(p_ref, ref["events"])) + ROUNDING
    if abs(value - p_ref) > bound:
        return False, (f"SDC {cell} is {abs(value - p_ref):.6f} from the "
                       f"reference {p_ref:.6f} (bound {bound:.6f})")
    return True, ""


def check_report(text: str, reference: dict, samples: int) -> list[str]:
    """Problems with one ``repro report`` output; empty when correct."""
    problems = []
    try:
        header, rows = markdown_table(text, "Table 2")
    except (StopIteration, IndexError):
        return ["no Table 2 in the report"]
    cells = reference["table2"]
    labels = {entry["label"]: name for name, entry in
              reference["schemes"].items()}
    if sorted(row[0] for row in rows) != sorted(labels):
        return [f"Table 2 rows {[row[0] for row in rows]} differ from the "
                f"reference"]
    for row in rows:
        name = labels[row[0]]
        for column, cell in zip(header[1:], row[1:]):
            ref = cells[name][column]
            if column in EXHAUSTIVE_COLUMNS:
                if cell != ref["cell"]:
                    problems.append(f"{name}/{column}: {cell} != exhaustive "
                                    f"reference {ref['cell']}")
            else:
                ok, why = sampled_cell_ok(cell, ref, samples)
                if not ok:
                    problems.append(f"{name}/{column}: {why}")
    try:
        table3 = section(text, "Table 3")
    except StopIteration:
        table3 = ""
    if table3 != reference["table3"]:
        problems.append("Table 3 differs from the reference")
    return problems


def without_summary(text: str) -> str:
    lines = [line for line in text.splitlines()
             if not line.startswith(SUMMARY_PREFIX)]
    return "\n".join(lines).strip()


def check_same_report(text: str, oracle: str) -> list[str]:
    """The printed report, summary line aside, must equal the oracle's."""
    if without_summary(text) == without_summary(oracle):
        return []
    ours = without_summary(text).splitlines()
    theirs = without_summary(oracle).splitlines()
    for index, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return [f"line {index + 1}: {a!r} != reference {b!r}"]
    return [f"{len(ours)} lines != reference {len(theirs)} lines"]


def manifests(store: Path) -> list[dict]:
    """Every run manifest of a run store."""
    return [json.loads(path.read_text())
            for path in sorted((store / "runs").glob("*/manifest.json"))]


def check_store(store: Path, hits: int, misses: int,
                runs: int = 1) -> list[str]:
    """A cold-store command: exactly ``runs`` completed manifests with
    exactly these hit and miss totals."""
    found = manifests(store)
    problems = []
    if len(found) != runs:
        problems.append(f"{len(found)} run manifests, expected {runs}")
    if any(m.get("status") != "completed" for m in found):
        problems.append("a run manifest is not completed")
    got = (sum(m.get("cache_hits", 0) for m in found),
           sum(m.get("cache_misses", 0) for m in found))
    if got != (hits, misses):
        problems.append(f"store hits/misses {got[0]}/{got[1]}, a cold "
                        f"store gives {hits}/{misses}")
    return problems


def serve_store_expectation(executed: int, distinct_seeds: int,
                            exhaustive: int = len(EXHAUSTIVE_COLUMNS),
                            sampled: int = len(SAMPLED_COLUMNS)
                            ) -> tuple[int, int]:
    """Hits and misses a cold daemon store must show for ``evaluate`` jobs
    run one at a time: exhaustive cells are shared by every seed and are
    computed once; sampled cells are computed once per distinct seed;
    every other lookup hits."""
    misses = exhaustive + sampled * distinct_seeds
    return executed * (exhaustive + sampled) - misses, misses
