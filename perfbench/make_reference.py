"""Regenerate ``reference/report.json``, the report workload's reference.

    PYTHONPATH=src python3 perfbench/make_reference.py

Evaluates every Table 2 cell of the paper's nine organizations through
the library at a large sample count, and renders Table 3 through the
public CLI.  Exhaustive cells and Table 3 do not depend on the seed or
the sample count, so they are compared exactly; sampled cells are
compared within a half-width computed from both sample counts.  Rerun
this only when a change is meant to alter the report's numbers, and say
so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from checks import section

#: samples per sampled cell in the reference
REFERENCE_SAMPLES = 400_000
REFERENCE_SEED = 20211018
OUT = Path(__file__).resolve().parent / "reference" / "report.json"


def main() -> int:
    from repro import cli
    from repro.core import all_schemes
    from repro.errormodel import evaluate_scheme

    schemes, table2 = {}, {}
    for scheme in all_schemes():
        schemes[scheme.name] = {"label": scheme.label}
        cells = evaluate_scheme(scheme, samples=REFERENCE_SAMPLES,
                                seed=REFERENCE_SEED)
        table2[scheme.name] = {
            pattern.value: {"cell": outcome.cell(), "sdc": outcome.sdc,
                            "dce": outcome.dce, "due": outcome.due,
                            "events": outcome.events,
                            "exhaustive": outcome.exhaustive}
            for pattern, outcome in cells.items()
        }
    with tempfile.TemporaryDirectory() as scratch:
        output = Path(scratch) / "report.md"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["report", "--samples", "100", "--no-cache",
                      "--heartbeat", "0", "-o", str(output)])
        table3 = section(output.read_text(), "Table 3")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "samples": REFERENCE_SAMPLES, "seed": REFERENCE_SEED,
        "schemes": schemes, "table2": table2, "table3": table3,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
