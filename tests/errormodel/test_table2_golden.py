"""Table 2 held to a recorded golden sweep.

``golden/table2.json`` records ``dce``/``due``/``sdc``/``events`` of every
cell of ``sdc_risk_table(all_schemes(), samples=2000, seed=s)`` for seeds 1
and 2, as the byte-row samplers and decoders produced them.  The packed
samplers must consume the identical random stream and the packed decoders
must reach the identical verdict, so every value matches exactly.

Regenerate (only when the sampling stream or a decoder changes on purpose)
with ``PYTHONPATH=src python -m tests.errormodel.test_table2_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "table2.json"
SEEDS = (1, 2)
SAMPLES = 2000


def _sweep(seed: int) -> dict:
    from repro.core.registry import all_schemes
    from repro.errormodel.montecarlo import sdc_risk_table

    table = sdc_risk_table(all_schemes(), samples=SAMPLES, seed=seed)
    return {
        scheme: {
            pattern.name: {"dce": cell.dce, "due": cell.due, "sdc": cell.sdc,
                           "events": cell.events}
            for pattern, cell in cells.items()
        }
        for scheme, cells in table.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_both_seeds(golden):
    assert sorted(golden) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_table2_matches_golden_exactly(golden, seed):
    assert _sweep(seed) == golden[str(seed)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {str(seed): _sweep(seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
