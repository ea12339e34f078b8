"""Every synthesized netlist held to a recorded golden summary.

``golden/netlists.json`` records, for every Table-3, expansion-tier and
rank-report circuit at both design points, the count of each node kind,
``gate_count``, ``repr(delay_ns)`` and ``area``; ``golden/hardware_expansion.txt``
is the full ``python -m repro hardware --expansion`` output.  Both were
captured from the one-gate-at-a-time builder, so the block builder must
reproduce the same DAG: counts and delay exactly, area to summation order.

Regenerate (only when a generator's *structure* changes on purpose) with
``PYTHONPATH=src python -m tests.hardware.test_golden``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from argparse import Namespace
from pathlib import Path

import pytest

from repro.hardware.circuit import Circuit

GOLDEN_DIR = Path(__file__).parent / "golden"
NETLISTS = GOLDEN_DIR / "netlists.json"
EXPANSION_TEXT = GOLDEN_DIR / "hardware_expansion.txt"


def _builders():
    """``label -> build(efficient)`` for every circuit the reports price."""
    from repro.codes.bch import BCH_DEC_144_128
    from repro.codes.hsiao import hsiao_code, hsiao_search_code
    from repro.codes.reed_solomon import ReedSolomonCode
    from repro.codes.sec2bec import SEC_2BEC_72_64, paper_pair_table
    from repro.codes.sec_daec import SEC_DAEC_72_64, SEC_DAEC_PAIRS
    from repro.hardware.expansion import (
        bch_dec_decoder,
        polar_decoder,
        polar_encoder,
    )
    from repro.hardware.synth import (
        binary_decoder,
        binary_encoder,
        rs_encoder,
        rs_ssc_decoder,
        ssc_dsd_decoder,
    )

    hsiao, hsiao2 = hsiao_code(), hsiao_search_code(variant=1)
    pairs = paper_pair_table()
    rs18, rs36 = ReedSolomonCode(18, 16), ReedSolomonCode(36, 32)
    return {
        "enc/sec-ded": lambda eff: binary_encoder(hsiao, efficient=eff),
        "enc/sec-2bec": lambda eff: binary_encoder(SEC_2BEC_72_64, efficient=eff),
        "enc/i-ssc": lambda eff: rs_encoder(rs18, copies=2, efficient=eff),
        "enc/ssc-dsd+": lambda eff: rs_encoder(rs36, efficient=eff),
        "enc/sec-ded-v2": lambda eff: binary_encoder(hsiao2, efficient=eff),
        "enc/sec-daec": lambda eff: binary_encoder(SEC_DAEC_72_64, efficient=eff),
        "enc/bch-dec": lambda eff: binary_encoder(BCH_DEC_144_128, efficient=eff),
        "enc/polar": lambda eff: polar_encoder(efficient=eff),
        "dec/sec-ded": lambda eff: binary_decoder(hsiao, efficient=eff),
        "dec/duet-hsiao": lambda eff: binary_decoder(
            hsiao, csc=True, efficient=eff),
        "dec/duet": lambda eff: binary_decoder(
            SEC_2BEC_72_64, csc=True, efficient=eff),
        "dec/sec-2bec": lambda eff: binary_decoder(
            SEC_2BEC_72_64, pair_table=pairs, efficient=eff),
        "dec/trio": lambda eff: binary_decoder(
            SEC_2BEC_72_64, pair_table=pairs, csc=True, efficient=eff),
        "dec/trio-mode": lambda eff: binary_decoder(
            SEC_2BEC_72_64, pair_table=pairs, csc=True, mode_input=True,
            efficient=eff),
        "dec/i-ssc": lambda eff: rs_ssc_decoder(csc=False, efficient=eff),
        "dec/i-ssc-csc": lambda eff: rs_ssc_decoder(csc=True, efficient=eff),
        "dec/ssc-dsd+": lambda eff: ssc_dsd_decoder(efficient=eff),
        "dec/sec-ded-v2": lambda eff: binary_decoder(hsiao2, efficient=eff),
        "dec/sec-daec": lambda eff: binary_decoder(
            SEC_DAEC_72_64, pair_table=SEC_DAEC_PAIRS, efficient=eff),
        "dec/bch-dec": lambda eff: bch_dec_decoder(efficient=eff),
        "dec/polar": lambda eff: polar_decoder(efficient=eff),
    }


def summarize(circuit: Circuit) -> dict:
    return {
        "kinds": {kind.value: count
                  for kind, count in sorted(circuit.kind_counts().items(),
                                            key=lambda item: item[0].value)},
        "gate_count": circuit.gate_count(),
        "delay_ns": repr(circuit.delay_ns()),
        "area": circuit.area(),
    }


def _cases():
    return [(label, efficient) for label in _builders()
            for efficient in (False, True)]


def _key(label: str, efficient: bool) -> str:
    return f"{label}/{'eff' if efficient else 'perf'}"


def _expansion_text() -> str:
    from repro.cli import _cmd_hardware

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _cmd_hardware(Namespace(expansion=True))
    return buffer.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(NETLISTS.read_text())


@pytest.fixture(scope="module")
def builders():
    return _builders()


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("label,efficient", _cases(),
                         ids=[_key(*case) for case in _cases()])
def test_netlist_matches_golden(golden, builders, label, efficient):
    expected = golden[_key(label, efficient)]
    got = summarize(builders[label](efficient))
    assert got["kinds"] == expected["kinds"]
    assert got["gate_count"] == expected["gate_count"]
    assert got["delay_ns"] == expected["delay_ns"]
    assert math.isclose(got["area"], expected["area"], rel_tol=1e-9)


def test_table3_rows_match_golden(golden):
    from repro.hardware.synth import table3_rows

    encoders, decoders = table3_rows()
    labels = (["enc/sec-ded", "enc/sec-2bec", "enc/i-ssc", "enc/ssc-dsd+"],
              ["dec/sec-ded", "dec/duet", "dec/trio", "dec/i-ssc-csc",
               "dec/ssc-dsd+"])
    for rows, names in zip((encoders, decoders), labels):
        assert len(rows) == len(names)
        for row, label in zip(rows, names):
            for stats, efficient in ((row.perf, False), (row.eff, True)):
                expected = golden[_key(label, efficient)]
                assert stats.gate_count == expected["gate_count"], label
                assert repr(stats.delay_ns) == expected["delay_ns"], label
                assert math.isclose(stats.area, expected["area"],
                                    rel_tol=1e-9), label


def test_hardware_expansion_cli_text_is_byte_identical():
    assert _expansion_text() == EXPANSION_TEXT.read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    built = _builders()
    record = {_key(label, efficient): summarize(built[label](efficient))
              for label, efficient in _cases()}
    NETLISTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    EXPANSION_TEXT.write_text(_expansion_text())
