"""Checksummed JSONL artifacts and the dataclass codecs that fill them.

Every file the run store writes — cell outcomes, campaign logs — is a
JSON-lines document whose final line is a SHA-256 trailer over everything
before it.  Readers verify the trailer before trusting a single byte, so a
torn write, a truncated disk, or a flipped bit surfaces as
:class:`ArtifactCorrupt` (and the store recomputes) instead of silently
poisoning downstream tables.  Writes go through
:func:`repro.runs.durable.durable_write_text` — same-directory temp file,
fsync, ``os.replace``, directory fsync — so a concurrent reader never
sees a half-written artifact and a crash never leaves one behind.

Floats round-trip exactly: ``json`` serializes via ``float.__repr__``
(shortest round-trip representation), so a cache hit reproduces the cold
run's :class:`~repro.errormodel.montecarlo.PatternOutcome` bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runs.durable import durable_write_text
from repro.errormodel.montecarlo import PatternOutcome
from repro.errormodel.patterns import ErrorPattern

if TYPE_CHECKING:  # the beam package (and its shm engine) loads on first use
    from repro.beam.microbenchmark import MismatchRecord

__all__ = [
    "ArtifactCorrupt",
    "canonical_json",
    "write_jsonl_atomic",
    "read_jsonl",
    "outcome_to_record",
    "outcome_from_record",
    "mismatch_to_record",
    "mismatch_from_record",
]


class ArtifactCorrupt(RuntimeError):
    """A stored artifact failed its checksum or structural validation."""


def canonical_json(obj) -> str:
    """Deterministic single-line JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl_atomic(path: Path, records: list[dict],
                       *, fault_point: str | None = None) -> None:
    """Write records + checksum trailer, atomically and durably."""
    body = "".join(canonical_json(record) + "\n" for record in records)
    trailer = canonical_json(
        {"sha256": hashlib.sha256(body.encode()).hexdigest()}
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    durable_write_text(path, body + trailer + "\n", fault_point=fault_point)


def read_jsonl(path: Path) -> list[dict]:
    """Read records back, verifying the checksum trailer.

    Raises :class:`ArtifactCorrupt` on any damage — unreadable file,
    missing trailer, checksum mismatch, or malformed record lines.
    """
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactCorrupt(f"{path}: unreadable ({exc})") from None
    head, _, tail = text.rstrip("\n").rpartition("\n")
    body = head + "\n" if head else ""
    try:
        expected = json.loads(tail)["sha256"]
    except (ValueError, TypeError, KeyError):
        raise ArtifactCorrupt(f"{path}: missing checksum trailer") from None
    actual = hashlib.sha256(body.encode()).hexdigest()
    if actual != expected:
        raise ArtifactCorrupt(f"{path}: checksum mismatch")
    try:
        return [json.loads(line) for line in body.splitlines()]
    except ValueError:
        raise ArtifactCorrupt(f"{path}: malformed record") from None


# -- dataclass codecs ---------------------------------------------------------

def outcome_to_record(outcome: PatternOutcome) -> dict:
    """Serialize one Table-2 cell outcome."""
    return {
        "pattern": outcome.pattern.name,
        "events": outcome.events,
        "dce": outcome.dce,
        "due": outcome.due,
        "sdc": outcome.sdc,
        "exhaustive": outcome.exhaustive,
        "elapsed_s": outcome.elapsed_s,
    }


def outcome_from_record(record: dict) -> PatternOutcome:
    """Inverse of :func:`outcome_to_record` (exact float round-trip)."""
    return PatternOutcome(
        pattern=ErrorPattern[record["pattern"]],
        events=int(record["events"]),
        dce=float(record["dce"]),
        due=float(record["due"]),
        sdc=float(record["sdc"]),
        exhaustive=bool(record["exhaustive"]),
        elapsed_s=float(record.get("elapsed_s", 0.0)),
    )


def mismatch_to_record(record: MismatchRecord) -> dict:
    """Serialize one beam-campaign mismatch observation."""
    return {
        "time_s": record.time_s,
        "run": record.run,
        "pattern": record.pattern,
        "write_cycle": record.write_cycle,
        "read_pass": record.read_pass,
        "inverted": record.inverted,
        "entry_index": record.entry_index,
        "bit_positions": list(record.bit_positions),
    }


def mismatch_from_record(record: dict) -> MismatchRecord:
    """Inverse of :func:`mismatch_to_record`."""
    from repro.beam.microbenchmark import MismatchRecord

    return MismatchRecord(
        time_s=float(record["time_s"]),
        run=int(record["run"]),
        pattern=str(record["pattern"]),
        write_cycle=int(record["write_cycle"]),
        read_pass=int(record["read_pass"]),
        inverted=bool(record["inverted"]),
        entry_index=int(record["entry_index"]),
        bit_positions=tuple(int(bit) for bit in record["bit_positions"]),
    )
