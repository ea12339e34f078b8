"""The DRAM microbenchmark (Section 3, "Accelerator DRAM Beam Testing").

The benchmark writes a known pattern to every memory entry and reads the
whole device back repeatedly, logging every mismatch with a timestamp:

* the outer **write** loop runs 10 times per run, alternating between the
  pattern and its bitwise inverse (to expose unidirectional retention
  errors in both stored polarities);
* the inner **read** loop scans the device 20 times per write.

Three data patterns are modelled, as in the paper: all-0s/all-1s, a
pseudo-checkerboard (0x55… / 0xAA… words), and AN-encoded word indices
(:mod:`repro.beam.ancode`).  GPU DRAM ECC is disabled — the benchmark
observes the raw 32B data payload, so mismatch positions are *data* bit
offsets 0-255.

The ``environment`` callback is invoked with the elapsed wall-clock time of
each loop step; the campaign driver uses it to advance beam fluence, deposit
displacement damage and inject SEU events between scans.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.beam.ancode import an_pattern_words_batch
from repro.beam.fliptable import unpack_packed_rows
from repro.dram.device import SimulatedHBM2
from repro.gf.gf2 import pack_rows

__all__ = [
    "DataPattern",
    "UniformPattern",
    "CheckerboardPattern",
    "ANPattern",
    "MismatchRecord",
    "Microbenchmark",
    "STANDARD_PATTERNS",
]

_DATA_BITS = 256
_ENTRY_BITS = 288


class DataPattern(ABC):
    """A data background written to (and expected back from) the device.

    Subclasses implement :meth:`data_bits_batch`; the scalar
    :meth:`data_bits` view on top memoizes per entry, because the scan
    loop re-evaluates the same sparse fault sites on every read pass.
    """

    name: str = "abstract"
    _memo_limit = 65536  # fault sites are sparse; bound the cache anyway

    def __init__(self) -> None:
        self._memo: dict[int, np.ndarray] = {}

    @abstractmethod
    def data_bits_batch(self, entry_indices: np.ndarray) -> np.ndarray:
        """The 256 data bits of each entry (non-inverted), ``(len, 256)``."""

    def data_bits(self, entry_index: int) -> np.ndarray:
        """The 256 data bits of one entry (non-inverted polarity)."""
        cached = self._memo.get(entry_index)
        if cached is None:
            cached = self.data_bits_batch(
                np.array([entry_index], dtype=np.int64)
            )[0]
            if len(self._memo) < self._memo_limit:
                self._memo[entry_index] = cached
        return cached.copy()

    def entry_fn(self, inverted: bool) -> Callable[[int], np.ndarray]:
        """A device-compatible pattern function (288 bits, ECC region zero)."""

        def pattern(entry_index: int) -> np.ndarray:
            bits = np.zeros(_ENTRY_BITS, dtype=np.uint8)
            data = self.data_bits(entry_index)
            bits[:_DATA_BITS] = (data ^ 1) if inverted else data
            return bits

        return pattern

    def packed_entry_rows(self, entry_indices: np.ndarray,
                          inverted: bool) -> np.ndarray:
        """Batch form of :meth:`entry_fn`: bit-packed ``(len, 5)`` rows."""
        entry_indices = np.asarray(entry_indices, dtype=np.int64)
        bits = np.zeros((entry_indices.size, _ENTRY_BITS), dtype=np.uint8)
        data = self.data_bits_batch(entry_indices)
        bits[:, :_DATA_BITS] = (data ^ 1) if inverted else data
        return pack_rows(bits)

    def packed_fn(self, inverted: bool) -> Callable[[np.ndarray], np.ndarray]:
        """A device-compatible batch pattern function (see
        :meth:`repro.dram.device.SimulatedHBM2.scan_mismatches_batch`)."""
        return lambda entries: self.packed_entry_rows(entries, inverted)


class UniformPattern(DataPattern):
    """All-0s (or all-1s) — the paper's first pattern."""

    def __init__(self, ones: bool = False) -> None:
        super().__init__()
        self.ones = ones
        self.name = "all1" if ones else "all0"

    def data_bits_batch(self, entry_indices: np.ndarray) -> np.ndarray:
        value = 1 if self.ones else 0
        size = np.asarray(entry_indices).size
        return np.full((size, _DATA_BITS), value, dtype=np.uint8)


class CheckerboardPattern(DataPattern):
    """Pseudo-checkerboard: alternating 0x55…/0xAA… 64b words."""

    name = "checkerboard"

    def data_bits_batch(self, entry_indices: np.ndarray) -> np.ndarray:
        entry_indices = np.asarray(entry_indices, dtype=np.int64)
        # 0x55...: even bits set; 0xAA...: odd bits set.
        phase = (entry_indices[:, None] + np.arange(4)) % 2  # (len, 4)
        offset_parity = np.arange(64) % 2
        word_bits = phase[:, :, None] == offset_parity[None, None, :]
        return word_bits.reshape(entry_indices.size, _DATA_BITS) \
            .astype(np.uint8)


class ANPattern(DataPattern):
    """AN-encoded word indices — a realistic mix of 1s and 0s per codeword."""

    name = "an-encoded"

    def data_bits_batch(self, entry_indices: np.ndarray) -> np.ndarray:
        entry_indices = np.asarray(entry_indices, dtype=np.int64)
        words = an_pattern_words_batch(entry_indices)  # (len, 4) uint64
        # Bit i of word w is data bit 64w+i: little-endian byte view +
        # little-endian unpack give exactly that order, without the
        # (len, 4, 64) shift broadcast.
        as_bytes = words.astype("<u8").view(np.uint8)
        return np.unpackbits(
            as_bytes, axis=1, bitorder="little"
        )[:, :_DATA_BITS]


def STANDARD_PATTERNS() -> list[DataPattern]:
    """The paper's three pattern families."""
    return [UniformPattern(ones=False), CheckerboardPattern(), ANPattern()]


@dataclass(frozen=True)
class MismatchRecord:
    """One time-stamped erroneous entry, as logged to pinned host memory."""

    time_s: float
    run: int
    pattern: str
    write_cycle: int
    read_pass: int
    inverted: bool
    entry_index: int
    bit_positions: tuple[int, ...]  #: data-bit offsets, 0-255


class Microbenchmark:
    """Write/read-loop driver over a :class:`SimulatedHBM2` device."""

    def __init__(
        self,
        device: SimulatedHBM2,
        *,
        write_cycles: int = 10,
        reads_per_write: int = 20,
        loop_time_s: float = 0.05,
    ) -> None:
        self.device = device
        self.write_cycles = write_cycles
        self.reads_per_write = reads_per_write
        self.loop_time_s = loop_time_s

    def run(
        self,
        pattern: DataPattern,
        *,
        run_index: int = 0,
        start_time_s: float = 0.0,
        environment: Callable[[float], None] | None = None,
    ) -> list[MismatchRecord]:
        """Execute one full run (10 writes × 20 reads) and log mismatches."""
        records: list[MismatchRecord] = []
        clock = start_time_s

        for cycle in range(self.write_cycles):
            inverted = cycle % 2 == 1
            expected = pattern.entry_fn(inverted)
            packed = pattern.packed_fn(inverted)
            self.device.write_all(expected, packed)
            if environment is not None:
                environment(self.loop_time_s)
            clock += self.loop_time_s

            for read_pass in range(self.reads_per_write):
                for entry_index, data_positions in self._scan(
                    expected, packed
                ):
                    records.append(
                        MismatchRecord(
                            time_s=clock,
                            run=run_index,
                            pattern=pattern.name,
                            write_cycle=cycle,
                            read_pass=read_pass,
                            inverted=inverted,
                            entry_index=entry_index,
                            bit_positions=data_positions,
                        )
                    )
                if environment is not None:
                    environment(self.loop_time_s)
                clock += self.loop_time_s

        return records

    def _scan(self, expected, packed):
        """Mismatching (entry, data-bit positions) pairs, ascending entries.

        One packed scan over every fault site.  ECC is disabled, so only
        the four data words (bits 0-255) of each difference are observed.
        """
        entries, diff = self.device.scan_mismatches_batch(expected, packed)
        data = diff[:, :_DATA_BITS // 64]
        keep = data.any(axis=1)
        row_of_flip, bits = unpack_packed_rows(data[keep])
        kept_entries = entries[keep].tolist()
        starts = np.searchsorted(
            row_of_flip, np.arange(len(kept_entries) + 1)
        ).tolist()
        bits = bits.tolist()
        for index, entry in enumerate(kept_entries):
            yield entry, tuple(bits[starts[index]:starts[index + 1]])
