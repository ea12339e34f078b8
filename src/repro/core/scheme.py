"""Common interface for memory-entry ECC schemes.

Every organization evaluated in the paper operates on a full 36-byte memory
entry (see :mod:`repro.core.layout`) and is exposed through two paths:

* a scalar path — :meth:`ECCScheme.encode` / :meth:`ECCScheme.decode` — the
  readable reference implementation used by applications and as the oracle
  in tests, and
* a vectorized path — :meth:`ECCScheme.decode_batch_packed` — which decodes
  a bit-packed *batch of error patterns* laid over the all-zero codeword.
  Every scheme here is linear, so the decoder's behaviour depends only on
  the error pattern; this is what makes the Table 2 / Figure 8 Monte Carlo
  runs tractable in pure Python.

The decoder cannot see silent data corruption by definition; the evaluation
harness (:mod:`repro.errormodel.montecarlo`) derives DCE/DUE/SDC labels by
comparing decoder output with ground truth.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.layout import DATA_BITS, ENTRY_BITS, ENTRY_WORDS
from repro.gf.gf2 import pack_rows

__all__ = ["DecodeStatus", "DecodeResult", "BatchDecode", "ECCScheme"]


class DecodeStatus(Enum):
    """Decoder-visible outcome for one memory entry."""

    CLEAN = "clean"  #: no error observed
    CORRECTED = "corrected"  #: one or more corrections applied (DCE claim)
    DETECTED = "detected"  #: detected-yet-uncorrectable (DUE)


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one received entry.

    ``data`` is the 256 delivered data bits (``None`` on a DUE), and
    ``corrected_bits`` lists the transmitted bit positions the decoder
    flipped — the inputs to the correction sanity check.
    """

    status: DecodeStatus
    data: np.ndarray | None
    corrected_bits: tuple[int, ...] = ()


@dataclass
class BatchDecode:
    """Vectorized decode of ``B`` error patterns over the zero codeword.

    ``due``             — entry raised a DUE.
    ``residual_data``   — after corrections, some *data* bit is still wrong
                          (an SDC unless ``due`` is set).
    ``corrected``       — the decoder applied at least one correction.
    """

    due: np.ndarray
    residual_data: np.ndarray
    corrected: np.ndarray

    def __post_init__(self) -> None:
        if not (self.due.shape == self.residual_data.shape == self.corrected.shape):
            raise ValueError("batch outcome arrays must share one shape")

    @property
    def size(self) -> int:
        return int(self.due.size)

    def sdc(self) -> np.ndarray:
        """Silent data corruption: wrong data delivered with no DUE."""
        return ~self.due & self.residual_data

    def dce(self) -> np.ndarray:
        """Detected-and-corrected (or data untouched): correct data, no DUE."""
        return ~self.due & ~self.residual_data


class ECCScheme(ABC):
    """A single-tier ECC organization for one 288-bit memory entry."""

    #: short identifier, e.g. ``"trio"``
    name: str = "abstract"
    #: label as printed in the paper's tables, e.g. ``"I:SEC-2bEC+CSC"``
    label: str = "abstract"
    #: True if the organization preserves single-pin correction
    corrects_pins: bool = True

    def cache_token(self) -> str:
        """Content identity of the scheme for run-store cache keys.

        The default is the registry name, which is correct for schemes whose
        construction is fully determined by it.  Searched or parameterized
        schemes (alternative H-matrices, different code variants) must
        override this with a digest of their actual construction so two
        variants sharing a name never collide in the artifact cache.
        """
        return self.name

    @abstractmethod
    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode 256 data bits into a 288-bit transmitted entry."""

    @abstractmethod
    def decode(self, entry_bits: np.ndarray) -> DecodeResult:
        """Decode one received 288-bit entry."""

    @abstractmethod
    def decode_batch_packed(self, words: np.ndarray, *,
                            index: np.ndarray | None = None) -> BatchDecode:
        """Decode a ``(B, 5)`` uint64 bit-packed error batch (zero codeword).

        The packed transport format of :func:`repro.gf.gf2.pack_rows`: bit
        ``i`` of the entry sits in word ``i // 64`` at weight ``2**(i % 64)``.
        ``index`` is the batch's :func:`repro.gf.gf2.byte_index` over its
        36 bytes, shared by every scheme that decodes the batch; syndrome
        decoders build it when it is ``None``, whole-row decoders ignore it.
        """

    def decode_batch_errors(self, errors: np.ndarray) -> BatchDecode:
        """Decode a ``(B, 288)`` batch of error patterns (zero codeword)
        through :meth:`decode_batch_packed`."""
        return self.decode_batch_packed(pack_rows(self._check_errors(errors)))

    # -- shared input validation -------------------------------------------
    @staticmethod
    def _check_data(data_bits: np.ndarray) -> np.ndarray:
        data_bits = np.asarray(data_bits, dtype=np.uint8).reshape(-1)
        if data_bits.size != DATA_BITS:
            raise ValueError(f"expected {DATA_BITS} data bits, got {data_bits.size}")
        return data_bits

    @staticmethod
    def _check_entry(entry_bits: np.ndarray) -> np.ndarray:
        entry_bits = np.asarray(entry_bits, dtype=np.uint8).reshape(-1)
        if entry_bits.size != ENTRY_BITS:
            raise ValueError(
                f"expected {ENTRY_BITS} entry bits, got {entry_bits.size}"
            )
        return entry_bits

    @staticmethod
    def _check_errors(errors: np.ndarray) -> np.ndarray:
        errors = np.asarray(errors, dtype=np.uint8)
        if errors.ndim != 2 or errors.shape[1] != ENTRY_BITS:
            raise ValueError(f"expected a (B, {ENTRY_BITS}) error batch")
        return errors

    @staticmethod
    def _check_packed(words: np.ndarray) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != ENTRY_WORDS:
            raise ValueError(f"expected a (B, {ENTRY_WORDS}) packed error batch")
        return words

    def roundtrip(self, data_bits: np.ndarray,
                  error_bits: np.ndarray | None = None) -> DecodeResult:
        """Encode, optionally corrupt, and decode — a convenience for
        examples and tests."""
        entry = self.encode(data_bits)
        if error_bits is not None:
            entry = entry ^ np.asarray(error_bits, dtype=np.uint8)
        return self.decode(entry)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, label={self.label!r})"
