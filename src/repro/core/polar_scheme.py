"""Entry-level ECC scheme built on the shortened polar code.

One :class:`repro.codes.polar.PolarCode` covers the whole 288-bit entry:
512-bit mother code shortened to 288 transmitted bits, 256 data bits plus
a CRC-8 on the most reliable leaves.  Decode is syndrome successive
cancellation (see ``codes/polar.py``), so correction is an exact function
of the error pattern and the registry's linearity/equivalence discipline
holds bit for bit.

The CRC supplies the DUE verdict: a failed check after SC is a detected
uncorrectable; a passed check with residual data damage is an SDC (the
CRC's 2^-8 escape rate is part of the honest resilience picture).  The
scheme does not guarantee single-pin correction — a pin error is four
spread bit flips, beyond what min-sum SC at unit LLRs always fixes — so
``corrects_pins`` is False.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np

from repro.codes.polar import PolarCode
from repro.core.layout import ENTRY_BITS
from repro.core.scheme import BatchDecode, DecodeResult, DecodeStatus, ECCScheme
from repro.gf.gf2 import unpack_rows

__all__ = ["PolarEntryScheme"]

#: rows decoded per vectorized SC pass; bounds the (B, 512) int64 LLR
#: working set of the depth-9 recursion to a few tens of megabytes
_SC_CHUNK = 4096


class PolarEntryScheme(ECCScheme):
    """The polar organization over one memory entry."""

    def __init__(self, code: PolarCode | None = None, *,
                 name: str = "polar", label: str = "Polar+CRC8") -> None:
        self.code = code if code is not None else PolarCode()
        self.name = name
        self.label = label
        self.corrects_pins = False
        self.data_index = np.arange(self.code.data_bits, dtype=np.int64)

    def cache_token(self) -> str:
        material = (
            f"polar:{self.code.n}:{self.code.transmitted}:"
            f"{self.code.data_bits}:{self.code.crc_bits}:"
        ).encode() + self.code.info_positions.astype(np.int64).tobytes()
        return sha256(material).hexdigest()

    # -- scalar path ----------------------------------------------------------
    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = self._check_data(data_bits)
        return self.code.encode(data_bits)

    def decode(self, entry_bits: np.ndarray) -> DecodeResult:
        entry_bits = self._check_entry(entry_bits)
        e_hat, data, crc_ok = self.code.decode(entry_bits)
        if not crc_ok:
            return DecodeResult(DecodeStatus.DETECTED, None)
        corrected_bits = tuple(int(p) for p in np.nonzero(e_hat)[0])
        status = DecodeStatus.CORRECTED if corrected_bits else DecodeStatus.CLEAN
        return DecodeResult(status, data, corrected_bits)

    # -- batch path (vectorized syndrome SC) ----------------------------------
    def decode_batch_packed(self, words: np.ndarray, *,
                            index: np.ndarray | None = None) -> BatchDecode:
        """SC decode, unpacking a chunk at a time (``index`` is unused)."""
        words = self._check_packed(words)
        batch = words.shape[0]
        due = np.zeros(batch, dtype=bool)
        residual_data = np.zeros(batch, dtype=bool)
        corrected = np.zeros(batch, dtype=bool)
        for start in range(0, batch, _SC_CHUNK):
            rows = unpack_rows(words[start : start + _SC_CHUNK], ENTRY_BITS)
            e_hat, data, crc_fail = self.code.decode_batch(rows)
            stop = start + rows.shape[0]
            due[start:stop] = crc_fail
            residual_data[start:stop] = data.any(axis=1)
            corrected[start:stop] = ~crc_fail & e_hat.any(axis=1)
        return BatchDecode(due=due, residual_data=residual_data,
                           corrected=corrected)

    # -- scalar-loop reference (the oracle for the vectorized path) -----------
    def decode_batch_errors_reference(self, errors: np.ndarray) -> BatchDecode:
        errors = self._check_errors(errors)
        batch = errors.shape[0]
        due = np.zeros(batch, dtype=bool)
        residual_data = np.zeros(batch, dtype=bool)
        corrected = np.zeros(batch, dtype=bool)
        for i in range(batch):
            e_hat, data, crc_ok = self.code.decode(errors[i])
            due[i] = not crc_ok
            residual_data[i] = bool(data.any())
            corrected[i] = crc_ok and bool(e_hat.any())
        return BatchDecode(due=due, residual_data=residual_data,
                           corrected=corrected)
