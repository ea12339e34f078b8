"""The reconfigurable DuetECC / TrioECC decoder.

Section 6.3: because the Equation-3 SEC-2bEC code is constrained to operate
as a SEC-DED code whenever 2-bit symbol correction is not attempted, a
single decoder can implement *both* DuetECC (detection-oriented) and TrioECC
(correction-oriented) — "system architects can toggle between the two codes,
either with a global setting per GPU or potentially on a per-CUDA-context
basis".

This class models exactly that: one physical code (the swizzled Equation-3
matrix with interleaving and the correction sanity check) and a mode switch
that enables or disables the half-width pair-HCM outputs.  In ``duet`` mode
an aligned 2-bit symbol error is *detected* (DUE); in ``trio`` mode it is
*corrected*.
"""

from __future__ import annotations

import numpy as np

from repro.codes.sec2bec import (
    SEC_2BEC_72_64,
    interleave_column_permutation,
    stride4_pairs,
)
from repro.core.binary import BinaryEntryScheme
from repro.core.scheme import BatchDecode, DecodeResult, ECCScheme

__all__ = ["ReconfigurableDuetTrio"]

_MODES = ("duet", "trio")


class ReconfigurableDuetTrio(ECCScheme):
    """One decoder, two codes: DuetECC or TrioECC selected at runtime."""

    def __init__(self, mode: str = "trio") -> None:
        swizzled = SEC_2BEC_72_64.column_permuted(
            interleave_column_permutation(), name="sec-2bec(72,64)/swizzled"
        )
        pair_table = swizzled.build_pair_table(stride4_pairs())
        # Both modes share the H matrix, interleave wiring and CSC output
        # logic — only the pair-correction enable differs, mirroring the
        # "DuetECC/TrioECC enable signal" of Figure 7b.
        self._duet = BinaryEntryScheme(
            swizzled,
            interleaved=True,
            pair_table=None,
            csc=True,
            name="duet(reconfig)",
            label="DuetECC (reconfigurable decoder)",
        )
        self._trio = BinaryEntryScheme(
            swizzled,
            interleaved=True,
            pair_table=pair_table,
            csc=True,
            name="trio(reconfig)",
            label="TrioECC (reconfigurable decoder)",
        )
        self.corrects_pins = True
        self.mode = mode

    @property
    def mode(self) -> str:
        return self._mode

    @mode.setter
    def mode(self, value: str) -> None:
        if value not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        self._mode = value

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self._mode}(reconfig)"

    @property
    def label(self) -> str:  # type: ignore[override]
        return self._active.label

    @property
    def _active(self) -> BinaryEntryScheme:
        return self._trio if self._mode == "trio" else self._duet

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        # Encoding is mode-independent: both modes share one H matrix.
        return self._trio.encode(data_bits)

    def decode(self, entry_bits: np.ndarray) -> DecodeResult:
        return self._active.decode(entry_bits)

    def decode_batch_packed(self, words: np.ndarray, *,
                            index: np.ndarray | None = None) -> BatchDecode:
        return self._active.decode_batch_packed(words, index=index)
