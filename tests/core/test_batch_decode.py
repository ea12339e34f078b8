"""Tests for the BatchDecode container and chunked decoding plumbing."""

import numpy as np
import pytest

from repro.core import BatchDecode, get_scheme
from repro.core.layout import ENTRY_BITS
from repro.errormodel.montecarlo import _decode_chunked
from repro.gf.gf2 import pack_rows


class TestBatchDecodeContainer:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchDecode(
                due=np.zeros(3, dtype=bool),
                residual_data=np.zeros(4, dtype=bool),
                corrected=np.zeros(3, dtype=bool),
            )

    def test_outcome_accessors(self):
        batch = BatchDecode(
            due=np.array([True, False, False, False]),
            residual_data=np.array([True, True, False, False]),
            corrected=np.array([False, False, True, False]),
        )
        assert batch.size == 4
        # DUE wins over residual data; residual without DUE is SDC.
        assert batch.sdc().tolist() == [False, True, False, False]
        assert batch.dce().tolist() == [False, False, True, True]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        due = rng.random(50) < 0.3
        residual = rng.random(50) < 0.3
        batch = BatchDecode(due=due, residual_data=residual,
                            corrected=np.zeros(50, dtype=bool))
        combined = batch.dce() | batch.sdc() | batch.due
        assert combined.all()


class TestChunkedDecoding:
    def test_chunking_is_transparent(self):
        """Counts must not depend on the chunk size."""
        scheme = get_scheme("duet")
        rng = np.random.default_rng(1)
        errors = (rng.random((1000, ENTRY_BITS)) < 0.02).astype(np.uint8)
        words = pack_rows(errors[errors.any(axis=1)])

        whole = _decode_chunked(scheme, words, chunk=10_000)
        tiny = _decode_chunked(scheme, words, chunk=7)
        assert whole == tiny

    def test_counts_partition_batch(self):
        scheme = get_scheme("trio")
        rng = np.random.default_rng(2)
        errors = (rng.random((500, ENTRY_BITS)) < 0.05).astype(np.uint8)
        words = pack_rows(errors[errors.any(axis=1)])
        dce, due, sdc = _decode_chunked(scheme, words)
        assert dce + due + sdc == words.shape[0]
