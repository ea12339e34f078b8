"""The packed syndrome-LUT fast paths against their unpacked reference oracles.

Every Table-2 scheme keeps its original unpacked batch decoder as
``decode_batch_errors_reference``: the binary schemes' matmul decoder and
the Reed-Solomon schemes' symbol gather + ``gf_mul`` decoder.  The packed
path (`decode_batch_errors` / `decode_batch_packed`) must reproduce its
every output field on exhaustive, structured and random error batches.
"""

import importlib
from functools import cache

import numpy as np
import pytest

from repro.core import get_scheme
from repro.core.layout import ENTRY_BITS, ENTRY_BYTES, ENTRY_WORDS
from repro.core.registry import (
    SCHEME_NAMES,
    binary_scheme_names,
    known_scheme_names,
)
from repro.core.scheme import BatchDecode, DecodeStatus, ECCScheme
from repro.errormodel.montecarlo import sdc_risk_table
from repro.errormodel.sampling import (
    enumerate_bit_errors,
    enumerate_byte_errors,
    enumerate_double_bit_errors,
    enumerate_pin_errors,
    sample_beat_errors,
    sample_entry_errors,
    sample_triple_bit_errors,
)
from repro.gf.gf2 import byte_index, pack_rows, unpack_rows

BINARY = binary_scheme_names()
REED_SOLOMON = ("i-ssc", "i-ssc-csc", "ssc-dsd+")


def _assert_same(reference, other, context):
    assert np.array_equal(reference.due, other.due), context
    assert np.array_equal(reference.residual_data, other.residual_data), context
    assert np.array_equal(reference.corrected, other.corrected), context


@cache
def _batches():
    rng = np.random.default_rng(2024)
    return {
        "bits": enumerate_bit_errors(),
        "pins": enumerate_pin_errors(),
        "bytes": enumerate_byte_errors(),
        "doubles": enumerate_double_bit_errors(),
        "sparse": (rng.random((1500, ENTRY_BITS)) < 0.01).astype(np.uint8),
        "dense": (rng.random((65_536, ENTRY_BITS)) < 0.25).astype(np.uint8),
        "zero": np.zeros((4, ENTRY_BITS), dtype=np.uint8),
    }


@cache
def _reference(name, batch_name):
    """The oracle's outcome, computed once for both input forms."""
    return get_scheme(name).decode_batch_errors_reference(_batches()[batch_name])


@pytest.mark.parametrize("name", BINARY + REED_SOLOMON)
class TestPackedAgainstReference:
    def test_bit_input_matches_reference(self, name):
        scheme = get_scheme(name)
        for batch_name, errors in _batches().items():
            _assert_same(
                _reference(name, batch_name),
                scheme.decode_batch_errors(errors),
                (name, batch_name),
            )

    def test_packed_input_matches_reference(self, name):
        scheme = get_scheme(name)
        for batch_name, errors in _batches().items():
            _assert_same(
                _reference(name, batch_name),
                scheme.decode_batch_packed(pack_rows(errors)),
                (name, batch_name),
            )

    def test_packed_tables_built(self, name):
        """The binary schemes pass their packed gate; the RS schemes build
        their tables once per layout (I:SSC and I:SSC+CSC share one set)."""
        scheme = get_scheme(name)
        if name in BINARY:
            assert scheme._packed_ok
        else:
            module = importlib.import_module(type(scheme).__module__)
            assert module._packed_tables() is module._packed_tables()


@pytest.mark.parametrize("name", SCHEME_NAMES)
class TestPackedEntryPoint:
    """decode_batch_packed agrees with decode_batch_errors on every Table-2
    scheme; the base class declares it abstract, so each scheme brings
    its own packed path."""

    def test_packed_equals_unpacked(self, name):
        scheme = get_scheme(name)
        rng = np.random.default_rng(11)
        errors = (rng.random((300, ENTRY_BITS)) < 0.02).astype(np.uint8)
        _assert_same(
            scheme.decode_batch_errors(errors),
            scheme.decode_batch_packed(pack_rows(errors)),
            name,
        )

    def test_overrides_the_unpacking_default(self, name):
        assert "decode_batch_packed" in ECCScheme.__abstractmethods__
        method = type(get_scheme(name)).decode_batch_packed
        assert method is not ECCScheme.decode_batch_packed
        assert not getattr(method, "__isabstractmethod__", False)

    def test_rejects_wrong_shape(self, name):
        scheme = get_scheme(name)
        with pytest.raises(ValueError):
            scheme.decode_batch_packed(
                np.zeros((3, ENTRY_WORDS + 1), dtype=np.uint64)
            )


def test_rs_sweep_equals_the_reference_oracle_sweep(monkeypatch):
    """Table 2's RS rows are the same with every packed decode replaced by
    the unpacked reference oracle."""
    schemes = [get_scheme(name) for name in REED_SOLOMON]
    fast = sdc_risk_table(schemes, samples=2000)

    calls = []

    def _reference_packed(self, words, *, index=None):
        calls.append(self.name)
        return self.decode_batch_errors_reference(unpack_rows(words, ENTRY_BITS))

    for scheme in schemes:
        monkeypatch.setattr(type(scheme), "decode_batch_packed",
                            _reference_packed)
    assert sdc_risk_table(schemes, samples=2000) == fast
    assert set(calls) == set(REED_SOLOMON)


def _mixed_batch():
    """Rows on both sides of the byte index's dense switch, zero rows
    included."""
    rng = np.random.default_rng(30)
    pins = enumerate_pin_errors()[rng.integers(0, 792, size=40)]
    sparse = (rng.random((80, ENTRY_BITS)) < 0.01).astype(np.uint8)
    return np.concatenate([
        np.zeros((3, ENTRY_BITS), dtype=np.uint8), pins, sparse,
        sample_triple_bit_errors(60, rng), sample_beat_errors(60, rng),
        sample_entry_errors(20, rng),
    ])


def _oracle(scheme, errors):
    """The scheme's unpacked reference decoder, else (DSC) its scalar
    decode row by row."""
    if hasattr(scheme, "decode_batch_errors_reference"):
        return scheme.decode_batch_errors_reference(errors)
    results = [scheme.decode(row) for row in errors]
    due = np.array([r.status is DecodeStatus.DETECTED for r in results])
    return BatchDecode(
        due=due,
        residual_data=np.array([r.data is not None and bool(r.data.any())
                                for r in results]),
        corrected=np.array([r.status is DecodeStatus.CORRECTED
                            for r in results]))


@pytest.mark.parametrize("name", known_scheme_names())
def test_passed_index_equals_built_index_and_oracle(name):
    """Every registry scheme decodes a packed batch the same with the
    batch's byte index passed in, built by itself, or not read at all."""
    scheme = get_scheme(name)
    errors = _mixed_batch()
    words = pack_rows(errors)
    built = scheme.decode_batch_packed(words)
    passed = scheme.decode_batch_packed(words,
                                        index=byte_index(words, ENTRY_BYTES))
    _assert_same(built, passed, name)
    oracle = _oracle(scheme, errors)
    assert np.array_equal(built.due, oracle.due), name
    assert np.array_equal(built.sdc(), oracle.sdc()), name
    assert np.array_equal(built.corrected, oracle.corrected), name
    if hasattr(scheme, "decode_batch_errors_reference"):
        _assert_same(oracle, built, name)
