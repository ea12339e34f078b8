"""Tests for the reconfigurable DuetECC/TrioECC decoder (Section 6.3)."""

import numpy as np
import pytest

from repro.core import DecodeStatus, get_scheme
from repro.core.duet_trio import ReconfigurableDuetTrio
from repro.core.layout import bits_of_byte


@pytest.fixture(scope="module")
def decoder():
    return ReconfigurableDuetTrio()


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).integers(0, 2, 256, dtype=np.uint8)


class TestModeSwitch:
    def test_default_mode(self, decoder):
        assert decoder.mode == "trio"

    def test_invalid_mode_rejected(self, decoder):
        with pytest.raises(ValueError):
            decoder.mode = "quartet"

    def test_name_tracks_mode(self):
        decoder = ReconfigurableDuetTrio("duet")
        assert "duet" in decoder.name
        decoder.mode = "trio"
        assert "trio" in decoder.name

    def test_encoding_is_mode_independent(self, decoder, data):
        decoder.mode = "duet"
        duet_entry = decoder.encode(data)
        decoder.mode = "trio"
        trio_entry = decoder.encode(data)
        assert np.array_equal(duet_entry, trio_entry)


class TestBehaviourPerMode:
    def test_byte_error_detected_in_duet_corrected_in_trio(self, decoder, data):
        entry = decoder.encode(data)
        received = entry.copy()
        for position in bits_of_byte(4):
            received[int(position)] ^= 1

        decoder.mode = "duet"
        assert decoder.decode(received).status is DecodeStatus.DETECTED

        decoder.mode = "trio"
        result = decoder.decode(received)
        assert result.status is DecodeStatus.CORRECTED
        assert np.array_equal(result.data, data)

    def test_single_bit_corrected_in_both_modes(self, decoder, data):
        entry = decoder.encode(data)
        received = entry.copy()
        received[100] ^= 1
        for mode in ("duet", "trio"):
            decoder.mode = mode
            result = decoder.decode(received)
            assert result.status is DecodeStatus.CORRECTED
            assert np.array_equal(result.data, data)

    def test_batch_decoding_follows_mode(self, decoder):
        errors = np.zeros((1, 288), dtype=np.uint8)
        errors[0, bits_of_byte(9)] = 1
        decoder.mode = "duet"
        assert bool(decoder.decode_batch_errors(errors).due[0])
        decoder.mode = "trio"
        batch = decoder.decode_batch_errors(errors)
        assert not bool(batch.due[0])
        assert bool(batch.corrected[0])


class TestAgainstRegistrySchemes:
    """The reconfigurable decoder's trio mode must match the registry's
    TrioECC exactly — it is the same code and decode policy."""

    def test_trio_mode_matches_trio_scheme(self, decoder):
        trio = get_scheme("trio")
        decoder.mode = "trio"
        rng = np.random.default_rng(1)
        errors = (rng.random((200, 288)) < 0.02).astype(np.uint8)
        ours = decoder.decode_batch_errors(errors)
        theirs = trio.decode_batch_errors(errors)
        assert np.array_equal(ours.due, theirs.due)
        assert np.array_equal(ours.residual_data, theirs.residual_data)

    def test_packed_decode_forwards_words_and_index(self, decoder,
                                                    monkeypatch):
        """The active mode's scheme decodes the caller's words and index
        as given, with no unpack-and-repack in between."""
        from repro.gf.gf2 import byte_index, pack_rows

        rng = np.random.default_rng(2)
        words = pack_rows((rng.random((100, 288)) < 0.02).astype(np.uint8))
        index = byte_index(words, 36)
        seen = []
        for mode in ("duet", "trio"):
            decoder.mode = mode
            active = decoder._active
            original = active.decode_batch_packed

            def spy(got, *, index=None, original=original):
                seen.append((got, index))
                return original(got, index=index)

            monkeypatch.setattr(active, "decode_batch_packed", spy)
            ours = decoder.decode_batch_packed(words, index=index)
            theirs = original(words)
            assert np.array_equal(ours.due, theirs.due)
            assert np.array_equal(ours.residual_data, theirs.residual_data)
        assert all(got is words and passed is index for got, passed in seen)
        assert len(seen) == 2

    def test_duet_mode_detects_everything_registry_duet_detects_on_bytes(
        self, decoder, data
    ):
        # Registry DuetECC uses the Hsiao H; the reconfigurable decoder uses
        # the Equation-3 H in SEC-DED mode.  Both guarantee byte detection.
        decoder.mode = "duet"
        entry = decoder.encode(data)
        for byte in range(0, 36, 3):
            received = entry.copy()
            for position in bits_of_byte(byte):
                received[int(position)] ^= 1
            result = decoder.decode(received)
            assert result.status is DecodeStatus.DETECTED, byte
