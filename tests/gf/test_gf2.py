"""Unit and property tests for GF(2) linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.gf2 import (
    bits_from_int,
    byte_index,
    bytes_from_rows,
    bytes_from_words,
    gf2_inverse,
    gf2_matmul,
    gf2_mat_vec,
    gf2_rank,
    gf2_row_reduce,
    gf2_solve,
    int_from_bits,
    pack_bits,
    pack_rows,
    syndrome_byte_table,
    syndromes_batch,
    syndromes_from_index,
    unpack_bits,
    unpack_rows,
    words_from_bytes,
)


class TestBitConversions:
    def test_bits_from_int_lsb_first(self):
        bits = bits_from_int(0b1011, 6)
        assert bits.tolist() == [1, 1, 0, 1, 0, 0]

    def test_bits_from_int_msb_first(self):
        bits = bits_from_int(0b1011, 6, msb_first=True)
        assert bits.tolist() == [0, 0, 1, 0, 1, 1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bits_from_int(-1, 8)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            bits_from_int(256, 8)

    def test_zero(self):
        assert bits_from_int(0, 4).tolist() == [0, 0, 0, 0]

    @given(st.integers(min_value=0, max_value=2**60 - 1), st.booleans())
    def test_roundtrip(self, value, msb):
        bits = bits_from_int(value, 60, msb_first=msb)
        assert int_from_bits(bits, msb_first=msb) == value


class TestPacking:
    def test_pack_bits_simple(self):
        assert pack_bits(np.array([1, 0, 1], dtype=np.uint8)) == 5

    def test_pack_bits_batch(self):
        bits = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
        assert pack_bits(bits).tolist() == [1, 6]

    def test_pack_bits_width_limit(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(64, dtype=np.uint8))

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=20))
    def test_pack_unpack_roundtrip(self, values):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(pack_bits(unpack_bits(array, 8)), array)


class TestMatmul:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, (5, 7), dtype=np.uint8)
        b = rng.integers(0, 2, (7, 3), dtype=np.uint8)
        naive = (a.astype(int) @ b.astype(int)) % 2
        assert np.array_equal(gf2_matmul(a, b), naive)

    def test_mat_vec(self):
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        assert gf2_mat_vec(h, [1, 1, 1]).tolist() == [0, 0]

    def test_syndromes_batch_matches_single(self):
        rng = np.random.default_rng(1)
        h = rng.integers(0, 2, (8, 72), dtype=np.uint8)
        errors = rng.integers(0, 2, (50, 72), dtype=np.uint8)
        batch = syndromes_batch(h, errors)
        for row in range(50):
            assert np.array_equal(batch[row], gf2_mat_vec(h, errors[row]))

    def test_syndromes_batch_wide_input_no_overflow(self):
        # 288 columns exceeds uint8 sums; ensure accumulation is widened.
        h = np.ones((1, 288), dtype=np.uint8)
        errors = np.ones((1, 288), dtype=np.uint8)
        assert syndromes_batch(h, errors)[0, 0] == 288 % 2


class TestRowReduce:
    def test_identity_rank(self):
        assert gf2_rank(np.eye(6, dtype=np.uint8)) == 6

    def test_dependent_rows(self):
        matrix = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        assert gf2_rank(matrix) == 2  # row3 = row1 + row2

    def test_rref_pivots(self):
        matrix = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        rref, pivots = gf2_row_reduce(matrix)
        assert pivots == [0, 1]
        assert rref[0].tolist() == [1, 0, 1]
        assert rref[1].tolist() == [0, 1, 1]

    def test_input_not_mutated(self):
        matrix = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        copy = matrix.copy()
        gf2_row_reduce(matrix)
        assert np.array_equal(matrix, copy)


def _random_invertible(rng, size):
    while True:
        matrix = rng.integers(0, 2, (size, size), dtype=np.uint8)
        if gf2_rank(matrix) == size:
            return matrix


class TestInverse:
    def test_inverse_times_matrix_is_identity(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 4, 8, 16):
            matrix = _random_invertible(rng, size)
            product = gf2_matmul(gf2_inverse(matrix), matrix)
            assert np.array_equal(product, np.eye(size, dtype=np.uint8))

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            gf2_inverse(np.zeros((3, 3), dtype=np.uint8))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gf2_inverse(np.zeros((2, 3), dtype=np.uint8))

    def test_solve(self):
        rng = np.random.default_rng(4)
        matrix = _random_invertible(rng, 8)
        x = rng.integers(0, 2, 8, dtype=np.uint8)
        rhs = gf2_mat_vec(matrix, x)
        assert np.array_equal(gf2_solve(matrix, rhs), x)


class TestPackedRows:
    """The uint64 packed-word representation of the decode fast path."""

    @pytest.mark.parametrize("width", [1, 7, 64, 70, 288])
    def test_roundtrip(self, width):
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2, (9, width), dtype=np.uint8)
        words = pack_rows(bits)
        assert words.dtype == np.uint64
        assert words.shape == (9, -(-width // 64))
        assert np.array_equal(unpack_rows(words, width), bits)

    def test_bit_placement(self):
        bits = np.zeros((1, 288), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 70] = 1
        bits[0, 287] = 1
        words = pack_rows(bits)
        assert words[0, 0] == np.uint64(1)
        assert words[0, 1] == np.uint64(1) << np.uint64(6)  # bit 70 = word 1 bit 6
        assert words[0, 4] == np.uint64(1) << np.uint64(31)  # bit 287

    @pytest.mark.parametrize("num_bytes", [1, 8, 9, 36, 40])
    def test_words_from_bytes_inverts_bytes_from_words(self, num_bytes):
        rng = np.random.default_rng(num_bytes)
        byte_rows = rng.integers(0, 256, (4, num_bytes), dtype=np.uint8)
        words = words_from_bytes(byte_rows)
        assert words.dtype == np.uint64
        assert words.shape == (4, -(-num_bytes // 8))
        assert np.array_equal(bytes_from_words(words, num_bytes), byte_rows)

    def test_bytes_from_words_matches_bytes_from_rows(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, (5, 288), dtype=np.uint8)
        words = pack_rows(bits)
        for form in (words, words.astype(">u8"), np.asfortranarray(words)):
            byte_rows = bytes_from_words(form, 36)
            assert np.array_equal(byte_rows, bytes_from_rows(bits))
            # a view of the caller's words: writing through it is refused
            assert not byte_rows.flags.writeable


class TestSyndromeByteTable:
    @pytest.mark.parametrize("shape", [(8, 72), (9, 72), (32, 288), (5, 13)])
    def test_matches_matmul_syndromes(self, shape):
        rng = np.random.default_rng(shape[1])
        h = rng.integers(0, 2, shape, dtype=np.uint8)
        errors = rng.integers(0, 2, (40, shape[1]), dtype=np.uint8)
        table = syndrome_byte_table(h)
        num_bytes = -(-shape[1] // 8)
        assert table.shape == (num_bytes, 256)
        assert not table[:, 0].any()  # a zero byte contributes nothing
        index = byte_index(pack_rows(errors), num_bytes)
        got = syndromes_from_index(table, index)
        assert np.array_equal(got, pack_bits(syndromes_batch(h, errors)))

    def test_zero_error_zero_syndrome(self):
        h = np.random.default_rng(0).integers(0, 2, (8, 72), dtype=np.uint8)
        table = syndrome_byte_table(h)
        zero = np.zeros((1, 72), dtype=np.uint8)
        index = byte_index(pack_rows(zero), 9)
        assert syndromes_from_index(table, index)[0] == 0

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            syndrome_byte_table(np.zeros((63, 100), dtype=np.uint8))


def _per_position(table, words):
    """Syndromes by one gather per byte position, zero bytes included."""
    byte_rows = bytes_from_words(words, table.shape[0])
    combined = np.zeros(byte_rows.shape[0], dtype=table.dtype)
    for position in range(table.shape[0]):
        combined ^= table[position][byte_rows[:, position]]
    return combined


class TestByteIndex:
    """byte_index + syndromes_from_index equal the per-position gather."""

    @staticmethod
    def _table():
        h = np.random.default_rng(36).integers(0, 2, (32, 288), dtype=np.uint8)
        return syndrome_byte_table(h)

    def _check(self, words):
        table = self._table()
        index = byte_index(words, 36)
        assert index.dtype == np.uint16
        assert index.shape[1] == words.shape[0]
        assert np.array_equal(syndromes_from_index(table, index),
                              _per_position(table, words))
        return index

    @pytest.mark.parametrize("name", ["bit", "pin", "byte", "double_bit"])
    def test_every_enumeration(self, name):
        from repro.errormodel import sampling

        words = getattr(sampling, f"enumerate_{name}_errors_packed")()
        index = self._check(words)
        widths = {"bit": 1, "pin": 4, "byte": 1, "double_bit": 2}
        assert index.shape[0] == widths[name]

    @pytest.mark.parametrize("name", ["triple_bit", "beat", "entry"])
    def test_sampled_batches(self, name):
        from repro.errormodel import sampling

        sample = getattr(sampling, f"sample_{name}_errors_packed")
        for seed in (1, 2, 3):
            self._check(sample(3000, np.random.default_rng(seed)))

    def test_zero_rows_and_empty_batch(self):
        zero = self._check(np.zeros((3, 5), dtype=np.uint64))
        assert zero.shape == (1, 3) and not zero.any()
        assert self._check(np.zeros((0, 5), dtype=np.uint64)).shape == (1, 0)

    def test_sparse_rows_list_their_nonzero_bytes(self):
        byte_rows = np.zeros((3, 40), dtype=np.uint8)
        byte_rows[0, [2, 35]] = [0x81, 0x07]
        byte_rows[2, 9] = 0xFF
        index = byte_index(words_from_bytes(byte_rows), 36)
        assert index.tolist() == [[2 << 8 | 0x81, 0, 9 << 8 | 0xFF],
                                  [35 << 8 | 0x07, 0, 0]]

    @pytest.mark.parametrize("width", [11, 12, 13, 36])
    def test_either_side_of_the_dense_switch(self, width):
        """Up to 12 of 36 nonzero bytes a row lists only those; beyond,
        every position, as one contiguous transposed array."""
        rng = np.random.default_rng(width)
        byte_rows = np.zeros((50, 36), dtype=np.uint8)
        for row in byte_rows:
            row[rng.choice(36, size=rng.integers(0, width + 1),
                           replace=False)] = rng.integers(1, 256)
        byte_rows[7] = 0
        byte_rows[7, :width] = 0x5A  # one row at the full width
        index = self._check(words_from_bytes(byte_rows))
        assert index.shape[0] == (width if 3 * width <= 36 else 36)
        assert index.flags.c_contiguous


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**31))
def test_pack_is_int_from_bits(value):
    bits = bits_from_int(value, 32)
    assert int(pack_bits(bits)) == int_from_bits(bits)
