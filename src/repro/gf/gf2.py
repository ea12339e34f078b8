"""Linear algebra over GF(2).

Bit vectors and matrices are represented as :class:`numpy.ndarray` objects of
dtype ``uint8`` containing only 0s and 1s.  A parity-check matrix ``H`` has
shape ``(R, N)`` — ``R`` check equations over ``N`` code bits — and the
syndrome of an error vector ``e`` is ``H @ e (mod 2)``.

All routines are pure functions; none mutate their arguments.  Batch variants
accept a 2-D array whose *rows* are vectors and are fully vectorized, which is
what makes the Monte Carlo evaluation in :mod:`repro.errormodel` practical in
pure Python.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_from_int",
    "int_from_bits",
    "pack_bits",
    "unpack_bits",
    "pack_rows",
    "unpack_rows",
    "bytes_from_rows",
    "bytes_from_words",
    "words_from_bytes",
    "syndrome_byte_table",
    "syndromes_from_bytes",
    "gf2_matmul",
    "gf2_mat_vec",
    "syndromes_of",
    "syndromes_batch",
    "pack_syndromes",
    "column_weights",
    "row_weights",
    "gf2_rank",
    "gf2_row_reduce",
    "gf2_inverse",
    "gf2_solve",
]


def bits_from_int(value: int, width: int, *, msb_first: bool = False) -> np.ndarray:
    """Expand a non-negative integer into a bit vector of ``width`` bits.

    With ``msb_first=False`` (the default) ``bits[i]`` is the coefficient of
    ``2**i``; with ``msb_first=True`` the vector is reversed, matching the
    left-to-right order in which the paper prints H-matrix rows.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    if msb_first:
        bits = bits[::-1].copy()
    return bits


def int_from_bits(bits: np.ndarray, *, msb_first: bool = False) -> int:
    """Inverse of :func:`bits_from_int`."""
    seq = np.asarray(bits, dtype=np.uint8)
    if msb_first:
        seq = seq[::-1]
    value = 0
    for i, bit in enumerate(seq.tolist()):
        if bit:
            value |= 1 << i
    return value


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack the trailing axis of a 0/1 array into little-endian integers.

    The trailing axis must have at most 63 bits.  Returns an ``int64`` array
    with the trailing axis removed.  Used to turn per-sample syndromes into
    dictionary-lookup keys.
    """
    bits = np.asarray(bits)
    width = bits.shape[-1]
    if width > 63:
        raise ValueError("pack_bits supports at most 63 bits")
    weights = (np.int64(1) << np.arange(width, dtype=np.int64))
    return bits.astype(np.int64) @ weights


def unpack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` — expand integers into 0/1 ``uint8`` bits."""
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(width, dtype=np.int64)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def bytes_from_rows(bits: np.ndarray) -> np.ndarray:
    """Pack the trailing 0/1 axis into bytes, bit ``i`` at weight ``2**(i%8)``.

    A length-N trailing axis becomes ``ceil(N/8)`` bytes.  This is the byte
    view of the packed-word representation below, and the index space of
    :func:`syndrome_byte_table`.
    """
    return np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1,
                       bitorder="little")


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack the trailing 0/1 axis into little-endian ``uint64`` words.

    Bit ``i`` of a row lands in word ``i // 64`` at weight ``2**(i % 64)``,
    so a ``(B, 288)`` error batch packs into ``(B, 5)`` words.  Unlike
    :func:`pack_bits` there is no 63-bit width limit; this is the dense
    transport format of the fast decode path.
    """
    return words_from_bytes(bytes_from_rows(bits))


def words_from_bytes(byte_rows: np.ndarray) -> np.ndarray:
    """Group the trailing byte axis into zero-padded little-endian ``uint64``
    words, byte ``j`` at shift ``8 * (j % 8)`` of word ``j // 8``: the inverse
    of :func:`bytes_from_words`, a view of ``byte_rows`` when unpadded."""
    byte_rows = np.asarray(byte_rows, dtype=np.uint8)
    pad = -byte_rows.shape[-1] % 8
    if pad:
        byte_rows = np.concatenate(
            [byte_rows, np.zeros(byte_rows.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    words = np.ascontiguousarray(byte_rows).view("<u8")
    return words.astype(np.uint64, copy=False)


def bytes_from_words(words: np.ndarray, num_bytes: int) -> np.ndarray:
    """Expand packed ``uint64`` words into their first ``num_bytes`` bytes.

    Inverse of the byte-grouping in :func:`pack_rows`; endian-independent.
    The result is a read-only byte view of the little-endian words, so it
    costs no copy when ``words`` already is little-endian and contiguous.
    """
    words = np.ascontiguousarray(words, dtype="<u8")
    byte_rows = words.view(np.uint8).reshape(words.shape[:-1] + (-1,))
    byte_rows = byte_rows[..., :num_bytes]
    byte_rows.flags.writeable = False
    return byte_rows


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_rows` — expand words into ``width`` 0/1 bits."""
    byte_rows = bytes_from_words(words, -(-width // 8))
    return np.unpackbits(byte_rows, axis=-1, bitorder="little")[..., :width]


def syndrome_byte_table(h_matrix: np.ndarray) -> np.ndarray:
    """Per-byte-position packed-syndrome contribution table for ``H``.

    For an ``(R, N)`` parity-check matrix (R <= 62) the table has shape
    ``(ceil(N/8), 256)`` and satisfies, for any error vector ``e`` packed
    into bytes ``b`` by :func:`bytes_from_rows`::

        pack_bits(H @ e mod 2)  ==  XOR_j table[j, b[j]]

    which turns batch syndrome computation into one fancy gather plus an
    XOR reduction (:func:`syndromes_from_bytes`) — no GF(2) matmul.
    """
    h_matrix = np.asarray(h_matrix, dtype=np.uint8)
    rows, cols = h_matrix.shape
    if rows > 62:
        raise ValueError("syndrome_byte_table supports at most 62 check rows")
    column_syndromes = pack_bits(h_matrix.T)  # (N,)
    num_bytes = -(-cols // 8)
    padded = np.zeros(num_bytes * 8, dtype=np.int64)
    padded[:cols] = column_syndromes
    # values[v, k] — bit k of byte value v
    values = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    table = np.zeros((num_bytes, 256), dtype=np.int64)
    segments = padded.reshape(num_bytes, 8)
    for bit in range(8):
        table ^= np.where(values[:, bit], segments[:, bit : bit + 1], 0)
    return table


def syndromes_from_bytes(table: np.ndarray, byte_rows: np.ndarray) -> np.ndarray:
    """Packed syndromes of byte-packed rows via a :func:`syndrome_byte_table`.

    ``byte_rows`` has shape ``(B, num_bytes)``; the result is ``(B,)``.  One
    gather per byte position keeps the intermediate at ``(B,)``.
    """
    byte_rows = np.asarray(byte_rows, dtype=np.uint8)
    combined = table[0][byte_rows[..., 0]]
    for position in range(1, table.shape[0]):
        combined ^= table[position][byte_rows[..., position]]
    return combined


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2) (i.e. ordinary product reduced mod 2)."""
    prod = np.asarray(a, dtype=np.int32) @ np.asarray(b, dtype=np.int32)
    return (prod & 1).astype(np.uint8)


def gf2_mat_vec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Matrix–vector product over GF(2)."""
    return gf2_matmul(matrix, np.asarray(vector).reshape(-1))


def syndromes_of(h_matrix: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Syndrome ``H @ e`` of a single error vector, as a length-R bit vector."""
    return gf2_mat_vec(h_matrix, error)


def syndromes_batch(h_matrix: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Syndromes of a batch of error vectors.

    ``errors`` has shape ``(n, N)``; the result has shape ``(n, R)``.  The
    accumulation is done in ``int16`` (row sums never exceed N ≤ 32767), which
    keeps the intermediate small for large batches.
    """
    errors = np.asarray(errors, dtype=np.int16)
    prod = errors @ np.asarray(h_matrix, dtype=np.int16).T
    return (prod & 1).astype(np.uint8)


def pack_syndromes(h_matrix: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Batch syndromes packed into integers (see :func:`pack_bits`)."""
    return pack_bits(syndromes_batch(h_matrix, errors))


def column_weights(matrix: np.ndarray) -> np.ndarray:
    """Hamming weight of each column."""
    return np.asarray(matrix, dtype=np.int64).sum(axis=0)


def row_weights(matrix: np.ndarray) -> np.ndarray:
    """Hamming weight of each row."""
    return np.asarray(matrix, dtype=np.int64).sum(axis=1)


def gf2_row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns ``(rref, pivot_columns)``.  The input is not modified.
    """
    work = np.asarray(matrix, dtype=np.uint8).copy()
    rows, cols = work.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_rows = np.nonzero(work[row:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = row + int(pivot_rows[0])
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        # Eliminate this column from every other row.
        others = np.nonzero(work[:, col])[0]
        for other in others:
            if other != row:
                work[other] ^= work[row]
        pivots.append(col)
        row += 1
    return work, pivots


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2)."""
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over GF(2).

    Raises :class:`ValueError` if the matrix is singular.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError("matrix must be square")
    augmented = np.concatenate([matrix, np.eye(size, dtype=np.uint8)], axis=1)
    rref, pivots = gf2_row_reduce(augmented)
    if pivots[:size] != list(range(size)):
        raise ValueError("matrix is singular over GF(2)")
    return rref[:, size:].copy()


def gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over GF(2) for square invertible ``matrix``."""
    return gf2_mat_vec(gf2_inverse(matrix), rhs)
