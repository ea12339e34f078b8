"""XOR-network helpers shared by the encoder/decoder generators.

Binary ECC hardware is dominated by XOR networks: encoders are XOR trees
over the H-matrix rows, syndrome generators are the same trees over the
received word, and GF(2^8) constant multipliers are 8×8 XOR matrices.  The
helpers here build those networks on a :class:`~repro.hardware.circuit.Circuit`
from the actual matrices used by the schemes, so the estimated areas track
the real code structure (e.g. Hsiao's balanced row weights directly shrink
the widest tree).  Every helper builds its whole network as blocks and takes
a leading batch of buses (codewords, copies) in one call.
"""

from __future__ import annotations

import numpy as np

from repro.gf.gf256 import gf_mul
from repro.hardware.circuit import Circuit
from repro.hardware.gates import GateKind

__all__ = [
    "tree_rows",
    "xor_rows",
    "gf_const_mult_matrix",
    "gf_const_mult",
    "xor_combine_bytes",
    "block_diagonal",
]


def tree_rows(circuit: Circuit, kind: GateKind, matrix: np.ndarray,
              inputs) -> np.ndarray:
    """One balanced ``kind`` tree per matrix row over the inputs it selects.

    ``inputs`` has shape ``(..., columns)``; the outputs have shape
    ``(..., rows)``, one network per leading index.  A weight-1 row is a
    wire and an empty row a constant 0.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    inputs = np.asarray(inputs, dtype=np.int64)
    lead = inputs.shape[:-1]
    buses = inputs.reshape(-1, inputs.shape[-1])
    rows, columns = np.nonzero(matrix)
    weights = np.bincount(rows, minlength=matrix.shape[0])
    filled = weights > 0
    outputs = np.empty((len(buses), matrix.shape[0]), dtype=np.int64)
    outputs[:, filled] = circuit.trees(
        kind, buses[:, columns], np.tile(weights[filled], len(buses)),
    ).reshape(len(buses), -1)
    for row in np.flatnonzero(~filled):
        outputs[:, row] = [circuit.const(0) for _ in buses]
    return outputs.reshape(lead + (matrix.shape[0],))


def xor_rows(circuit: Circuit, matrix: np.ndarray, inputs) -> np.ndarray:
    """One XOR tree per matrix row: output r = ⊕ of inputs where row r is 1."""
    return tree_rows(circuit, GateKind.XOR2, matrix, inputs)


def gf_const_mult_matrix(constant) -> np.ndarray:
    """The 8×8 GF(2) matrix of multiplication by a GF(2^8) constant.

    Column j is ``constant · x^j``; the multiplier hardware is one XOR tree
    per output bit over this matrix.  An array of constants gives a stack
    of matrices, shape ``constants.shape + (8, 8)``.
    """
    constant = np.asarray(constant, dtype=np.uint8)
    shifts = np.arange(8, dtype=np.uint8)
    products = gf_mul(constant[..., None], (1 << shifts).astype(np.uint8))
    return ((products[..., None, :] >> shifts[:, None]) & 1).astype(np.uint8)


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Place a stack of ``(m, r, c)`` matrices on one block diagonal."""
    count, rows, columns = blocks.shape
    matrix = np.zeros((count, rows, count, columns), dtype=blocks.dtype)
    matrix[np.arange(count), :, np.arange(count), :] = blocks
    return matrix.reshape(count * rows, count * columns)


def gf_const_mult(circuit: Circuit, constant: int, byte_bits) -> np.ndarray:
    """Instantiate a constant GF(2^8) multiplier on 8 input bits."""
    return xor_rows(circuit, gf_const_mult_matrix(constant), byte_bits)


def xor_combine_bytes(circuit: Circuit, byte_groups) -> np.ndarray:
    """Bitwise XOR of several buses (syndrome accumulation).

    ``byte_groups`` has shape ``(..., groups, width)``; the result has shape
    ``(..., width)``: bit ``b`` is a balanced tree over every group's bit
    ``b``, in group order.
    """
    groups = np.asarray(byte_groups, dtype=np.int64)
    count, width = groups.shape[-2:]
    per_bit = np.swapaxes(groups, -1, -2)
    return circuit.trees(
        GateKind.XOR2, per_bit.reshape(-1), np.full(per_bit.size // count, count)
    ).reshape(groups.shape[:-2] + (width,))
