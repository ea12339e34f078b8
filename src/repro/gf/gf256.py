"""Arithmetic in GF(2^8) over the paper's primitive polynomial.

The paper's Reed-Solomon organizations (Section 6.2) use the primitive
polynomial ``x^8 + x^6 + x^5 + x + 1`` (``0x163``).  Elements are represented
as Python ints or numpy ``uint8`` arrays in the range [0, 255]; all operations
are vectorized so that the Monte Carlo harness can decode hundreds of
thousands of codewords per call.

The field is exposed through module-level functions backed by exp/log tables
built once at import time.  The discrete-log table is exactly the ``DLogα``
logic block of the paper's one-shot Reed-Solomon decoder (Figure 7c).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRIMITIVE_POLY",
    "GENERATOR",
    "FIELD_SIZE",
    "ORDER",
    "EXP_TABLE",
    "LOG_TABLE",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_pow_generator",
    "dlog",
    "is_primitive",
]

#: The paper's irreducible polynomial, x^8 + x^6 + x^5 + x + 1.
PRIMITIVE_POLY = 0x163

#: The primitive element α — the polynomial "x".
GENERATOR = 0x02

FIELD_SIZE = 256
ORDER = FIELD_SIZE - 1  # multiplicative order of the group, 255


def _poly_mod(value: int, modulus: int) -> int:
    """Reduce a GF(2)[x] polynomial modulo ``modulus``."""
    mod_degree = modulus.bit_length() - 1
    while value.bit_length() - 1 >= mod_degree:
        shift = value.bit_length() - 1 - mod_degree
        value ^= modulus << shift
    return value


def is_primitive(poly: int) -> bool:
    """Return True iff ``x`` generates the full multiplicative group mod ``poly``.

    Only meaningful for degree-8 polynomials over GF(2); used to sanity-check
    :data:`PRIMITIVE_POLY` at import.
    """
    if poly.bit_length() - 1 != 8:
        return False
    element = 1
    for step in range(1, ORDER + 1):
        element = _poly_mod(element << 1, poly)  # multiply by x
        if element == 1:
            return step == ORDER
    return False


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables.  ``exp`` has length 512 so that products of two
    logs (each < 255) can be looked up without a modulo operation."""
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int64)
    value = 1
    for power in range(ORDER):
        exp[power] = value
        log[value] = power
        value = _poly_mod(value << 1, PRIMITIVE_POLY)
    if value != 1:
        raise AssertionError("PRIMITIVE_POLY is not primitive")
    exp[ORDER : 2 * ORDER] = exp[:ORDER]
    exp[2 * ORDER :] = exp[: 512 - 2 * ORDER]
    log[0] = -1  # sentinel: log of zero is undefined
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


def gf_mul(a, b):
    """Element-wise product in GF(2^8).  Accepts ints or uint8 arrays."""
    a_arr = np.asarray(a, dtype=np.uint8)
    b_arr = np.asarray(b, dtype=np.uint8)
    logs = LOG_TABLE[a_arr] + LOG_TABLE[b_arr]
    product = EXP_TABLE[np.maximum(logs, 0)]
    product = np.where((a_arr == 0) | (b_arr == 0), 0, product)
    if np.isscalar(a) and np.isscalar(b):
        return int(product)
    return product.astype(np.uint8)


def gf_div(a, b):
    """Element-wise quotient a / b in GF(2^8).  Division by zero raises."""
    a_arr = np.asarray(a, dtype=np.uint8)
    b_arr = np.asarray(b, dtype=np.uint8)
    if np.any(b_arr == 0):
        raise ZeroDivisionError("division by zero in GF(2^8)")
    logs = LOG_TABLE[a_arr] - LOG_TABLE[b_arr] + ORDER
    quotient = EXP_TABLE[logs % ORDER]
    quotient = np.where(a_arr == 0, 0, quotient)
    if np.isscalar(a) and np.isscalar(b):
        return int(quotient)
    return quotient.astype(np.uint8)


def gf_inv(a):
    """Element-wise multiplicative inverse.  Zero raises."""
    return gf_div(1, a)


def gf_pow(base, exponent):
    """``base ** exponent`` for a field element and integer exponent ≥ 0."""
    base_arr = np.asarray(base, dtype=np.uint8)
    exp_arr = np.asarray(exponent, dtype=np.int64)
    logs = (LOG_TABLE[base_arr] * exp_arr) % ORDER
    result = EXP_TABLE[logs]
    result = np.where((base_arr == 0) & (exp_arr != 0), 0, result)
    result = np.where(exp_arr == 0, 1, result)
    if np.isscalar(base) and np.isscalar(exponent):
        return int(result)
    return result.astype(np.uint8)


def gf_pow_generator(exponent):
    """``α ** exponent`` (element-wise), for any integer exponent (may be negative)."""
    exp_arr = np.asarray(exponent, dtype=np.int64)
    result = EXP_TABLE[exp_arr % ORDER]
    if np.isscalar(exponent):
        return int(result)
    return result.astype(np.uint8)


def dlog(a):
    """Discrete logarithm base α.  Returns -1 for zero inputs.

    This is the software analogue of the decoder's ``DLogα`` block: the error
    position of a single-symbol RS error is ``dlog(S1) - dlog(S0) mod 255``.
    """
    result = LOG_TABLE[np.asarray(a, dtype=np.uint8)]
    if np.isscalar(a):
        return int(result)
    return result
