"""Circuit generators for the expansion-tier code families.

These extend the Table-3 cost model to the registry's expansion schemes:

* **hsiao-v2 / sec-daec** — reuse :func:`repro.hardware.synth.binary_encoder`
  and :func:`~repro.hardware.synth.binary_decoder` (the SEC-DAEC decoder
  exercises the overlapping-pair correction network: a bit inside the
  sliding adjacent-pair window ORs every pair HCM covering it);
* **bch-dec** — a dedicated algebraic DEC netlist per (144,128) codeword:
  parallel syndrome XOR trees for ``S1``/``S3``, a GF(2^8) cube ROM to test
  the single-error invariant ``S3 = S1^3``, the one-shot locator-coefficient
  path ``Λ2 = (S1^3 + S3)/S1`` built from the Reed-Solomon primitives
  (DLogα ROMs, end-around-carry subtractor, an Expα ROM), a fully parallel
  Chien search over all 144 positions, and a population-count root counter
  that only enables double correction when the locator has exactly two
  in-range roots.  The netlist is ROM-complete and functionally simulable.
* **polar** — the syndrome-SC decoder unrolled into combinational logic: an
  XOR butterfly recovers ``u_y``, and the successive-cancellation datapath
  is instantiated node for node with a quantized sign-magnitude LLR bus
  (1 + ``_MAG_BITS`` bits, saturating adders — standard min-sum hardware
  practice; the software evaluator remains the behavioral reference).
  Constant channel LLRs are folded through the tree, so only logic that
  actually depends on the syndrome is charged.  The result is deliberately
  honest about why nobody ships single-cycle SC at N=512: the decoder is
  orders of magnitude larger and slower than any Table-3 organization.

:func:`expansion_rows` summarizes the four families at both design points;
:func:`scheme_hardware` maps *every* registry scheme to its synthesized
encoder/decoder rows (``None`` for the multi-cycle extension tier, which
has no single-cycle netlist by definition) for the ranking report.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.codes.hsiao import hsiao_search_code
from repro.gf.gf256 import EXP_TABLE, LOG_TABLE, ORDER
from repro.hardware.circuit import Circuit
from repro.hardware.gates import GateKind
from repro.hardware.synth import (
    _DLOG_CONTENTS,
    Table3Row,
    _eac_subtractor,
    _equality,
    _new_circuit,
    binary_decoder,
    binary_encoder,
    rs_encoder,
    rs_ssc_decoder,
    ssc_dsd_decoder,
)
from repro.hardware.xor_tree import gf_const_mult_matrix, xor_combine_bytes, xor_rows

__all__ = [
    "bch_dec_decoder",
    "polar_encoder",
    "polar_decoder",
    "expansion_rows",
    "scheme_hardware",
]

#: Magnitude width of the quantized sign-magnitude LLR datapath.
_MAG_BITS = 5


# ---------------------------------------------------------------------------
# Constant-folding gate helpers
# ---------------------------------------------------------------------------

class _Fold:
    """Gate builder that folds constants instead of instantiating cells.

    The unrolled SC datapath starts from *constant* channel LLRs — real
    synthesis would sweep that logic away, so the cost model must too.
    Folding rules: known-input gates evaluate to constants, identity inputs
    pass through, and muxes degenerate to AND/OR/NOT where a data input is
    constant.  Constants are deduplicated per circuit.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._consts: dict[int, int] = {}

    def const(self, value: int) -> int:
        value = int(bool(value))
        if value not in self._consts:
            self._consts[value] = self.circuit.const(value)
        return self._consts[value]

    def _value(self, node: int) -> int | None:
        return self.circuit.const_value(node)

    def not_(self, a: int) -> int:
        va = self._value(a)
        if va is not None:
            return self.const(va ^ 1)
        return self.circuit.gate(GateKind.NOT, a)

    def xor(self, a: int, b: int) -> int:
        va, vb = self._value(a), self._value(b)
        if va is not None and vb is not None:
            return self.const(va ^ vb)
        if va == 0:
            return b
        if vb == 0:
            return a
        if va == 1:
            return self.not_(b)
        if vb == 1:
            return self.not_(a)
        return self.circuit.gate(GateKind.XOR2, a, b)

    def and_(self, a: int, b: int) -> int:
        va, vb = self._value(a), self._value(b)
        if va == 0 or vb == 0:
            return self.const(0)
        if va == 1:
            return b
        if vb == 1:
            return a
        return self.circuit.gate(GateKind.AND2, a, b)

    def or_(self, a: int, b: int) -> int:
        va, vb = self._value(a), self._value(b)
        if va == 1 or vb == 1:
            return self.const(1)
        if va == 0:
            return b
        if vb == 0:
            return a
        return self.circuit.gate(GateKind.OR2, a, b)

    def mux(self, select: int, low: int, high: int) -> int:
        """``high if select else low`` (the MUX2 fanin convention)."""
        vs = self._value(select)
        if vs is not None:
            return high if vs else low
        if low == high:
            return low
        vl, vh = self._value(low), self._value(high)
        if vl == 0 and vh == 1:
            return select
        if vl == 1 and vh == 0:
            return self.not_(select)
        if vh == 0:
            return self.and_(self.not_(select), low)
        if vh == 1:
            return self.or_(select, low)
        if vl == 0:
            return self.and_(select, high)
        if vl == 1:
            return self.or_(self.not_(select), high)
        return self.circuit.gate(GateKind.MUX2, select, low, high)

    def _reduce(self, op, nodes: list[int]) -> int:
        work = list(nodes)
        if not work:
            raise ValueError("cannot reduce an empty signal list")
        while len(work) > 1:
            nxt = [op(work[i], work[i + 1]) for i in range(0, len(work) - 1, 2)]
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def or_tree(self, nodes: list[int]) -> int:
        return self._reduce(self.or_, nodes)

    def xor_tree(self, nodes: list[int]) -> int:
        return self._reduce(self.xor, nodes)


def _ripple_add(fold: _Fold, a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Equal-width ripple adder; returns (sum bits, carry-out)."""
    total, carry = [], fold.const(0)
    for x, y in zip(a, b):
        partial = fold.xor(x, y)
        total.append(fold.xor(partial, carry))
        carry = fold.or_(fold.and_(x, y), fold.and_(partial, carry))
    return total, carry


def _ripple_sub(fold: _Fold, a: list[int], b: list[int]) -> list[int]:
    """``a - b`` assuming ``a >= b`` (borrow-ripple subtractor)."""
    out, borrow = [], fold.const(0)
    for x, y in zip(a, b):
        partial = fold.xor(x, y)
        out.append(fold.xor(partial, borrow))
        borrow = fold.or_(
            fold.and_(fold.not_(x), y), fold.and_(fold.not_(partial), borrow)
        )
    return out


def _mag_less(fold: _Fold, a: list[int], b: list[int]) -> int:
    """``a < b`` over unsigned buses (LSB-first), MSB priority."""
    less = fold.const(0)
    for x, y in zip(a, b):  # LSB -> MSB; later (higher) bits override
        differ = fold.xor(x, y)
        less = fold.mux(differ, less, fold.and_(fold.not_(x), y))
    return less


def _popcount(fold: _Fold, bits: list[int]) -> list[int]:
    """Population count as a bus, via a pairwise adder tree."""
    buses: list[list[int]] = [[bit] for bit in bits]
    zero = fold.const(0)
    while len(buses) > 1:
        nxt = []
        for i in range(0, len(buses) - 1, 2):
            a, b = buses[i], buses[i + 1]
            width = max(len(a), len(b))
            a = a + [zero] * (width - len(a))
            b = b + [zero] * (width - len(b))
            total, carry = _ripple_add(fold, a, b)
            nxt.append(total + [carry])
        if len(buses) % 2:
            nxt.append(buses[-1])
        buses = nxt
    return buses[0]


# ---------------------------------------------------------------------------
# BCH DEC decoder
# ---------------------------------------------------------------------------

#: Cube ROM: v -> v^3 in GF(2^8) (the single-error invariant S3 = S1^3).
_CUBE_CONTENTS = [0] + [
    int(EXP_TABLE[(3 * int(LOG_TABLE[value])) % ORDER]) for value in range(1, 256)
]

#: Expα ROM: antilog of a mod-255 exponent; address 255 is the EAC
#: subtractor's ones'-complement double zero and reads as α^0 = 1.
_EXP_CONTENTS = [int(EXP_TABLE[value % ORDER]) for value in range(256)]


def bch_dec_decoder(*, efficient: bool = False,
                    name: str = "bch-dec-decoder") -> Circuit:
    """The one-shot double-error-correcting decoder, two (144,128) codewords.

    Per codeword: syndrome trees for ``S1``/``S3``, 144 full-width HCMs for
    the single-error path, the ``Λ2`` locator-coefficient path on the RS
    primitives, a parallel Chien search (one constant multiplier and root
    comparator per position), and a popcount gate that arms double
    correction only when exactly two locator roots land in range.
    """
    from repro.codes.bch import BCH_DEC_144_128 as code

    circuit = _new_circuit(name, efficient)
    fold = _Fold(circuit)
    copies = 288 // code.n
    positions = np.arange(code.n)
    # Chien search: position j is a root iff α^{2j} + S1·α^j + Λ2 = 0.
    chien_matrix = gf_const_mult_matrix(EXP_TABLE[positions % ORDER]) \
        .reshape(8 * code.n, 8)
    chien_roots = EXP_TABLE[(2 * positions) % ORDER]

    for codeword in range(copies):
        received = circuit.add_input(code.n)
        syndrome = xor_rows(circuit, code.h, received)
        s1, s3 = syndrome[:8], syndrome[8:]
        s1_nonzero = circuit.or_tree(s1)
        any_nonzero = circuit.or_tree(syndrome)

        # Single-error path: S3 = S1^3 and the 16-bit syndrome matches a column.
        s1_cubed = circuit.rom(s1, 8, contents=_CUBE_CONTENTS)
        single_consistent = int(_equality(circuit, s1_cubed, s3))
        single_mode = circuit.gate(GateKind.AND2, s1_nonzero, single_consistent)
        hcm = circuit.match_constants(syndrome, code.column_syndromes).tolist()

        # Locator coefficient Λ2 = (S1^3 + S3) / S1 via log-domain division.
        numerator = xor_combine_bytes(circuit, [s1_cubed, s3])
        log_numerator = circuit.rom(numerator, 8, contents=_DLOG_CONTENTS)
        log_denominator = circuit.rom(s1, 8, contents=_DLOG_CONTENTS)
        log_lambda2 = _eac_subtractor(circuit, log_numerator, log_denominator)
        lambda2 = circuit.rom(log_lambda2, 8, contents=_EXP_CONTENTS)

        terms = xor_rows(circuit, chien_matrix, s1).reshape(code.n, 8)
        trials = xor_combine_bytes(
            circuit, np.stack([terms, np.broadcast_to(lambda2, terms.shape)],
                              axis=1)
        )
        roots = circuit.match_constants(trials, chien_roots).tolist()
        root_count = _popcount(fold, roots)
        two_roots = circuit.match_constant(root_count, 2)
        double_mode = circuit.and_tree(
            [s1_nonzero, circuit.gate(GateKind.NOT, single_consistent), two_roots]
        )

        flips = [
            fold.or_(
                fold.and_(hcm[j], single_mode), fold.and_(roots[j], double_mode)
            )
            for j in range(code.n)
        ]
        for index, position in enumerate(code.data_positions.tolist()):
            circuit.mark_output(
                f"cw{codeword}_data{index}",
                fold.xor(received[position], flips[position]),
            )
        corrects = circuit.gate(GateKind.OR2, single_mode, double_mode)
        due = circuit.gate(
            GateKind.AND2, any_nonzero, circuit.gate(GateKind.NOT, corrects)
        )
        circuit.mark_output(f"cw{codeword}_due", due)
    return circuit


# ---------------------------------------------------------------------------
# Polar circuits
# ---------------------------------------------------------------------------

def _butterfly(fold: _Fold, nets: list[int]) -> list[int]:
    """The polar XOR butterfly on signal nets (mirrors ``_polar_transform``)."""
    nets = list(nets)
    n = len(nets)
    step = 1
    while step < n:
        for start in range(0, n, 2 * step):
            for i in range(start, start + step):
                nets[i] = fold.xor(nets[i], nets[i + step])
        step *= 2
    return nets


def _llr_const(fold: _Fold, magnitude: int) -> tuple[int, list[int]]:
    """A constant non-negative LLR as a sign-magnitude bus."""
    magnitude = min(magnitude, (1 << _MAG_BITS) - 1)
    return (
        fold.const(0),
        [fold.const((magnitude >> bit) & 1) for bit in range(_MAG_BITS)],
    )


def _f_node(fold: _Fold, a, b):
    """min-sum check node: sign product, magnitude minimum."""
    sign_a, mag_a = a
    sign_b, mag_b = b
    sign = fold.xor(sign_a, sign_b)
    a_smaller = _mag_less(fold, mag_a, mag_b)
    mag = [fold.mux(a_smaller, mb, ma) for ma, mb in zip(mag_a, mag_b)]
    # Equal magnitudes take either input; a<b strictly takes a. Covered by
    # the mux polarity: a_smaller=1 -> mag_a, else mag_b.
    return sign, mag


def _g_node(fold: _Fold, a, b, partial: int):
    """Variable node ``b + (1-2p)·a`` in saturating sign-magnitude."""
    sign_a, mag_a = a
    sign_b, mag_b = b
    sign_a = fold.xor(sign_a, partial)  # partial sum flips the a operand
    same_sign = fold.not_(fold.xor(sign_a, sign_b))
    total, carry = _ripple_add(fold, mag_a, mag_b)
    saturated = [fold.or_(bit, carry) for bit in total]
    a_smaller = _mag_less(fold, mag_a, mag_b)
    larger = [fold.mux(a_smaller, ma, mb) for ma, mb in zip(mag_a, mag_b)]
    smaller = [fold.mux(a_smaller, mb, ma) for ma, mb in zip(mag_a, mag_b)]
    difference = _ripple_sub(fold, larger, smaller)
    diff_sign = fold.mux(a_smaller, sign_a, sign_b)
    sign = fold.mux(same_sign, diff_sign, sign_a)
    mag = [fold.mux(same_sign, d, s) for d, s in zip(difference, saturated)]
    return sign, mag


def _sc_nets(fold: _Fold, code, buses, offset: int, forced: list[int]) -> list[int]:
    """Unrolled successive cancellation over sign-magnitude LLR buses."""
    size = len(buses)
    if size == 1:
        if code.frozen_mask[offset]:
            return [forced[offset]]
        sign, mag = buses[0]
        # decide 1 iff LLR < 0: negative sign with nonzero magnitude
        # (an LLR of exactly 0 deterministically decides 0).
        return [fold.and_(sign, fold.or_tree(mag))]
    half = size // 2
    llr_f = [_f_node(fold, buses[i], buses[half + i]) for i in range(half)]
    u_a = _sc_nets(fold, code, llr_f, offset, forced)
    partial = _butterfly(fold, u_a)
    llr_g = [
        _g_node(fold, buses[i], buses[half + i], partial[i]) for i in range(half)
    ]
    u_b = _sc_nets(fold, code, llr_g, offset + half, forced)
    return u_a + u_b


def polar_encoder(*, efficient: bool = False,
                  name: str = "polar-encoder") -> Circuit:
    """Non-systematic polar encoder: CRC-8 generation + the XOR butterfly.

    Unlike every other encoder in the cost model the output is the whole
    288-bit transmitted word, not just check bits — polar codes are not
    systematic, which is itself part of their hardware cost story.
    """
    from repro.codes.polar import POLAR_512_288 as code

    circuit = _new_circuit(name, efficient)
    fold = _Fold(circuit)
    data = circuit.add_input(code.data_bits)
    crc = xor_rows(circuit, code._crc_matrix, data).tolist()

    u = [fold.const(0)] * code.n
    info = code.info_positions.tolist()
    for index, position in enumerate(info[: code.data_bits]):
        u[position] = data[index]
    for index, position in enumerate(info[code.data_bits:]):
        u[position] = crc[index]
    x = _butterfly(fold, u)
    for j in range(code.transmitted):
        circuit.mark_output(f"x{j}", x[j])
    return circuit


def polar_decoder(*, efficient: bool = False,
                  name: str = "polar-decoder") -> Circuit:
    """Syndrome-SC decoder unrolled into single-cycle combinational logic.

    Structure mirrors :meth:`repro.codes.polar.PolarCode.decode` exactly:
    the received word's butterfly gives ``u_y`` (whose frozen coordinates
    are the syndrome), the SC tree runs on constant channel LLRs with
    frozen leaves forced to those nets, and the payload plus CRC check come
    from ``u_y ⊕ u_e``.  The LLR datapath is quantized to 1+``_MAG_BITS``
    sign-magnitude bits with saturating adders — standard min-sum hardware;
    the int64 software decoder remains the behavioral reference.
    """
    from repro.codes.polar import POLAR_512_288 as code

    circuit = _new_circuit(name, efficient)
    fold = _Fold(circuit)
    received = circuit.add_input(code.transmitted)
    y = list(received) + [fold.const(0)] * (code.n - code.transmitted)
    u_y = _butterfly(fold, y)

    buses = [
        _llr_const(fold, 1 if i < code.transmitted else (1 << _MAG_BITS) - 1)
        for i in range(code.n)
    ]
    u_e = _sc_nets(fold, code, buses, 0, u_y)

    info = code.info_positions.tolist()
    u_hat = {i: fold.xor(u_y[i], u_e[i]) for i in info}
    data = [u_hat[i] for i in info[: code.data_bits]]
    crc_rx = [u_hat[i] for i in info[code.data_bits:]]
    crc_rows = code._crc_matrix
    mismatch = []
    for row in range(crc_rows.shape[0]):
        taps = [data[j] for j in range(code.data_bits) if crc_rows[row, j]]
        mismatch.append(fold.xor(fold.xor_tree(taps), crc_rx[row]))
    for index, net in enumerate(data):
        circuit.mark_output(f"data{index}", net)
    circuit.mark_output("due", fold.or_tree(mismatch))
    return circuit


# ---------------------------------------------------------------------------
# Expansion rows + per-scheme synthesis map
# ---------------------------------------------------------------------------

def _row(name: str, build) -> Table3Row:
    return Table3Row(
        name,
        build(False, f"{name}-perf").stats(),
        build(True, f"{name}-eff").stats(),
    )


@cache
def expansion_rows() -> tuple[list[Table3Row], list[Table3Row]]:
    """Synthesize the expansion-tier circuits; (encoder rows, decoder rows).

    Row order matches :data:`repro.core.registry.EXPANSION_SCHEME_NAMES`.
    Baseline-relative overheads should be computed against the SEC-DED rows
    of :func:`repro.hardware.synth.table3_rows`.
    """
    from repro.codes.bch import BCH_DEC_144_128
    from repro.codes.sec_daec import SEC_DAEC_72_64, SEC_DAEC_PAIRS

    hsiao2 = hsiao_search_code(variant=1)
    encoders = [
        _row("SEC-DED v2", lambda eff, name: binary_encoder(
            hsiao2, efficient=eff, name=name)),
        _row("SEC-DAEC", lambda eff, name: binary_encoder(
            SEC_DAEC_72_64, efficient=eff, name=name)),
        _row("BCH-DEC", lambda eff, name: binary_encoder(
            BCH_DEC_144_128, efficient=eff, name=name)),
        _row("Polar", lambda eff, name: polar_encoder(
            efficient=eff, name=name)),
    ]
    decoders = [
        _row("SEC-DED v2", lambda eff, name: binary_decoder(
            hsiao2, efficient=eff, name=name)),
        _row("SEC-DAEC", lambda eff, name: binary_decoder(
            SEC_DAEC_72_64, pair_table=SEC_DAEC_PAIRS, efficient=eff,
            name=name)),
        _row("BCH-DEC", lambda eff, name: bch_dec_decoder(
            efficient=eff, name=name)),
        _row("Polar", lambda eff, name: polar_decoder(
            efficient=eff, name=name)),
    ]
    return encoders, decoders


@cache
def scheme_hardware() -> dict[str, tuple[Table3Row | None, Table3Row | None]]:
    """``name -> (encoder row, decoder row)`` for every registry scheme.

    Interleaving is wiring only, so interleaved variants share their
    non-interleaved sibling's circuits (the paper's "implemented by wires").
    The extension tier's multi-cycle iterative decoders have no single-cycle
    netlist and map to ``(None, None)``.
    """
    from repro.codes.hsiao import HSIAO_72_64
    from repro.codes.reed_solomon import ReedSolomonCode
    from repro.codes.sec2bec import SEC_2BEC_72_64, paper_pair_table
    from repro.core.registry import known_scheme_names

    hsiao = HSIAO_72_64
    sec2bec = SEC_2BEC_72_64
    pairs = paper_pair_table()
    rs18 = ReedSolomonCode(18, 16)
    rs36 = ReedSolomonCode(36, 32)

    secded_enc = _row("SEC-DED", lambda eff, name: binary_encoder(
        hsiao, efficient=eff, name=name))
    sec2bec_enc = _row("SEC-2bEC", lambda eff, name: binary_encoder(
        sec2bec, efficient=eff, name=name))
    ssc_enc = _row("I:SSC", lambda eff, name: rs_encoder(
        rs18, copies=2, efficient=eff, name=name))
    dsd_enc = _row("SSC-DSD+", lambda eff, name: rs_encoder(
        rs36, efficient=eff, name=name))

    secded_dec = _row("SEC-DED", lambda eff, name: binary_decoder(
        hsiao, efficient=eff, name=name))
    duet_dec = _row("DuetECC", lambda eff, name: binary_decoder(
        hsiao, csc=True, efficient=eff, name=name))
    sec2bec_dec = _row("SEC-2bEC", lambda eff, name: binary_decoder(
        sec2bec, pair_table=pairs, efficient=eff, name=name))
    trio_dec = _row("TrioECC", lambda eff, name: binary_decoder(
        sec2bec, pair_table=pairs, csc=True, efficient=eff, name=name))
    ssc_dec = _row("I:SSC", lambda eff, name: rs_ssc_decoder(
        csc=False, efficient=eff, name=name))
    ssc_csc_dec = _row("I:SSC+CSC", lambda eff, name: rs_ssc_decoder(
        csc=True, efficient=eff, name=name))
    dsd_dec = _row("SSC-DSD+", lambda eff, name: ssc_dsd_decoder(
        efficient=eff, name=name))

    expansion_enc, expansion_dec = expansion_rows()
    mapping: dict[str, tuple[Table3Row | None, Table3Row | None]] = {
        "ni-secded": (secded_enc, secded_dec),
        "i-secded": (secded_enc, secded_dec),
        "duet": (secded_enc, duet_dec),
        "ni-sec2bec": (sec2bec_enc, sec2bec_dec),
        "i-sec2bec": (sec2bec_enc, sec2bec_dec),
        "trio": (sec2bec_enc, trio_dec),
        "i-ssc": (ssc_enc, ssc_dec),
        "i-ssc-csc": (ssc_enc, ssc_csc_dec),
        "ssc-dsd+": (dsd_enc, dsd_dec),
        "dsc": (None, None),
        "ssc-tsd": (None, None),
        "hsiao-v2": (expansion_enc[0], expansion_dec[0]),
        "sec-daec": (expansion_enc[1], expansion_dec[1]),
        "bch-dec": (expansion_enc[2], expansion_dec[2]),
        "polar": (expansion_enc[3], expansion_dec[3]),
    }
    missing = set(known_scheme_names()) - set(mapping)
    if missing:
        raise AssertionError(f"schemes without hardware mapping: {missing}")
    return mapping
