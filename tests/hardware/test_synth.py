"""Structural tests of the Table-3 circuit generators.

Absolute gate counts depend on our technology weights, so the assertions
pin down the *relationships* the paper's Table 3 rests on: which circuits
are bigger/slower than which, and how the Perf./Eff. points trade off.
"""

import numpy as np
import pytest

from repro.codes.hsiao import hsiao_code
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.sec2bec import SEC_2BEC_72_64, paper_pair_table
from repro.hardware.synth import (
    _rs_bit_encode_matrix,
    binary_decoder,
    binary_encoder,
    rs_encoder,
    rs_ssc_decoder,
    ssc_dsd_decoder,
    table3_rows,
)


@pytest.fixture(scope="module")
def rows():
    return table3_rows()


class TestDesignPoints:
    def test_efficient_encoders_smaller_but_slower(self, rows):
        encoders, _ = rows
        for row in encoders:
            assert row.eff.area < row.perf.area, row.name
            assert row.eff.delay_ns > row.perf.delay_ns, row.name

    def test_efficient_decoders_smaller_but_slower(self, rows):
        _, decoders = rows
        for row in decoders:
            assert row.eff.area < row.perf.area, row.name
            assert row.eff.delay_ns > row.perf.delay_ns, row.name


class TestEncoderOrdering:
    def test_sec2bec_encoder_costs_more_than_hsiao(self, rows):
        encoders, _ = rows
        by_name = {row.name: row for row in encoders}
        assert (by_name["SEC-2bEC (Duet/Trio)"].perf.area
                > by_name["SEC-DED"].perf.area)

    def test_rs_encoders_cost_most(self, rows):
        encoders, _ = rows
        by_name = {row.name: row for row in encoders}
        assert by_name["SSC-DSD+"].perf.area > by_name["I:SSC"].perf.area
        assert by_name["I:SSC"].perf.area > by_name["SEC-DED"].perf.area

    def test_dsd_encoder_overhead_magnitude(self, rows):
        # Paper: the SSC-DSD+ encoder is roughly 2-4x SEC-DED.
        encoders, _ = rows
        by_name = {row.name: row for row in encoders}
        ratio = by_name["SSC-DSD+"].perf.area / by_name["SEC-DED"].perf.area
        assert 2.0 < ratio < 8.0


class TestDecoderOrdering:
    def test_paper_decoder_area_order(self, rows):
        _, decoders = rows
        by_name = {row.name: row for row in decoders}
        assert (by_name["SEC-DED"].perf.area
                < by_name["DuetECC"].perf.area
                < by_name["TrioECC"].perf.area)
        assert by_name["SSC-DSD+"].perf.area == max(
            row.perf.area for row in decoders
        )

    def test_trio_overhead_modest(self, rows):
        # Paper: TrioECC decoder ~ +54% area over SEC-DED.
        _, decoders = rows
        by_name = {row.name: row for row in decoders}
        overhead = by_name["TrioECC"].perf.area_overhead(by_name["SEC-DED"].perf)
        assert 0.2 < overhead < 1.0

    def test_symbol_decoders_slower(self, rows):
        _, decoders = rows
        by_name = {row.name: row for row in decoders}
        assert by_name["I:SSC+CSC"].perf.delay_ns > by_name["TrioECC"].perf.delay_ns
        assert by_name["SSC-DSD+"].perf.delay_ns >= by_name["I:SSC+CSC"].perf.delay_ns

    def test_binary_decoders_subcycle(self, rows):
        # The paper argues Duet/Trio stay well under a 0.66ns GPU cycle.
        _, decoders = rows
        by_name = {row.name: row for row in decoders}
        assert by_name["TrioECC"].perf.delay_ns < 0.66


class TestGenerators:
    def test_pair_hcm_adds_area(self):
        plain = binary_decoder(SEC_2BEC_72_64, pair_table=None, name="p").stats()
        paired = binary_decoder(
            SEC_2BEC_72_64, pair_table=paper_pair_table(), name="q"
        ).stats()
        assert paired.area > plain.area

    def test_csc_adds_area(self):
        code = hsiao_code()
        plain = binary_decoder(code, csc=False, name="p").stats()
        checked = binary_decoder(code, csc=True, name="q").stats()
        assert checked.area > plain.area

    def test_encoder_copies_scale_area(self):
        rs = ReedSolomonCode(18, 16)
        one = rs_encoder(rs, copies=1, name="one").stats()
        two = rs_encoder(rs, copies=2, name="two").stats()
        assert two.area == pytest.approx(2 * one.area)

    def test_ssc_csc_variant_bigger(self):
        plain = rs_ssc_decoder(csc=False, name="p").stats()
        checked = rs_ssc_decoder(csc=True, name="q").stats()
        assert checked.area > plain.area

    def test_dsd_has_three_locator_paths(self):
        # SSC-DSD+ carries 4 DLog ROMs vs the SSC codeword's 2; its area
        # should exceed a single SSC codeword decoder by a wide margin.
        dsd = ssc_dsd_decoder(name="dsd").stats()
        ssc = rs_ssc_decoder(name="ssc").stats()
        assert dsd.area > ssc.area


def _rs_bit_encode_matrix_per_column(rs: ReedSolomonCode) -> np.ndarray:
    """Oracle: one RS encode per (data symbol, bit) column."""
    matrix = np.zeros((8 * rs.r, 8 * rs.k), dtype=np.uint8)
    for column in range(8 * rs.k):
        data = np.zeros(rs.k, dtype=np.uint8)
        data[column // 8] = 1 << (column % 8)
        parity = rs.encode(data)[: rs.r]
        for symbol in range(rs.r):
            for bit in range(8):
                matrix[8 * symbol + bit, column] = \
                    (int(parity[symbol]) >> bit) & 1
    return matrix


class TestRsEncodeMatrix:
    @pytest.mark.parametrize("n,k", [(18, 16), (36, 32)])
    def test_linearity_build_equals_per_column_encode(self, n, k):
        built = _rs_bit_encode_matrix(n, k)
        expected = _rs_bit_encode_matrix_per_column(ReedSolomonCode(n, k))
        assert built.dtype == expected.dtype
        np.testing.assert_array_equal(built, expected)
        assert not built.flags.writeable
