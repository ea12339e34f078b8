"""Software decoder throughput (library performance, not a paper figure).

The Monte Carlo evaluation of Table 2 / Figure 8 rests on the vectorized
batch decoders; this benchmark measures their entry-decode throughput so
regressions in the hot path are caught.  pytest-benchmark runs each decoder
repeatedly over a fixed random error batch.  The packed syndrome-LUT fast
path of the binary schemes is held to >= 5x the unpacked reference decoder
it replaced, and the Reed-Solomon schemes' packed path to an absolute
500,000 entries/s.
"""

import time

import numpy as np
import pytest

from benchmarks._output import emit
from repro.core import get_scheme
from repro.core.registry import binary_scheme_names
from repro.core.layout import ENTRY_BITS
from repro.gf.gf2 import pack_rows

BATCH = 20_000
SCHEMES = ("ni-secded", "duet", "trio", "i-ssc-csc", "ssc-dsd+", "dsc")
RS_SCHEMES = ("i-ssc", "i-ssc-csc", "ssc-dsd+")


@pytest.fixture(scope="module")
def error_batch():
    rng = np.random.default_rng(99)
    return (rng.random((BATCH, ENTRY_BITS)) < 0.01).astype(np.uint8)


def _best_rate(fn, arg, repeats=5):
    """Entries/second for ``fn(arg)``, best of ``repeats`` (after a warmup)."""
    fn(arg)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return arg.shape[0] / best


@pytest.mark.parametrize("name", SCHEMES)
def test_batch_decoder_throughput(benchmark, name, error_batch):
    scheme = get_scheme(name)
    result = benchmark(scheme.decode_batch_errors, error_batch)
    entries_per_second = BATCH / benchmark.stats["mean"]
    emit(
        f"Throughput — {name} batch decoder",
        f"{entries_per_second:,.0f} entries/s "
        f"({BATCH} entries/call, mean {benchmark.stats['mean'] * 1e3:.1f} ms)",
    )
    assert result.size == BATCH
    # Sanity floor: the Monte Carlo harness needs ~1e5 entries/s to finish.
    assert entries_per_second > 20_000


#: the Reed-Solomon schemes' packed path, in entries/s on the 20,000-row
#: batch: an absolute floor rather than a ratio over their reference oracle
RS_PACKED_FLOOR = 500_000


@pytest.mark.parametrize("name", binary_scheme_names() + RS_SCHEMES)
def test_packed_lut_speedup(name, error_batch):
    """The binary packed syndrome-LUT path must beat the unpacked reference
    >= 5x; the RS packed path must clear RS_PACKED_FLOOR entries/s."""
    scheme = get_scheme(name)
    words = pack_rows(error_batch)

    reference = _best_rate(scheme.decode_batch_errors_reference, error_batch)
    fast = _best_rate(scheme.decode_batch_errors, error_batch)
    packed = _best_rate(scheme.decode_batch_packed, words)

    emit(
        f"Throughput — {name} packed LUT vs reference",
        f"reference {reference:>12,.0f} entries/s\n"
        f"bits->LUT {fast:>12,.0f} entries/s ({fast / reference:.1f}x)\n"
        f"packed    {packed:>12,.0f} entries/s ({packed / reference:.1f}x)",
    )
    if name in RS_SCHEMES:
        assert packed >= RS_PACKED_FLOOR
    else:
        assert fast / reference >= 5.0
        assert packed / reference >= 5.0
