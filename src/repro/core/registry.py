"""Factory registry for the evaluated ECC organizations.

Names and labels follow the paper's Table 2:

=============  =================  =======================================
name           label              notes
=============  =================  =======================================
ni-secded      NI:SEC-DED         the GPU baseline (Hsiao 72,64 per beat)
i-secded       I:SEC-DED          + logical interleaving
duet           I:SEC-DED+CSC      **DuetECC**
ni-sec2bec     NI:SEC-2bEC        Equation-3 code, bit-adjacent symbols
i-sec2bec      I:SEC-2bEC         swizzled stride-4 symbols
trio           I:SEC-2bEC+CSC     **TrioECC**
i-ssc          I:SSC              two (18,16) RS codewords, checkerboard
i-ssc-csc      I:SSC+CSC          + correction sanity check
ssc-dsd+       SSC-DSD+           one (36,32) RS codeword, no pin correct
=============  =================  =======================================

Two further tiers widen the code space beyond the paper's evaluation:

* :data:`EXTENSION_SCHEME_NAMES` — the Section-6.2 organizations the paper
  describes but rejects for their multi-cycle iterative decoders, and
* :data:`EXPANSION_SCHEME_NAMES` — the code families the related work
  builds for real (searched balanced-row Hsiao variants, BCH DEC, polar
  with syndrome-SC decoding, SEC-DAEC), evaluated under the same
  equivalence-oracle discipline as everything else.

Schemes are constructed lazily and cached — the pair tables, RS locator
tables, and polar reliability ordering are built once per process.  Alias
and case normalization happens in the *uncached* :func:`get_scheme`
wrapper so every accepted spelling resolves to the one cached instance of
its canonical scheme.
"""

from __future__ import annotations

from functools import cache

from repro.codes.hsiao import HSIAO_72_64, hsiao_search_code
from repro.codes.sec2bec import (
    SEC_2BEC_72_64,
    interleave_column_permutation,
    paper_pair_table,
    stride4_pairs,
)
from repro.core.binary import BinaryEntryScheme
from repro.core.rs_ssc import InterleavedSSCScheme
from repro.core.scheme import ECCScheme
from repro.core.ssc_dsd import SSCDSDPlusScheme

__all__ = [
    "SCHEME_NAMES",
    "EXTENSION_SCHEME_NAMES",
    "EXPANSION_SCHEME_NAMES",
    "SCHEME_ALIASES",
    "get_scheme",
    "all_schemes",
    "expanded_schemes",
    "binary_scheme_names",
    "known_scheme_names",
]

#: Table-2 order.
SCHEME_NAMES = (
    "ni-secded",
    "i-secded",
    "duet",
    "ni-sec2bec",
    "i-sec2bec",
    "trio",
    "i-ssc",
    "i-ssc-csc",
    "ssc-dsd+",
)

#: The Section-6.2 organizations the paper describes but rejects for their
#: multi-cycle iterative decoders; available for ablation studies.
EXTENSION_SCHEME_NAMES = ("dsc", "ssc-tsd")

#: The related-work code families: a searched balanced-row Hsiao variant,
#: SEC-DAEC, shortened BCH DEC, and a shortened polar code with CRC-8.
EXPANSION_SCHEME_NAMES = ("hsiao-v2", "sec-daec", "bch-dec", "polar")

#: Aliases accepted by :func:`get_scheme`.
_ALIASES = {
    "secded": "ni-secded",
    "duetecc": "duet",
    "i-secded-csc": "duet",
    "trioecc": "trio",
    "i-sec2bec-csc": "trio",
    "ssc-dsd": "ssc-dsd+",
    "sscdsd+": "ssc-dsd+",
    "hsiao": "hsiao-v2",
    "secdaec": "sec-daec",
    "bch": "bch-dec",
    "polar-sc": "polar",
}

#: Read-only view for error messages and docs.
SCHEME_ALIASES = dict(_ALIASES)


def known_scheme_names() -> tuple[str, ...]:
    """Every canonical registry name, in tier order."""
    return SCHEME_NAMES + EXTENSION_SCHEME_NAMES + EXPANSION_SCHEME_NAMES


@cache
def _swizzled_sec2bec():
    """The Equation-3 code with columns permuted for stride-4 symbols."""
    code = SEC_2BEC_72_64.column_permuted(
        interleave_column_permutation(), name="sec-2bec(72,64)/swizzled"
    )
    return code, code.build_pair_table(stride4_pairs())


def get_scheme(name: str) -> ECCScheme:
    """Construct (and cache) an ECC scheme by registry name or alias.

    Normalization happens *here*, outside the cache, so ``"Trio"``,
    ``"trioecc"``, and ``"trio"`` all return the identical cached object.
    """
    return _build_scheme(_ALIASES.get(name.lower(), name.lower()))


@cache
def _build_scheme(name: str) -> ECCScheme:
    """Build the scheme for one *canonical* registry name (cached)."""
    if name == "ni-secded":
        return BinaryEntryScheme(
            HSIAO_72_64, interleaved=False, name=name, label="NI:SEC-DED"
        )
    if name == "i-secded":
        return BinaryEntryScheme(
            HSIAO_72_64, interleaved=True, name=name, label="I:SEC-DED"
        )
    if name == "duet":
        return BinaryEntryScheme(
            HSIAO_72_64,
            interleaved=True,
            csc=True,
            name=name,
            label="I:SEC-DED+CSC (DuetECC)",
        )
    if name == "ni-sec2bec":
        return BinaryEntryScheme(
            SEC_2BEC_72_64,
            interleaved=False,
            pair_table=paper_pair_table(),
            name=name,
            label="NI:SEC-2bEC",
        )
    if name == "i-sec2bec":
        code, pairs = _swizzled_sec2bec()
        return BinaryEntryScheme(
            code, interleaved=True, pair_table=pairs, name=name, label="I:SEC-2bEC"
        )
    if name == "trio":
        code, pairs = _swizzled_sec2bec()
        return BinaryEntryScheme(
            code,
            interleaved=True,
            pair_table=pairs,
            csc=True,
            name=name,
            label="I:SEC-2bEC+CSC (TrioECC)",
        )
    if name == "i-ssc":
        return InterleavedSSCScheme(csc=False)
    if name == "i-ssc-csc":
        return InterleavedSSCScheme(csc=True)
    if name == "ssc-dsd+":
        return SSCDSDPlusScheme()
    if name == "dsc":
        from repro.core.algebraic_schemes import DSCScheme

        return DSCScheme()
    if name == "ssc-tsd":
        from repro.core.algebraic_schemes import SSCTSDScheme

        return SSCTSDScheme()
    if name == "hsiao-v2":
        # variant 1: equally row-balanced but distinct from the paper's
        # baseline matrix (variant 0 of the search reproduces it exactly)
        return BinaryEntryScheme(
            hsiao_search_code(variant=1),
            interleaved=False,
            name=name,
            label="NI:SEC-DED v2 (searched)",
        )
    if name == "sec-daec":
        from repro.codes.sec_daec import SEC_DAEC_72_64, SEC_DAEC_PAIRS

        return BinaryEntryScheme(
            SEC_DAEC_72_64,
            interleaved=False,
            pair_table=SEC_DAEC_PAIRS,
            name=name,
            label="NI:SEC-DAEC",
        )
    if name == "bch-dec":
        from repro.codes.bch import BCH_DEC_144_128, BCH_DEC_PAIRS

        return BinaryEntryScheme(
            BCH_DEC_144_128,
            interleaved=False,
            pair_table=BCH_DEC_PAIRS,
            name=name,
            label="BCH-DEC (144,128)x2",
        )
    if name == "polar":
        from repro.core.polar_scheme import PolarEntryScheme

        return PolarEntryScheme()
    raise KeyError(
        f"unknown ECC scheme: {name!r} "
        f"(known: {known_scheme_names()}; "
        f"aliases: {tuple(sorted(_ALIASES))})"
    )


def all_schemes() -> list[ECCScheme]:
    """All nine organizations in Table-2 order."""
    return [get_scheme(name) for name in SCHEME_NAMES]


def expanded_schemes() -> list[ECCScheme]:
    """Every registered organization: paper, extension, and expansion tiers."""
    return [get_scheme(name) for name in known_scheme_names()]


def binary_scheme_names() -> tuple[str, ...]:
    """The six binary organizations (Section 6.1)."""
    return SCHEME_NAMES[:6]
