"""Proof schemes: the paper's signature chains and the baselines it is compared against.

==========  ============  ==========================================
name        completeness  construction
==========  ============  ==========================================
``chain``   yes           the paper's signature chains (Sections 3-6)
``devanbu`` yes           Merkle hash tree, signed root (Devanbu 2000)
``naive``   no            one signature per tuple (strawman)
``vbtree``  no            signed digest hierarchy (Pang & Tan 2004)
==========  ============  ==========================================

Each is an in-process ``publish → answer → verify`` triple behind the one
:class:`ProofScheme` interface, and :data:`SCHEMES` lists them in table
order: the scheme comparison (:mod:`repro.bench.schemes`),
``examples/scheme_comparison.py`` and the tests drive them side by side, as
the paper's Sections 2.3 and 6 do.  Only the chain scheme is served,
stored, recovered or replicated; the baselines' VO artifacts keep their wire
field-specs because their canonical encoding is how the comparison counts
VO bytes, but no service message carries them.
"""

from typing import Tuple

from repro.schemes.base import (
    ProofScheme,
    SchemePublication,
    SchemePublisher,
    SchemeVerifier,
)
from repro.schemes.chain import CHAIN, ChainScheme, ChainVerifier
from repro.schemes.devanbu import (
    DEVANBU,
    DevanbuPublication,
    DevanbuScheme,
    DevanbuSchemeVerifier,
)
from repro.schemes.naive import NAIVE, NaivePublication, NaiveScheme, NaiveSchemeVerifier
from repro.schemes.vbtree import (
    VBTREE,
    VBTreePublication,
    VBTreeScheme,
    VBTreeSchemeVerifier,
)

#: Every scheme of the comparison, in table order.
SCHEMES: Tuple[ProofScheme, ...] = (CHAIN, DEVANBU, NAIVE, VBTREE)

__all__ = [
    "SCHEMES",
    "ProofScheme",
    "SchemePublication",
    "SchemePublisher",
    "SchemeVerifier",
    "CHAIN",
    "ChainScheme",
    "ChainVerifier",
    "DEVANBU",
    "DevanbuPublication",
    "DevanbuScheme",
    "DevanbuSchemeVerifier",
    "NAIVE",
    "NaivePublication",
    "NaiveScheme",
    "NaiveSchemeVerifier",
    "VBTREE",
    "VBTreePublication",
    "VBTreeScheme",
    "VBTreeSchemeVerifier",
]
