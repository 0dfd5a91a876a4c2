"""Property-based tests (hypothesis) for the core data structures and invariants.

Signature operations are too slow for hypothesis's example counts, so these
properties target the signature-free layers: polynomial representations, chain
digests, Merkle trees, encodings, the wire reader's scalar fast path, the
B+-tree and the relation/engine layer.
End-to-end properties over the full (signed) pipeline live in
``test_integration_end_to_end.py`` with hand-picked example counts.
"""

import string

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import polynomial
from repro.core.digest import ConceptualChainScheme, OptimizedChainScheme
from repro.crypto.encoding import (
    bytes_to_int,
    decode_value,
    encode_many,
    encode_value,
    int_to_bytes,
)
from repro.crypto.merkle import MerkleTree
from repro.db.btree import BPlusTree
from repro.db.relation import Relation
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.service.protocol import QueryResponse
from repro.wire import WireFormatError, decode, encode
from repro.wire.primitives import WireReader


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


@given(st.integers(min_value=-(2**128), max_value=2**128))
def test_int_encoding_round_trips(value):
    assert bytes_to_int(int_to_bytes(value)) == value


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-(2**64), max_value=2**64),
            st.text(max_size=20),
            st.binary(max_size=20),
            st.booleans(),
            st.none(),
        ),
        max_size=8,
    ),
    st.lists(
        st.one_of(
            st.integers(min_value=-(2**64), max_value=2**64),
            st.text(max_size=20),
            st.binary(max_size=20),
            st.booleans(),
            st.none(),
        ),
        max_size=8,
    ),
)
def test_encode_many_is_injective(left, right):
    assume(left != right)
    assert encode_many(left) != encode_many(right)


# ---------------------------------------------------------------------------
# Polynomial representations (Section 5.1)
# ---------------------------------------------------------------------------


@given(
    value=st.integers(min_value=0, max_value=10**6),
    base=st.integers(min_value=2, max_value=16),
)
def test_canonical_digits_round_trip(value, base):
    num_digits = polynomial.num_digits_for(value + 1, base)
    digits = polynomial.to_canonical_digits(value, base, num_digits)
    assert polynomial.digits_to_value(digits, base) == value
    assert all(0 <= d < base for d in digits)


@given(
    value=st.integers(min_value=0, max_value=10**6),
    base=st.integers(min_value=2, max_value=12),
)
def test_preferred_representations_preserve_value(value, base):
    num_digits = polynomial.num_digits_for(10**6 + 1, base)
    for representation in polynomial.all_preferred_representations(value, base, num_digits):
        if representation.is_valid:
            assert representation.value(base) == value


@given(
    delta_t=st.integers(min_value=0, max_value=10**6),
    delta_c=st.integers(min_value=0, max_value=10**6),
    base=st.integers(min_value=2, max_value=12),
)
def test_boundary_selection_lemma(delta_t, delta_c, base):
    """For any delta_c <= delta_t a representation with digit-wise slack exists."""
    assume(delta_c <= delta_t)
    num_digits = polynomial.num_digits_for(10**6 + 1, base)
    selected = polynomial.select_boundary_representation(delta_t, delta_c, base, num_digits)
    c_digits = polynomial.to_canonical_digits(delta_c, base, num_digits)
    delta_e = polynomial.subtract_digitwise(selected.digits, c_digits)
    assert all(d >= 0 for d in delta_e)
    assert polynomial.digits_to_value(selected.digits, base) == delta_t


# ---------------------------------------------------------------------------
# Chain digest schemes
# ---------------------------------------------------------------------------

_WIDTH = 4096


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    value=st.integers(min_value=0, max_value=_WIDTH - 2),
    alpha=st.integers(min_value=1, max_value=_WIDTH - 1),
    base=st.sampled_from([2, 3, 8]),
)
def test_optimized_boundary_proof_round_trips(value, alpha, base):
    assume(value < alpha)
    scheme = OptimizedChainScheme(_WIDTH, "upper", base=base)
    total = _WIDTH - value - 1
    delta_c = _WIDTH - alpha
    assist = scheme.boundary_proof(value, total, delta_c)
    assert scheme.recompute_from_boundary(delta_c, assist) == scheme.commitment(value, total)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    value=st.integers(min_value=0, max_value=250),
    alpha=st.integers(min_value=1, max_value=255),
)
def test_conceptual_and_optimized_agree_on_provability(value, alpha):
    """Both schemes accept exactly the claims that are true."""
    width = 256
    conceptual = ConceptualChainScheme(width, "upper")
    optimized = OptimizedChainScheme(width, "upper", base=2)
    total = width - value - 1
    delta_c = width - alpha
    claim_true = value < alpha
    for scheme in (conceptual, optimized):
        if claim_true:
            assist = scheme.boundary_proof(value, total, delta_c)
            assert scheme.recompute_from_boundary(delta_c, assist) == (
                scheme.commitment(value, total)
            )
        else:
            try:
                scheme.boundary_proof(value, total, delta_c)
                raised = False
            except Exception:
                raised = True
            assert raised


# ---------------------------------------------------------------------------
# Merkle trees
# ---------------------------------------------------------------------------


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40))
def test_merkle_every_leaf_has_valid_proof(leaves):
    tree = MerkleTree(leaves)
    for index, payload in enumerate(leaves):
        proof = tree.prove(index)
        assert MerkleTree.verify_against_root(payload, proof, tree.root)
        assert MerkleTree.root_from_payload(payload, proof) == tree.root


@settings(max_examples=50)
@given(
    st.lists(st.binary(min_size=0, max_size=32), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=29),
    st.binary(min_size=1, max_size=32),
)
def test_merkle_tampered_leaf_never_verifies(leaves, index, replacement):
    assume(index < len(leaves))
    assume(replacement != leaves[index])
    tree = MerkleTree(leaves)
    proof = tree.prove(index)
    assert not MerkleTree.verify_against_root(replacement, proof, tree.root)


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=0, max_size=32), min_size=1, max_size=40))
def test_merkle_root_from_leaf_digests_matches(leaves):
    tree = MerkleTree(leaves)
    digests = [MerkleTree.leaf_digest_of(payload) for payload in leaves]
    assert MerkleTree.root_from_leaf_digests(digests) == tree.root


# ---------------------------------------------------------------------------
# B+-tree
# ---------------------------------------------------------------------------


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=300),
    fanout=st.integers(min_value=3, max_value=32),
)
def test_btree_iterates_in_sorted_order(keys, fanout):
    tree = BPlusTree(fanout=fanout)
    for key in keys:
        tree.insert(key, key * 3)
    assert tree.keys() == sorted(keys)
    assert len(tree) == len(keys)
    for key in keys:
        assert tree.search(key) == key * 3


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=5_000), unique=True, min_size=1, max_size=200
    ),
    bounds=st.tuples(
        st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=5_000)
    ),
)
def test_btree_range_search_matches_filter(keys, bounds):
    low, high = min(bounds), max(bounds)
    tree = BPlusTree(fanout=16)
    for key in keys:
        tree.insert(key, None)
    expected = sorted(k for k in keys if low <= k <= high)
    assert [k for k, _ in tree.range_search(low, high)] == expected


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

_SCHEMA = Schema.build(
    "items",
    [
        Attribute("key", AttributeType.INTEGER, domain=KeyDomain(0, 100_000)),
        Attribute("payload", AttributeType.STRING),
    ],
    key="key",
)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(
        st.integers(min_value=1, max_value=99_999), unique=True, min_size=1, max_size=100
    ),
    bounds=st.tuples(
        st.integers(min_value=1, max_value=99_999),
        st.integers(min_value=1, max_value=99_999),
    ),
)
def test_relation_range_scan_matches_filter(keys, bounds):
    low, high = min(bounds), max(bounds)
    relation = Relation.from_rows(
        _SCHEMA, [{"key": key, "payload": f"p{key}"} for key in keys]
    )
    expected = sorted(k for k in keys if low <= k <= high)
    assert [record.key for record in relation.range_scan(low, high)] == expected


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(
        st.integers(min_value=1, max_value=99_999), unique=True, min_size=2, max_size=60
    ),
    data=st.data(),
)
def test_relation_insert_delete_preserves_order(keys, data):
    relation = Relation.from_rows(
        _SCHEMA, [{"key": key, "payload": "x"} for key in keys[:-1]]
    )
    relation.insert({"key": keys[-1], "payload": "x"})
    victim_key = data.draw(st.sampled_from(keys))
    victim = next(record for record in relation if record.key == victim_key)
    relation.delete(victim)
    assert relation.keys() == sorted(set(keys) - {victim_key})


# ---------------------------------------------------------------------------
# Wire scalars: WireReader.scalar inlines the int / str / bytes tags
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False),
    st.text(max_size=24),  # full code-point range, non-BMP included
    st.binary(max_size=24),
)


def _flip(payload: bytes, index: int, mask: int) -> bytes:
    index %= len(payload)
    return payload[:index] + bytes((payload[index] ^ mask,)) + payload[index + 1 :]


#: Payloads for the differential test: raw noise, a valid tag over noise
#: (invalid UTF-8, malformed floats), the integer shapes the inline path must
#: hand to the strict decoder (bad sign byte, leading zeros, negative zero, no
#: magnitude), and one-byte mutations of valid encodings.
_SCALAR_PAYLOADS = st.one_of(
    st.binary(max_size=48),
    st.builds(
        lambda tag, body: tag + body,
        st.sampled_from([b"N", b"B", b"I", b"F", b"S", b"Y"]),
        st.binary(max_size=24),
    ),
    st.builds(
        lambda sign, zeros, magnitude: b"I" + bytes((sign,)) + bytes(zeros) + magnitude,
        st.sampled_from([0, 1, 2, 0xFF]),
        st.integers(min_value=0, max_value=2),
        st.binary(max_size=8),
    ),
    st.builds(
        _flip,
        _SCALARS.map(encode_value),
        st.integers(min_value=0),
        st.integers(min_value=1, max_value=255),
    ),
)


@settings(max_examples=150)
@given(
    st.lists(st.text(max_size=12), max_size=6, unique=True).flatmap(
        lambda columns: st.lists(
            st.fixed_dictionaries({name: _SCALARS for name in columns}), max_size=6
        )
    )
)
def test_wire_rows_of_arbitrary_scalars_round_trip(rows):
    """Rows of one answer share their columns: named once, then values."""
    response = QueryResponse(rows=tuple(rows), proof=None)
    blob = encode(response)
    decoded = decode(blob)
    assert decoded == response
    # Re-encoding is type-sensitive where ``==`` is not (True vs 1, -0.0 vs 0.0).
    assert encode(decoded) == blob
    if rows:  # a row with one column more or less is refused at encode
        ragged = dict(rows[-1])
        if ragged:
            ragged.popitem()
        else:
            ragged["extra"] = None
        with pytest.raises(ValueError, match="share their columns"):
            encode(QueryResponse(rows=tuple(rows) + (ragged,), proof=None))


@settings(max_examples=400)
@given(_SCALAR_PAYLOADS)
def test_wire_scalar_fast_path_agrees_with_decode_value(payload):
    """The inline tags accept exactly decode_value's language, with its values."""
    try:
        expected = decode_value(payload)
    except ValueError:
        expected = ValueError
    reader = WireReader(len(payload).to_bytes(4, "big") + payload)
    try:
        value = reader.scalar()
    except WireFormatError as error:
        assert error.reason == "bad-scalar"
        assert expected is ValueError
        return
    assert reader.remaining == 0
    assert expected is not ValueError
    assert type(value) is type(expected)
    # Equality of canonical encodings: exact for NaN and signed zeros too.
    assert encode_value(value) == encode_value(expected)
