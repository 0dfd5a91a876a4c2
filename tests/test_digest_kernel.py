"""The single-pass Section 5.1 kernel against the slow reference oracle.

``tests/reference_digest.py`` rebuilds every artifact one representation at a
time with :mod:`hashlib` itself; ``OptimizedChainScheme`` walks each digit
chain once and reads everything off the walked chains.  Every byte either
produces must be the other's, for every base, width, namespace, hash and
memo setting — and the kernel's bookkeeping on ``HASH_COUNTER`` must equal
the number of ``hashlib`` calls it really makes.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from reference_digest import SENTINEL_LEAF, ReferenceOptimizedScheme
from repro.core import polynomial
from repro.core.digest import EntryAssist, OptimizedChainScheme
from repro.core.errors import CheatingAttemptError, VerificationError
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.crypto import hashing
from repro.crypto.hashing import HASH_COUNTER, HashFunction
from repro.crypto.merkle import MerkleTree
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.schema import KeyDomain

BASES = (2, 3, 5, 10)
WIDTHS = (8, 1000, 16386, 2**20, 2**32)
HASHES = ("sha256", "sha1", "md5")


def _pair(width, base, namespace="upper", hash_name="sha256", memoize=True):
    kernel = OptimizedChainScheme(
        width, namespace, base, HashFunction(hash_name), memoize=memoize
    )
    return kernel, ReferenceOptimizedScheme(width, namespace, base, hash_name)


def _assert_all_artifacts_identical(kernel, reference, value, total, delta_cs):
    committed = reference.commitment(value, total)
    assist = reference.entry_assist(value, total)
    # Twice: the second pass is served from the memo when there is one.
    for _ in range(2):
        assert kernel.commit(value, total) == (committed, assist.mht_root)
        assert kernel.recompute_from_value(value, total, assist) == committed
    assert reference.recompute_from_value(value, total, assist) == committed
    for delta_c in delta_cs:
        proof = reference.boundary_proof(value, total, delta_c)
        for _ in range(2):  # as above: the repeat is the memoised assist
            assert kernel.boundary_proof(value, total, delta_c) == proof
        assert kernel.recompute_from_boundary(delta_c, proof) == committed
        assert reference.recompute_from_boundary(delta_c, proof) == committed


@pytest.mark.parametrize("hash_name", HASHES)
@pytest.mark.parametrize("memoize", [True, False], ids=["memo", "no-memo"])
@pytest.mark.parametrize("namespace", ["upper", "lower"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("base", BASES)
def test_kernel_matches_reference(base, width, namespace, memoize, hash_name):
    """Seeded differential sweep: 240 configurations, 10 boundary claims each."""
    kernel, reference = _pair(width, base, namespace, hash_name, memoize)
    rng = random.Random(f"{base}/{width}/{namespace}/{hash_name}")
    canonical_proofs = 0
    for total in (0, width - 1, rng.randrange(width), rng.randrange(width)):
        value = rng.randrange(-5, width)
        delta_cs = {0, total, rng.randint(0, total)}
        _assert_all_artifacts_identical(kernel, reference, value, total, sorted(delta_cs))
        canonical_proofs += sum(
            polynomial.select_boundary_representation(
                total, delta_c, base, kernel.num_digits
            ).is_canonical
            for delta_c in delta_cs
        )
    assert canonical_proofs  # delta_c = 0 always selects the canonical form


@pytest.mark.parametrize("base", BASES)
def test_non_canonical_boundary_proofs_match(base):
    """Every borrow position gets selected somewhere: exhaustive at width 64."""
    width = 64
    kernel, reference = _pair(width, base)
    selected_indices = set()
    for total in range(width):
        for delta_c in range(total + 1):
            selected = polynomial.select_boundary_representation(
                total, delta_c, base, kernel.num_digits
            )
            if selected.is_canonical:
                continue
            selected_indices.add(selected.index)
            proof = reference.boundary_proof(total, total, delta_c)
            assert kernel.boundary_proof(total, total, delta_c) == proof
            assert proof.mht_proof.leaf_index == selected.index
            assert kernel.recompute_from_boundary(delta_c, proof) == kernel.commitment(
                total, total
            )
    assert selected_indices == set(range(kernel.num_digits - 1))


@pytest.mark.parametrize("base", BASES)
def test_representation_path_must_spell_its_index_and_size(base):
    """The root is rebuilt from the siblings alone, so a proof whose
    ``leaf_index`` or ``tree_size`` is not what they spell is refused."""
    width = 64
    kernel, _ = _pair(width, base)
    leaves = kernel.num_digits - 1
    for total in range(width):
        for delta_c in range(total + 1):
            proof = kernel.boundary_proof(total, total, delta_c)
            if proof.used_canonical:
                continue
            path = proof.mht_proof
            assert path.tree_size == leaves and path.spells_its_leaf()
            forged = [replace(path, tree_size=size) for size in (leaves + 1, 239)]
            forged += [replace(path, leaf_index=index) for index in range(leaves)]
            for bad in forged:
                if bad == path:
                    continue
                with pytest.raises(VerificationError) as rejection:
                    kernel.recompute_from_boundary(delta_c, replace(proof, mht_proof=bad))
                assert rejection.value.reason == "representation-path-mismatch"
            break


class TestNamedEdgeCases:
    def test_invalid_representation_drops_its_borrow_position(self):
        """5055 in base 10: borrowing from the zero hundreds digit is invalid."""
        kernel, reference = _pair(10_000, 10)
        representation = polynomial.preferred_representation(5055, 10, 4, 1)
        assert representation.dropped_position == 2
        digits, chains = kernel._walk(7, 5055)
        leaves = kernel._representation_leaves(digits, chains)
        assert leaves == reference.representation_leaves(7, 5055)
        # Spelled out: positions 0, 1 raised, position 2 absent, position 3 canonical.
        expected = HashFunction("sha256").combine(
            reference._digit_digest(7, 5 + 10, 0),
            reference._digit_digest(7, 5 + 9, 1),
            reference._digit_digest(7, 5, 3),
        )
        assert leaves[1] == expected
        _assert_all_artifacts_identical(kernel, reference, 7, 5055, [0, 4999, 5055])

    @pytest.mark.parametrize("width,base", [(2, 2), (8, 10), (5, 5)])
    def test_single_digit_domain_commits_the_sentinel_leaf(self, width, base):
        kernel, reference = _pair(width, base)
        assert kernel.num_digits == 1
        root = MerkleTree([SENTINEL_LEAF], HashFunction("sha256")).root
        for total in range(width):
            assert kernel.commit(3, total)[1] == root
            _assert_all_artifacts_identical(
                kernel, reference, 3, total, range(total + 1)
            )

    @pytest.mark.parametrize("base", BASES)
    def test_total_zero(self, base):
        kernel, reference = _pair(1000, base)
        _assert_all_artifacts_identical(kernel, reference, 999, 0, [0])

    @pytest.mark.parametrize("base", BASES)
    def test_total_is_width_minus_one(self, base):
        kernel, reference = _pair(1000, base)
        _assert_all_artifacts_identical(kernel, reference, 0, 999, [0, 1, 500, 998, 999])

    @pytest.mark.parametrize("memoize", [True, False])
    def test_cheating_attempt_when_total_below_delta_c(self, memoize):
        kernel, reference = _pair(1000, 3, memoize=memoize)
        kernel.commitment(10, 400)  # a warm memo must not soften the refusal
        for scheme in (kernel, reference):
            with pytest.raises(CheatingAttemptError):
                scheme.boundary_proof(10, 400, 401)

    def test_total_beyond_the_domain_is_refused(self):
        kernel, _ = _pair(1000, 10)
        with pytest.raises(ValueError):
            kernel.commitment(1, 1000)
        with pytest.raises(ValueError):
            kernel.commitment(1, -1)

    @pytest.mark.parametrize("memoize", [True, False])
    def test_the_one_memo_is_the_verifiers(self, memoize):
        """A repeated entry verification costs one hash; the owner's walk is never remembered."""
        kernel, reference = _pair(16386, 2, memoize=memoize)
        assist = reference.entry_assist(5, 1234)
        committed = reference.commitment(5, 1234)

        def hashes(operation):
            start = HASH_COUNTER.count
            operation()
            return HASH_COUNTER.count - start

        first = hashes(lambda: kernel.recompute_from_value(5, 1234, assist))
        again = hashes(lambda: kernel.recompute_from_value(5, 1234, assist))
        assert again == (1 if memoize else first) and first > 15
        assert kernel.recompute_from_value(5, 1234, assist) == committed
        # The owner side walks afresh every time, memo or not.
        assert hashes(lambda: kernel.commitment(5, 1234)) == hashes(
            lambda: kernel.commitment(5, 1234)
        )
        assert kernel.commit(5, 1234) == (committed, assist.mht_root)


# -- hash accounting ------------------------------------------------------------------


@pytest.fixture()
def counted_hashlib(monkeypatch):
    """Count real hashlib constructions behind every HashFunction built inside."""
    calls = {"count": 0}
    resolve = hashing.resolve_hash_constructor

    def counting_resolve(name):
        constructor = resolve(name)

        def construct(data=b""):
            calls["count"] += 1
            return constructor(data)

        return construct

    monkeypatch.setattr(hashing, "resolve_hash_constructor", counting_resolve)
    return calls


@pytest.mark.parametrize("memoize", [True, False])
def test_kernel_counts_exactly_its_hashlib_calls(counted_hashlib, memoize):
    kernel, _ = _pair(16386, 2, memoize=memoize)
    start = HASH_COUNTER.count
    for value, total in [(1, 0), (2, 16385), (3, 9000)]:
        assist = EntryAssist(kernel.commit(value, total)[1])
        kernel.recompute_from_value(value, total, assist)
        for delta_c in sorted({0, total // 2, total}):
            before = HASH_COUNTER.count
            proof = kernel.boundary_proof(value, total, delta_c)
            first = HASH_COUNTER.count - before
            assert kernel.boundary_proof(value, total, delta_c) == proof
            # A memoised assist is handed back for no hash at all.
            assert HASH_COUNTER.count - before - first == (0 if memoize else first) and first > 15
            kernel.recompute_from_boundary(delta_c, proof)
    assert HASH_COUNTER.count - start == counted_hashlib["count"] > 0


def test_cold_verify_hash_operations_is_the_real_count(counted_hashlib, signature_scheme):
    """``VerificationReport.hash_operations`` against an independent count.

    The reference re-derives the client's chain work for the same answer with
    its own counter; the verifier's report must account for exactly the
    hashlib calls made while it ran.
    """
    relation = workload.generate_employees(40, seed=5, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    query = Query("employees", Conjunction((RangeCondition("salary", 20_000, 70_000),)))
    answer = Publisher({"employees": signed}).answer(query)
    assert len(answer.rows) > 5

    before = counted_hashlib["count"]
    report = ResultVerifier({"employees": signed.manifest}).verify(
        query, answer.rows, answer.proof
    )
    assert report.hash_operations == counted_hashlib["count"] - before

    # The chain share of that count, rebuilt by the oracle from the proof alone.
    domain = signed.manifest.domain
    upper = ReferenceOptimizedScheme(domain.width, "upper", signed.base)
    lower = ReferenceOptimizedScheme(domain.width, "lower", signed.base)
    for row, entry in zip(answer.rows, answer.proof.entries):
        key = row["salary"]
        upper.recompute_from_value(key, domain.upper - key - 1, entry.upper_assist)
        lower.recompute_from_value(key, key - domain.lower - 1, entry.lower_assist)
    upper.recompute_from_boundary(
        domain.upper - 20_000, answer.proof.lower_boundary.chain_boundary
    )
    lower.recompute_from_boundary(
        70_000 - domain.lower, answer.proof.upper_boundary.chain_boundary
    )
    chain_hashes = upper.hashes + lower.hashes
    assert 0 < chain_hashes < report.hash_operations
    warm = ResultVerifier({"employees": signed.manifest})
    warm.verify(query, answer.rows, answer.proof)
    again = warm.verify(query, answer.rows, answer.proof)
    # A warm verifier skips the per-entry canonical walks, and only those.
    skipped = report.hash_operations - again.hash_operations
    assert 0 < skipped < chain_hashes


# -- verifier schemes are keyed by what a digest depends on ---------------------------------


def test_verifier_schemes_survive_a_rotation_but_not_a_parameter_change(signature_scheme):
    relation = workload.generate_employees(8, seed=5, photo_bytes=8)
    manifest = SignedRelation(relation, signature_scheme).manifest
    verifier = ResultVerifier({"employees": manifest})
    schemes = verifier._chain_schemes(manifest)

    rotated = replace(manifest, sequence=manifest.sequence + 3)
    assert verifier._chain_schemes(rotated) is schemes

    other_base = replace(manifest, base=polynomial.DEFAULT_BASE + 1)
    assert verifier._chain_schemes(other_base) is not schemes
    assert verifier._chain_schemes(other_base)[0].base == polynomial.DEFAULT_BASE + 1

    schema = manifest.schema
    other_domain = replace(
        manifest,
        schema=replace(
            schema,
            attributes=tuple(
                replace(
                    attribute,
                    domain=KeyDomain(attribute.domain.lower, attribute.domain.upper + 1),
                )
                if attribute.name == schema.key
                else attribute
                for attribute in schema.attributes
            ),
        ),
    )
    assert other_domain.domain != manifest.domain
    assert verifier._chain_schemes(other_domain) is not schemes
    assert replace(manifest, hash_name="sha1") != manifest
    assert verifier._chain_schemes(replace(manifest, hash_name="sha1")) is not schemes


# -- the roots a publish leaves behind ------------------------------------------------


def _stored_metrics(tmp_path, signature_scheme, rows, via_dump):
    """A ``rows``-row stored chain over the bench schema, re-attached cold."""
    from repro.bench.scale import RELATION, _attach, _row_stream, metrics_schema
    from repro.db.relation import Relation
    from repro.storage.relstore import RelationStore, build_stored_chain, dump_publication
    from repro.wire.updates import ManifestRotated

    schema = metrics_schema(16_384)
    store = RelationStore(str(tmp_path / ("dump.db" if via_dump else "stream.db")), fsync="off")
    if via_dump:
        signed = SignedRelation(Relation.from_rows(schema, _row_stream(rows)), signature_scheme)
        rotation = ManifestRotated(signed.manifest, b"", signed.sign_rotation(b""))
        dump_publication(store, RELATION, signed, rotation)
    else:
        build_stored_chain(store, RELATION, schema, _row_stream(rows), signature_scheme)
    store.close()
    store = RelationStore(store.path, fsync="off")
    return store, _attach(store, schema, signature_scheme)


@pytest.mark.parametrize("via_dump", [False, True], ids=["streamed", "dumped"])
def test_stored_roots_are_the_reference_roots(tmp_path, signature_scheme, via_dump):
    """What ``entries.digest`` holds, against the oracle: both roots of sampled
    rows and of a row inserted later, and each delimiter's one root."""
    store, signed = _stored_metrics(tmp_path, signature_scheme, 60, via_dump)
    try:
        domain = signed.domain
        upper = ReferenceOptimizedScheme(domain.width, "upper", signed.base)
        lower = ReferenceOptimizedScheme(domain.width, "lower", signed.base)
        signed.insert_record({"metric_id": 9_000, "value": 1, "label": "late"})

        def reference_roots(key):
            return (
                upper.entry_assist(key, domain.upper - key - 1).mht_root,
                lower.entry_assist(key, key - domain.lower - 1).mht_root,
            )

        chain = store.load_entry_span(
            signed._name, signed._entry_identity(0), signed._entry_identity(62)
        )
        assert [row[:3] for row in chain] == [signed._entry_identity(i) for i in range(63)]
        for index in (1, 2, 17, 40, 60, 61):
            stored = chain[index][4]
            key = signed.entry(index).key
            assert (stored[:32], stored[32:64]) == reference_roots(key)
            assert stored[64:] == signed.relation[index - 1].attribute_root()
            assert signed.entry_assists(index) == tuple(map(EntryAssist, reference_roots(key)))
        left, right = chain[0][4], chain[62][4]
        span = domain.upper - domain.lower - 1
        assert left[:32] == upper.entry_assist(domain.lower, span).mht_root
        assert right[32:64] == lower.entry_assist(domain.upper, span).mht_root
        # ... and the g the server re-derives from them is the one the owner signed.
        assert signed.verify_internal_consistency()
    finally:
        store.close()


def test_cold_range_answer_hashes_at_the_boundaries_only(tmp_path, signature_scheme):
    """A first-touch 40-key range over a stored chain: two boundary proofs (a
    full walk each), the one chain digest each boundary entry ships beside its
    proof (a canonical walk: the lower chain below the range, the upper chain
    above it) and the fingerprint re-check of the faulted rows — nothing per
    matched entry, and no walk of a chain that is not shipped."""
    from repro.bench.scale import RELATION
    from repro.db.records import Record

    store, signed = _stored_metrics(tmp_path, signature_scheme, 84, via_dump=False)
    try:
        low, high = 23, 62
        query = Query(RELATION, Conjunction((RangeCondition("metric_id", low, high),)))
        start = HASH_COUNTER.count
        answer = Publisher({RELATION: signed}).answer(query)
        spent = HASH_COUNTER.count - start
        assert len(answer.rows) == 40

        domain = signed.domain
        upper, lower = signed.manifest.chain_schemes(memoize=False)
        start = HASH_COUNTER.count
        upper.boundary_proof(low - 1, domain.upper - low, domain.upper - low)
        lower.boundary_proof(high + 1, high - domain.lower, high - domain.lower)
        for scheme, key, total in (
            (lower, low - 1, low - 1 - domain.lower - 1),
            (upper, high + 1, domain.upper - (high + 1) - 1),
        ):
            scheme.recompute_from_value(key, total, EntryAssist(b"\0" * 32))
        for row in answer.rows:
            Record(signed.schema, row).fingerprint()
        at_the_boundaries = HASH_COUNTER.count - start
        assert spent == at_the_boundaries
        one_walk = ReferenceOptimizedScheme(domain.width, "upper", signed.base)
        one_walk.commitment(low, domain.upper - low - 1)
        assert spent < 40 * one_walk.hashes / 4
    finally:
        store.close()
