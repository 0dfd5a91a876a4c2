"""Unit tests for the Merkle hash tree and its verification objects."""

import pytest

from repro.crypto.hashing import HASH_COUNTER, HashFunction, default_hash
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root


def _leaves(count):
    return [f"value-{i}".encode() for i in range(count)]


class TestConstruction:
    def test_single_leaf_tree(self):
        tree = MerkleTree([b"only"])
        assert tree.size == 1
        assert tree.height == 0
        assert tree.root == tree.leaf_digest(0)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 7, 8, 9, 16, 33])
    def test_root_changes_with_any_leaf(self, count):
        leaves = _leaves(count)
        baseline = MerkleTree(leaves).root
        for index in range(count):
            mutated = list(leaves)
            mutated[index] = b"tampered"
            assert MerkleTree(mutated).root != baseline

    def test_root_depends_on_leaf_order(self):
        leaves = _leaves(4)
        assert MerkleTree(leaves).root != MerkleTree(list(reversed(leaves))).root

    def test_leaf_and_node_domains_are_separated(self):
        # A single leaf equal to the concatenation of two digests must not
        # collide with the internal node over those digests.
        inner = MerkleTree(_leaves(2))
        forged = MerkleTree([inner._levels[0][0] + inner._levels[0][1]])
        assert forged.root != inner.root

    @pytest.mark.parametrize("size", range(1, 18))
    def test_merkle_root_helper(self, size):
        """The tree-less fold: same root, same hash count, for every shape."""
        leaves = _leaves(size)
        start = HASH_COUNTER.count
        tree = MerkleTree(leaves)
        tree_hashes = HASH_COUNTER.count - start
        assert merkle_root(leaves) == tree.root
        assert HASH_COUNTER.count - start == 2 * tree_hashes

    def test_merkle_root_helper_refuses_no_leaves(self):
        with pytest.raises(ValueError):
            merkle_root([])

    def test_custom_hash_function(self):
        leaves = _leaves(3)
        assert MerkleTree(leaves, HashFunction("sha1")).root != MerkleTree(leaves).root

    @pytest.mark.parametrize("count,expected_height", [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (9, 4)])
    def test_height(self, count, expected_height):
        assert MerkleTree(_leaves(count)).height == expected_height


class TestProofs:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13, 21])
    def test_every_leaf_verifies(self, count):
        leaves = _leaves(count)
        tree = MerkleTree(leaves)
        for index, payload in enumerate(leaves):
            proof = tree.prove(index)
            assert tree.verify(payload, proof)
            assert MerkleTree.verify_against_root(payload, proof, tree.root)

    def test_wrong_payload_rejected(self):
        leaves = _leaves(8)
        tree = MerkleTree(leaves)
        proof = tree.prove(3)
        assert not tree.verify(b"not-the-leaf", proof)

    def test_wrong_position_rejected(self):
        leaves = _leaves(8)
        tree = MerkleTree(leaves)
        assert not tree.verify(leaves[3], tree.prove(4))

    def test_wrong_root_rejected(self):
        leaves = _leaves(8)
        tree = MerkleTree(leaves)
        proof = tree.prove(0)
        assert not MerkleTree.verify_against_root(leaves[0], proof, b"\x00" * 32)

    def test_out_of_range_index_rejected(self):
        tree = MerkleTree(_leaves(4))
        with pytest.raises(IndexError):
            tree.prove(4)

    def test_proof_size_is_logarithmic(self):
        tree = MerkleTree(_leaves(256))
        proof = tree.prove(100)
        assert proof.digest_count == 8
        assert proof.size_bytes(32) == 8 * 32

    def test_root_from_payload(self):
        leaves = _leaves(9)
        tree = MerkleTree(leaves)
        for index, payload in enumerate(leaves):
            proof = tree.prove(index)
            assert MerkleTree.root_from_payload(payload, proof) == tree.root

    def test_root_from_proof_with_leaf_digest(self):
        leaves = _leaves(6)
        tree = MerkleTree(leaves)
        proof = tree.prove(2)
        assert MerkleTree.root_from_proof(tree.leaf_digest(2), proof) == tree.root


class TestLeafDigestHelpers:
    def test_leaf_digest_of_matches_tree(self):
        leaves = _leaves(5)
        tree = MerkleTree(leaves)
        for index, payload in enumerate(leaves):
            assert MerkleTree.leaf_digest_of(payload) == tree.leaf_digest(index)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 6, 11, 17])
    def test_root_from_leaf_digests_matches_tree(self, count):
        leaves = _leaves(count)
        tree = MerkleTree(leaves)
        digests = [MerkleTree.leaf_digest_of(payload) for payload in leaves]
        assert MerkleTree.root_from_leaf_digests(digests) == tree.root

    def test_root_from_leaf_digests_rejects_empty(self):
        with pytest.raises(ValueError):
            MerkleTree.root_from_leaf_digests([])

    def test_projection_use_case(self):
        # The verifier replaces some payloads with digests supplied by the
        # publisher: the reconstructed root must match.
        leaves = _leaves(6)
        tree = MerkleTree(leaves)
        digests = []
        for index, payload in enumerate(leaves):
            if index % 2 == 0:
                digests.append(MerkleTree.leaf_digest_of(payload))  # revealed
            else:
                digests.append(tree.leaf_digest(index))  # provided by publisher
        assert MerkleTree.root_from_leaf_digests(digests) == tree.root
