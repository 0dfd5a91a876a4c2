"""Shared fixtures for the test suite.

RSA key generation is by far the slowest primitive, so a single 512-bit key
pair is generated once per session and shared by every fixture that needs a
signature scheme.  512-bit keys are cryptographically obsolete but exercise
exactly the same code paths as the 1024-bit default.
"""

from __future__ import annotations

import pytest

from repro.core.owner import DataOwner
from repro.core.polynomial import DEFAULT_BASE
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.crypto.signature import SignatureScheme, rsa_scheme
from repro.db import workload
from repro.db.access_control import add_visibility_columns
from repro.db.schema import KeyDomain


TEST_KEY_BITS = 512


@pytest.fixture(scope="session")
def signature_scheme() -> SignatureScheme:
    """One RSA signature scheme shared by the whole session."""
    return rsa_scheme(bits=TEST_KEY_BITS)


@pytest.fixture(scope="session")
def forged_scheme() -> SignatureScheme:
    """A *different* key pair, for forged-signature tests (shared, read-only)."""
    return rsa_scheme(bits=TEST_KEY_BITS)


@pytest.fixture(scope="session")
def owner(signature_scheme) -> DataOwner:
    """A data owner using the shared key and the Section 5.1 digests at the
    shipped base (``DEFAULT_BASE``)."""
    return DataOwner(signature_scheme=signature_scheme, base=DEFAULT_BASE)


@pytest.fixture(scope="session")
def figure1_policy():
    """The HR manager / HR executive policy of Figure 1."""
    return workload.figure1_policy()


@pytest.fixture(scope="session")
def figure1_relation(figure1_policy):
    """The Figure 1 employee table, augmented with visibility columns."""
    return add_visibility_columns(workload.figure1_employee_relation(), figure1_policy)


@pytest.fixture(scope="session")
def figure1_database(owner, figure1_relation):
    """The Figure 1 table published (signed) by the shared owner."""
    return owner.publish_database({"employees": figure1_relation})


@pytest.fixture(scope="session")
def figure1_publisher(figure1_database, figure1_policy) -> Publisher:
    return Publisher(figure1_database.relations, policy=figure1_policy)


@pytest.fixture(scope="session")
def figure1_verifier(figure1_database, figure1_policy) -> ResultVerifier:
    return ResultVerifier(figure1_database.manifests, policy=figure1_policy)


@pytest.fixture(scope="session")
def salary_domain() -> KeyDomain:
    return KeyDomain(0, 100_000)


@pytest.fixture(scope="session")
def employees_100(owner):
    """A 100-row random employee table, published once for read-only tests."""
    relation = workload.generate_employees(100, seed=42, photo_bytes=16)
    return relation, owner.publish_relation(relation)


@pytest.fixture(scope="session")
def customers_orders(owner):
    """Customers/orders pair (PK-FK) published by the shared owner."""
    customers, orders = workload.generate_customers_and_orders(25, 80, seed=5)
    database = owner.publish_database({"customers": customers, "orders": orders})
    return customers, orders, database
