"""The consolidated configuration/client API: configs and QuerySpec.

Two api_redesign contracts live here:

* :class:`~repro.service.ServerConfig` / :class:`~repro.service.StorageConfig`
  are frozen, validate on construction, and are the one way tunables reach
  :class:`~repro.service.PublicationServer` and
  :func:`~repro.storage.open_publication_storage` — the historical keyword
  arguments are gone;
* :class:`~repro.service.QuerySpec` is the single value object behind
  :meth:`~repro.service.VerifyingClient.execute` /
  :meth:`~repro.service.VerifyingClient.execute_many`, whatever the query's
  shape.
"""

import dataclasses

import pytest

from repro.db.query import Conjunction, JoinQuery, Query, RangeCondition
from repro.service import (
    PublicationServer,
    QuerySpec,
    ServerConfig,
    StorageConfig,
    VerifyingClient,
    build_demo_world,
)
from repro.storage import open_publication_storage

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)
ORDERS_JOIN = JoinQuery("orders", "customers", "customer_id", "customer_id")


@pytest.fixture(scope="module")
def demo_world():
    return build_demo_world(key_bits=512, seed=11)


@pytest.fixture(scope="module")
def live_server(demo_world):
    with PublicationServer(
        demo_world.router, config=ServerConfig(max_workers=4)
    ) as server:
        yield server


@pytest.fixture()
def client(live_server):
    host, port = live_server.address
    with VerifyingClient(host, port) as active:
        yield active


# -- config validation ---------------------------------------------------------


def test_server_config_validates_on_construction():
    with pytest.raises(ValueError):
        ServerConfig(port=70_000)
    with pytest.raises(ValueError):
        ServerConfig(max_workers=0)
    with pytest.raises(ValueError):
        ServerConfig(max_pipelined_frames=0)


def test_demo_server_cli_defaults_are_the_dataclass_defaults(monkeypatch):
    """``python -m repro.service`` with no flags serves under ``ServerConfig()``.

    The CLI once defaulted ``--max-workers`` to 64 against the dataclass's 8,
    so the demo server and an in-process server capped connections differently.
    """
    from repro.service import server as server_module

    class Captured(Exception):
        pass

    def capture(router, storage=None, faults=None, config=None):
        raise Captured(config)

    monkeypatch.setattr(server_module, "PublicationServer", capture)
    monkeypatch.setattr("repro.service.demo.build_demo_router", lambda **_: None)
    with pytest.raises(Captured) as caught:
        server_module._main([])
    assert caught.value.args[0] == ServerConfig()
    with pytest.raises(SystemExit):
        server_module._main(["--worker-processes", "2"])


def test_storage_config_validates_on_construction():
    with pytest.raises(ValueError):
        StorageConfig(backend="postgres")
    with pytest.raises(ValueError):
        StorageConfig(fsync="sometimes")
    with pytest.raises(ValueError):
        StorageConfig(checkpoint_every=-1)


def test_configs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ServerConfig().max_workers = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        StorageConfig().backend = "sqlite"


def test_legacy_server_kwargs_are_a_type_error(demo_world):
    with pytest.raises(TypeError):
        PublicationServer(demo_world.router, port=0)


# -- StorageConfig consumption -------------------------------------------------


def test_storage_config_drives_open_publication_storage(tmp_path, demo_world):
    config = StorageConfig(
        root=str(tmp_path / "pub"),
        fsync="off",
        checkpoint_every=3,
    )
    router, storage = open_publication_storage(
        "", lambda: demo_world.router, config=config
    )
    try:
        assert storage.fsync_policy == "off"
        assert storage.checkpoint_every == 3
        assert storage.root == config.root
        assert "employees" in dict(router.listing())
    finally:
        storage.close()


# -- QuerySpec -----------------------------------------------------------------


def test_query_spec_rejects_non_queries():
    with pytest.raises(TypeError):
        QuerySpec(query="employees")


def test_query_spec_constructors():
    ranged = QuerySpec.range("employees", "salary", 1, 9, role="hr")
    assert not ranged.is_join and ranged.role == "hr"
    point = QuerySpec.point("employees", "salary", 5)
    (condition,) = point.query.where.conditions
    assert (condition.low, condition.high) == (5, 5)
    join = QuerySpec.join(ORDERS_JOIN)
    assert join.is_join


def test_execute_dispatches_on_query_shape(client):
    ranged = client.execute(QuerySpec(SALARY_RANGE))
    assert ranged.report.result_rows == len(ranged.rows) > 0
    joined = client.execute(QuerySpec.join(ORDERS_JOIN))
    assert joined.rows and joined.left_manifest_id != joined.right_manifest_id


def test_execute_many_matches_execute(client):
    specs = [QuerySpec(SALARY_RANGE), QuerySpec.range("employees", "salary", 50_000)]
    pipelined = client.execute_many(specs)
    single = [client.execute(spec) for spec in specs]
    assert [r.rows for r in pipelined] == [r.rows for r in single]
    assert [r.manifest_id for r in pipelined] == [r.manifest_id for r in single]


def test_execute_many_rejects_joins_and_mixed_options(client):
    with pytest.raises(ValueError, match="joins"):
        client.execute_many([QuerySpec.join(ORDERS_JOIN)])
    with pytest.raises(ValueError, match="share"):
        client.execute_many(
            [QuerySpec(query=SALARY_RANGE), QuerySpec(query=SALARY_RANGE, verify=False)]
        )
    assert client.execute_many([]) == []
