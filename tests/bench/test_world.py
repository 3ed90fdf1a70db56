"""The world builder: every topology its callers use serves the truth."""

import pathlib
import tempfile

import pytest

from repro.bench.world import build_world
from repro.net import ReplicatedClient, ResilientClient, ShardedClient

ROWS = (
    ((4,), b"forecast", "analyst or manager"),
    ((11,), b"salaries", "manager"),
    ((23,), b"minutes", "analyst"),
    ((30,), b"okrs", "analyst"),
    ((40,), b"roadmap", "analyst"),
)
DOMAIN = (0, 47)

#: id -> (shards, replicas, link, client class)
TOPOLOGIES = {
    "1x1-loopback": (0, 1, "loopback", ResilientClient),
    "3x1-loopback": (3, 1, "loopback", ShardedClient),
    "2x2-detached": (2, 2, "detached", ShardedClient),
    "1x3-chaos": (0, 3, "chaos", ReplicatedClient),
    "3x2-chaos": (3, 2, "chaos", ShardedClient),
}


def build(topology, seed=11):
    shards, replicas, link, _ = TOPOLOGIES[topology]
    return build_world(
        {"docs": ROWS}, DOMAIN, seed=seed, shards=shards, replicas=replicas,
        link=link,
    )


def answer(world):
    records = world.client.query_range("docs", (0,), (47,), encrypt=False)
    return sorted((tuple(r.key), r.value) for r in records)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_full_range_query_returns_exactly_the_truth(topology):
    world = build(topology)
    shards, replicas, _, client_class = TOPOLOGIES[topology]
    assert isinstance(world.client, client_class)
    assert len(world.endpoints) == max(shards, 1) * replicas
    assert answer(world) == sorted(world.truth("docs").items())
    assert [value for _, value in answer(world)] == \
        [b"forecast", b"minutes", b"okrs", b"roadmap"]


@pytest.mark.parametrize(
    "topology", [t for t, spec in TOPOLOGIES.items() if spec[2] == "chaos"]
)
def test_chaos_replicas_restart_from_snapshots_with_the_same_records(topology):
    world = build(topology)
    before = answer(world)
    servers = {name: ep.server for name, ep in world.endpoints.items()}
    for endpoint in world.endpoints.values():
        endpoint.crash()
    for endpoint in world.endpoints.values():
        endpoint.restart()
    for name, endpoint in world.endpoints.items():
        assert endpoint.restarts == 1
        assert endpoint.server is not servers[name]
    assert answer(world) == before


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_same_seed_same_world(topology):
    first, second = build(topology), build(topology)
    assert first.owner.mvk.to_bytes() == second.owner.mvk.to_bytes()
    assert list(first.endpoints) == list(second.endpoints)
    assert answer(first) == answer(second)
    assert build(topology, seed=12).owner.mvk.to_bytes() != \
        first.owner.mvk.to_bytes()


def test_journaled_tables_serve_their_epoch_token_across_restarts(
    monkeypatch, tmp_path,
):
    # Journals go to a fresh temporary directory; keep it in tmp_path.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    tables = {
        f"docs@p{t}": [row for row in ROWS if row[0][0] % 2 == t]
        for t in (0, 1)
    }
    world = build_world(
        tables, DOMAIN, seed=5, replicas=2, link="chaos", journal_limit=4096,
    )
    assert world.groups == {"docs@p0": ["p0r0", "p0r1"],
                            "docs@p1": ["p1r0", "p1r1"]}
    endpoint = world.endpoints["p1r1"]
    endpoint.restart()
    provider = endpoint.server.server.provider
    assert provider.freshness_token("docs@p1").epoch == 1
    assert endpoint.server.ingest.state_dir.startswith(str(tmp_path))
    for table, client in world.clients.items():
        records = client.query_range(table, (0,), (47,), encrypt=False)
        assert {tuple(r.key): r.value for r in records} == world.truth(table)
    assert list(tmp_path.iterdir()) == [pathlib.Path(world.journals.name)]
    world.close()
    assert list(tmp_path.iterdir()) == []


def test_sharded_world_rejects_several_tables():
    with pytest.raises(ValueError):
        build_world({"a": ROWS, "b": ROWS}, DOMAIN, seed=1, shards=2)
