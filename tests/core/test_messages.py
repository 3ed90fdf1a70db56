"""Tests for the wire protocol (requests, responses, envelopes, server)."""

import random

import pytest

from repro.abe.cpabe import CpAbeScheme
from repro.abe.hybrid import encrypt_for_roles
from repro.codec import Reader
from repro.core.messages import (
    QueryRequest,
    SPServer,
    decode_envelope,
    decode_response,
    encode_envelope,
    encode_response,
)
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto import simulated
from repro.errors import DeserializationError, WorkloadError
from repro.index.boxes import Domain
from repro.net import LoopbackTransport, ResilientClient, ResilientSPServer
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


@pytest.fixture(scope="module")
def env():
    rng = random.Random(2020)
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 31)))
    ds.add(Record((4,), b"forecast", parse_policy("analyst or manager")))
    ds.add(Record((11,), b"salaries", parse_policy("manager")))
    ds_r = Dataset(Domain.of((0, 15)))
    ds_s = Dataset(Domain.of((0, 15)))
    ds_r.add(Record((3,), b"r3", parse_policy("analyst")))
    ds_s.add(Record((3,), b"s3", parse_policy("analyst")))
    provider = owner.outsource({"docs": ds, "R": ds_r, "S": ds_s})
    server = SPServer(provider, rng=rng)
    user = QueryUser(simulated(), universe, owner.register_user(["analyst"]))
    return rng, owner, server, user


def test_request_roundtrip():
    req = QueryRequest(
        kind="range", table="docs", lo=(0,), hi=(31,),
        roles=frozenset({"analyst"}), encrypt=True,
    )
    restored = QueryRequest.from_bytes(req.to_bytes())
    assert restored == req


def test_request_rejects_garbage():
    with pytest.raises(DeserializationError):
        QueryRequest.from_bytes(b"nope")
    req = QueryRequest(kind="equality", table="t", lo=(1,), hi=(1,),
                       roles=frozenset())
    with pytest.raises(DeserializationError):
        QueryRequest.from_bytes(req.to_bytes() + b"\x00")
    with pytest.raises(WorkloadError):
        QueryRequest(kind="dream", table="t", lo=(1,), hi=(1,),
                     roles=frozenset()).to_bytes()


def test_envelope_roundtrip(env):
    rng, owner, server, user = env
    scheme = CpAbeScheme(simulated())
    keys = scheme.setup(rng)
    envelope = encrypt_for_roles(scheme, keys.public, ["analyst"], b"payload", rng)
    data = encode_envelope(envelope)
    restored = decode_envelope(simulated(), Reader(data))
    assert restored.body == envelope.body
    assert restored.header.policy == envelope.header.policy
    sk = scheme.keygen(keys, ["analyst"], rng)
    from repro.abe.hybrid import decrypt_envelope

    assert decrypt_envelope(scheme, sk, restored) == b"payload"


def remote_client(server, user):
    """The query client over an in-process loopback of ``server``."""
    return ResilientClient(user, LoopbackTransport(ResilientSPServer(server).handle_frame))


def test_range_over_wire_encrypted(env):
    rng, owner, server, user = env
    remote = remote_client(server, user)
    records = remote.query_range("docs", (0,), (31,))
    assert sorted(r.value for r in records) == [b"forecast"]


def test_equality_over_wire_plain(env):
    rng, owner, server, user = env
    remote = remote_client(server, user)
    assert [r.value for r in remote.query_equality("docs", (4,), encrypt=False)] == [b"forecast"]
    assert remote.query_equality("docs", (11,)) == []  # hidden
    assert remote.query_equality("docs", (20,)) == []  # absent


def test_join_over_wire(env):
    rng, owner, server, user = env
    remote = remote_client(server, user)
    pairs = remote.query_join("R", "S", (0,), (15,))
    assert [(p.left.value, p.right.value) for p in pairs] == [(b"r3", b"s3")]


def test_response_roundtrip_both_modes(env):
    rng, owner, server, user = env
    for encrypt in (False, True):
        req = QueryRequest(
            kind="range", table="docs", lo=(0,), hi=(31,),
            roles=user.roles, encrypt=encrypt,
        )
        data = server.handle(req.to_bytes())
        response = decode_response(simulated(), data)
        # Re-encode: stable bytes.
        assert encode_response(response) == data
        assert sorted(r.value for r in user.verify(response)) == [b"forecast"]


def test_server_rejects_unknown_table(env):
    rng, owner, server, user = env
    req = QueryRequest(kind="range", table="nope", lo=(0,), hi=(1,),
                       roles=user.roles)
    with pytest.raises(WorkloadError):
        server.handle(req.to_bytes())


def test_response_rejects_garbage(env):
    with pytest.raises(DeserializationError):
        decode_response(simulated(), b"garbage")
