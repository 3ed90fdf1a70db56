"""Shared environment for the net-layer tests.

One DO, one SP with three tables (equality/range target ``docs`` plus a
join pair ``R``/``S``), one registered analyst user — and the known
ground truth for every query kind, so fault-injection tests can assert
that a convergent result is *exactly* the truth.
"""

import random
from dataclasses import dataclass, replace

import pytest

from repro.abe.cpabe import CpAbeScheme
from repro.abe.hybrid import encrypt_for_roles
from repro.codec import encode_bytes, encode_point
from repro.core.messages import SPServer, decode_response, encode_response
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser
from repro.crypto import simulated
from repro.index.boxes import Domain
from repro.net import ResilientSPServer, Transport
from repro.net.transport import frame, unframe
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


@dataclass
class NetEnv:
    rng: random.Random
    group: object
    owner: DataOwner
    server: SPServer
    hardened: ResilientSPServer
    user: QueryUser
    truth: dict


@pytest.fixture(scope="module")
def env():
    rng = random.Random(7100)
    group = simulated()
    universe = RoleUniverse(["analyst", "manager"])
    owner = DataOwner(group, universe, rng=rng)
    docs = Dataset(Domain.of((0, 31)))
    docs.add(Record((4,), b"forecast", parse_policy("analyst or manager")))
    docs.add(Record((11,), b"salaries", parse_policy("manager")))
    docs.add(Record((23,), b"minutes", parse_policy("analyst")))
    ds_r = Dataset(Domain.of((0, 15)))
    ds_s = Dataset(Domain.of((0, 15)))
    ds_r.add(Record((3,), b"r3", parse_policy("analyst")))
    ds_s.add(Record((3,), b"s3", parse_policy("analyst")))
    ds_r.add(Record((9,), b"r9", parse_policy("manager")))
    provider = owner.outsource({"docs": docs, "R": ds_r, "S": ds_s})
    server = SPServer(provider, rng=rng)
    hardened = ResilientSPServer(server)
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    truth = {
        "equality": [b"forecast"],
        "range": [b"forecast", b"minutes"],
        "join": [(b"r3", b"s3")],
    }
    return NetEnv(
        rng=rng, group=group, owner=owner, server=server,
        hardened=hardened, user=user, truth=truth,
    )


def run_query(client, kind: str):
    """Issue one query of ``kind`` and normalize the result for comparison."""
    if kind == "equality":
        return sorted(r.value for r in client.query_equality("docs", (4,)))
    if kind == "range":
        return sorted(r.value for r in client.query_range("docs", (0,), (31,)))
    if kind == "join":
        return sorted((p.left.value, p.right.value) for p in client.query_join("R", "S", (0,), (15,)))
    raise AssertionError(kind)


#: Sealed VO payloads a Byzantine SP can produce (it seals with the public
#: CP-ABE key): one entry whose table tag is not UTF-8, and one accessible
#: record whose policy string does not parse.
NON_UTF8_TABLE_VO = (1).to_bytes(4, "big") + b"\x01" + encode_bytes(b"\xff\xfe")
UNPARSABLE_POLICY_VO = (
    (1).to_bytes(4, "big") + b"\x01" + encode_bytes(b"") + encode_point((4,))
    + encode_bytes(b"forecast") + encode_bytes(b"analyst and (")
)


class ResealTransport(Transport):
    """A Byzantine SP: swaps every sealed VO for ``payload`` sealed under
    ``roles`` with the public CP-ABE key; other frames pass through."""

    def __init__(self, inner, env, payload: bytes, roles=("analyst",)):
        self.inner = inner
        self.env = env
        self.payload = payload
        self.roles = roles

    def round_trip(self, request_frame):
        request_id, body = unframe(self.inner.round_trip(request_frame))
        if body[:4] != b"RSP\x01":
            return frame(request_id, body)
        response = decode_response(self.env.group, body)
        if response.envelope is None:
            return frame(request_id, body)
        envelope = encrypt_for_roles(
            CpAbeScheme(self.env.group), self.env.server.provider.cpabe_public,
            self.roles, self.payload, random.Random(1),
        )
        return frame(request_id, encode_response(replace(response, envelope=envelope)))
