"""Surviving an unreliable SP link: retries, deadlines, circuit breaking.

The zero-knowledge protocol assumes bytes arrive; a deployment cannot.
This example runs the resilient client/server stack (``repro.net``,
documented in docs/OPERATIONS.md) against a transport that corrupts
roughly 30% of exchanges:

1. the DO outsources a table; the SP answers behind a hardened frame
   loop that turns every per-request failure into a typed error frame;
2. a :class:`FaultyTransport` truncates or bit-flips responses at seeded
   random; the client retries with exponential backoff and converges to
   a *verified* result every time;
3. a saturating adversary tampers *well-formed* responses — transport
   checks cannot see it, but verification catches every forgery.

Everything is seeded and runs on a fake clock, so the output — including
the retry counts — is deterministic.

Run:  python examples/resilient_client.py
"""

import random

from repro.core import DataOwner, Dataset, QueryUser, Record
from repro.core.messages import SPServer
from repro.crypto import simulated
from repro.errors import ReproError
from repro.index import Domain
from repro.net import (
    FakeClock,
    FaultyTransport,
    LoopbackTransport,
    ResilientClient,
    ResilientSPServer,
    RetryPolicy,
)
from repro.policy import RoleUniverse, parse_policy

rng = random.Random(1618)
group = simulated()
universe = RoleUniverse(["trader", "compliance"])

# -- 1. outsource and stand up the hardened SP -------------------------------
ledger = Dataset(Domain.of((0, 63)))
for day in (3, 17, 29, 41, 58):
    policy = parse_policy("trader" if day % 2 else "trader and compliance")
    ledger.add(Record((day,), b"trades-day-%d" % day, policy))
owner = DataOwner(group, universe, rng=rng)
hardened = ResilientSPServer(SPServer(owner.outsource({"ledger": ledger}), rng=rng))
user = QueryUser(group, universe, owner.register_user(["trader"]))

# -- 2. a link that corrupts ~30% of exchanges -------------------------------
clock = FakeClock()
flaky = FaultyTransport(
    LoopbackTransport(hardened.handle_frame),
    rng=random.Random(777),
    rates={"truncate": 0.15, "bitflip": 0.15},
    clock=clock,
)
client = ResilientClient(
    user, flaky,
    policy=RetryPolicy(max_attempts=8, deadline=60.0),
    clock=clock, rng=random.Random(99),
)

expected = sorted(b"trades-day-%d" % d for d in (3, 17, 29, 41, 58) if d % 2)
for i in range(12):
    records = client.query_range("ledger", (0,), (63,), encrypt=False)
    if sorted(r.value for r in records) != expected:
        raise SystemExit("BUG: verified result differs from ground truth")
stats = client.counters
print(f"[client] {stats.requests} queries verified over a lossy link: "
      f"{stats.attempts} attempts, {stats.attempts - stats.requests} retries")
print(f"[client] faults survived: {stats.decode_failures} undecodable "
      f"responses, {stats.transport_errors} transport errors, "
      f"{stats.verification_failures} flips caught only by verification")
print(f"[link]   injected: {dict(flaky.injected)}")

# -- 3. an adversary that forges well-formed responses -----------------------
evil = FaultyTransport(
    LoopbackTransport(hardened.handle_frame),
    rng=random.Random(31337),
    rates={"tamper": 1.0},
    group=group,
    clock=clock,
)
victim = ResilientClient(
    user, evil,
    policy=RetryPolicy(max_attempts=4, deadline=60.0),
    clock=clock, rng=random.Random(5),
)
try:
    victim.query_range("ledger", (0,), (63,), encrypt=False)
    raise SystemExit("BUG: a tampered response was accepted as verified")
except ReproError as exc:
    print(f"[client] every forged response rejected "
          f"({victim.counters.verification_failures} verification failures): "
          f"{type(exc).__name__}")
print("[client] availability degraded; soundness never did")
