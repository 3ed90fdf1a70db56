"""Replicated serving: failover, Byzantine quarantine, overload absorption.

The paper's SP is *untrusted*: VO verification tells the client, with
cryptographic certainty, when a replica forged its answer.  This example
wires that detector into a router.  Three replicas — every one
cold-started from the same snapshot blobs — serve a
:class:`ReplicatedClient` while a scripted chaos schedule misbehaves:

1. ``sp2`` forges every response from the start.  Its first answer
   fails verification and it is **quarantined** — evicted with
   ``reason="tamper"``, distinct from any transport failure;
2. ``sp0`` crashes mid-run, then restarts **from its snapshot** and
   rejoins the rotation;
3. an overload burst floods every replica's admission control: the
   servers shed with typed ``overloaded`` frames and a retry-after
   hint the client honors, so the burst costs waiting — never a
   wrong answer and never an evicted healthy replica.

Everything runs on a fake clock with seeded randomness: the output is
deterministic.  The load-bearing invariant is printed last — every
result the client returned was verified and equal to ground truth.

Run:  python examples/replicated_cluster.py
"""

from repro.bench.world import build_world
from repro.net import ChaosController, RetryPolicy, parse_schedule

SEED = 20260806

# -- 1. outsource once; three replicas cold-start from the snapshots --------
world = build_world(
    {"reports": [
        ((4,), b"forecast", "analyst or manager"),
        ((11,), b"salaries", "manager"),
        ((23,), b"minutes", "analyst"),
    ]},
    (0, 31), seed=SEED, replicas=3, link="chaos", max_in_flight=16,
    policy=RetryPolicy(max_attempts=8, base_delay=0.02, deadline=30.0),
    quarantine_window=1000.0, failure_threshold=3, reset_timeout=5.0,
)
client, endpoints, clock = world.client, world.endpoints, world.clock
truth = sorted(world.truth("reports").values())

# -- 2. the chaos script -----------------------------------------------------
controller = ChaosController(parse_schedule("""
    @0   tamper   sp2  rate=1.0     # the Byzantine replica
    @8   crash    sp0
    @12  restart  sp0               # cold start from snapshot blobs
    @18  overload *    load=32      # burst floods admission control
    @20  calm     *
"""), endpoints, clock=clock)

# -- 3. 30 virtual seconds of queries through all of it ----------------------
verified = 0
for i in range(30):
    for event in controller.tick():
        print(f"[chaos t={clock.now():4.1f}] {event.action} {event.target}")
    records = client.query_range("reports", (0,), (31,), encrypt=False)
    if sorted(r.value for r in records) != truth:
        raise SystemExit("BUG: a returned result differs from ground truth")
    verified += 1
    clock.advance(1.0)

stats = client.counters
print(f"[client] {verified}/30 queries returned verified, "
      f"{stats.failovers} failovers, {stats.overload_rejections} retry-after "
      f"waits honored")
for name, state in client.endpoints.items():
    snap = state.snapshot()
    print(f"[{name}]  attempts={snap['attempts']} "
          f"evictions={snap['evictions']} quarantined={snap['quarantined']}")
if not client.endpoints["sp2"].quarantined:
    raise SystemExit("BUG: the tampering replica escaped quarantine")
if client.endpoints["sp2"].evictions["tamper"] < 1:
    raise SystemExit("BUG: no tamper eviction recorded for sp2")
for name in ("sp0", "sp1"):
    if client.endpoints[name].evictions["tamper"]:
        raise SystemExit(f"BUG: honest replica {name} accused of tampering")
shed = sum(ep.server.shed for ep in endpoints.values())
print(f"[servers] shed {shed} frames during the burst; "
      f"sp0 restarted {endpoints['sp0'].restarts}x from snapshot")
print("[invariant] every returned result was verified — a forged response "
      "can evict a replica, never reach the caller")
