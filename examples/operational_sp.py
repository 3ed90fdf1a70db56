"""Operating a service provider: snapshots, updates, freshness, planning.

Beyond the core protocols, a deployed SP needs operational machinery.
This example runs a full lifecycle:

1. the DO signs an inventory table and *ships it as bytes* (persistence);
2. the SP is cold-started from the snapshot and plans a query's cost
   before executing it (crypto-free planner);
3. the SP serves repeated queries with the APS cache;
4. the DO applies live updates — including a zero-knowledge delete —
   re-signing only O(log n) nodes;
5. freshness tokens stop the SP from replaying the pre-update snapshot;
6. the operator scrapes the observability registry (the same Prometheus
   text a framed ``STATS_REQUEST`` returns over the wire).

Run:  python examples/operational_sp.py
"""

import random

from repro.core import DataOwner, Dataset, Record
from repro.core.app_signature import AppAuthenticator
from repro.core.freshness import issue_token, verify_token
from repro.core.persistence import deserialize_tree, serialize_tree
from repro.core.planner import plan_range_query
from repro.core.range_query import clip_query, range_vo
from repro.core.verifier import verify_vo
from repro.crypto import simulated
from repro.errors import VerificationError
from repro.index import Domain
from repro.index.updates import delete, upsert
from repro.policy import RoleUniverse, parse_policy

rng = random.Random(31)
group = simulated()
universe = RoleUniverse(["warehouse", "finance", "auditor"])

# -- 1. DO signs and ships the ADS ------------------------------------------
inventory = Dataset(Domain.of((0, 255)))
for sku in (12, 40, 77, 130, 200):
    policy = parse_policy("warehouse" if sku % 2 == 0 else "warehouse and finance")
    inventory.add(Record((sku,), b"stock-row-%d" % sku, policy))
owner = DataOwner(group, universe, rng=rng)
tree = owner.build_tree(inventory)
snapshot = serialize_tree(tree)
print(f"[DO] signed {tree.stats.num_nodes} nodes; snapshot is "
      f"{len(snapshot):,} bytes")

# -- 2. SP cold start + query planning ---------------------------------------
sp_tree = deserialize_tree(group, snapshot)
auth = AppAuthenticator(group, universe, owner.mvk)
roles = frozenset({"warehouse"})
query = clip_query(sp_tree, (0,), (255,))
plan = plan_range_query(sp_tree, universe, query, roles)
print(f"[SP] plan for full-range scan: {plan.accessible_records} results, "
      f"{plan.relax_operations} ABS.Relax ops, VO = {plan.vo_bytes:,} bytes")

vo = range_vo(sp_tree, auth, query, roles, rng)
assert vo.byte_size() == plan.vo_bytes, "planner must be byte-exact"
print(f"[SP] executed: VO is exactly {vo.byte_size():,} bytes as planned")

# -- 3. repeated queries hit the APS cache -----------------------------------
auth.enable_aps_cache()
range_vo(sp_tree, auth, query, roles, rng)   # cold: fills the cache
range_vo(sp_tree, auth, query, roles, rng)   # warm
print(f"[SP] APS cache after a repeat query: {auth.aps_cache_hits} hits / "
      f"{auth.aps_cache_misses} misses")

# -- 4. live updates ----------------------------------------------------------
receipt = upsert(tree, owner.signer,
                 Record((55,), b"stock-row-55", parse_policy("warehouse")), rng)
print(f"[DO] upsert sku 55: re-signed {receipt.resigned_nodes} of "
      f"{tree.stats.num_nodes} nodes")
receipt = delete(tree, owner.signer, (77,), rng)
print(f"[DO] delete sku 77: re-signed {receipt.resigned_nodes} nodes "
      f"(now indistinguishable from never-existed)")
fresh_snapshot = serialize_tree(tree)

# The refreshed SP reflects both changes.
sp_tree = deserialize_tree(group, fresh_snapshot)
records = verify_vo(range_vo(sp_tree, auth, query, roles, rng), auth, query, roles)
print(f"[user] verified inventory now: {sorted(r.value.decode() for r in records)}")

# -- 5. freshness: the stale snapshot is rejected -----------------------------
token_old = issue_token(owner.signer, "inventory", epoch=100, rng=rng)
token_new = issue_token(owner.signer, "inventory", epoch=112, rng=rng)
verify_token(auth, token_new, now_epoch=112, max_age=5)
print("[user] current freshness token accepted")
try:
    verify_token(auth, token_old, now_epoch=112, max_age=5)
    raise SystemExit("BUG: stale token accepted")
except VerificationError as exc:
    print(f"[user] stale snapshot rejected: {exc}")

# -- 6. scrape the metrics registry ------------------------------------------
from repro import obs  # noqa: E402

if obs.enabled():
    scrape = obs.format_metrics()
    interesting = [line for line in scrape.splitlines()
                   if line.startswith(("repro_index_", "repro_group_ops_"))]
    print(f"[ops] scrape: {len(scrape.splitlines())} exposition lines; "
          f"index/group-op series:")
    for line in interesting[:6]:
        print(f"      {line}")
else:
    print("[ops] observability disabled (REPRO_OBS=0); no scrape")
