"""Cost ledger: per-trace stage accounting, counters, and bounds."""

import pytest

from repro import obs
from repro.obs.ledger import STAGES, CostLedger


TID = "ab" * 8


def test_charge_accumulates_per_stage():
    ledger = CostLedger()
    ledger.charge(TID, "traverse", 0.25)
    ledger.charge(TID, "traverse", 0.25)
    ledger.charge(TID, "wire", 0.5)
    entry = ledger.get(TID)
    assert entry.stages == {"traverse": 0.5, "wire": 0.5}
    assert entry.stage_total() == pytest.approx(1.0)


def test_unknown_stage_rejected():
    ledger = CostLedger()
    with pytest.raises(ValueError, match="unknown ledger stage"):
        ledger.charge(TID, "daydream", 1.0)
    assert set(STAGES) == {
        "traverse", "materialize", "seal", "wire", "open", "verify", "merge",
    }


def test_negative_charge_clamps_to_zero():
    # wire = round_trip - nested server stages can go microscopically
    # negative on a loopback; the account must never say negative time.
    ledger = CostLedger()
    ledger.charge(TID, "wire", -0.001)
    assert ledger.get(TID).stages["wire"] == 0.0


def test_counters_and_group_ops_accumulate_and_skip_zeros():
    ledger = CostLedger()
    ledger.count(TID, relax_calls=2, aps_cache_hits=0)
    ledger.count(TID, relax_calls=1, dedup=3)
    ledger.merge_group_ops(TID, {"pairing": 4, "mul": 0})
    ledger.merge_group_ops(TID, {"pairing": 1})
    entry = ledger.get(TID)
    assert entry.counters == {"relax_calls": 3, "dedup": 3}
    assert entry.group_ops == {"pairing": 5}


def test_set_wall_records_observed_wall_time():
    ledger = CostLedger()
    ledger.charge(TID, "verify", 0.1)
    ledger.set_wall(TID, 0.4)
    entry = ledger.get(TID)
    assert entry.wall_seconds == 0.4
    as_dict = entry.as_dict()
    assert as_dict["wall_seconds"] == 0.4
    assert as_dict["stage_total_seconds"] == pytest.approx(0.1)


def test_as_dict_orders_stages_canonically():
    ledger = CostLedger()
    ledger.charge(TID, "merge", 0.1)
    ledger.charge(TID, "traverse", 0.2)
    assert list(ledger.get(TID).as_dict()["stages"]) == ["traverse", "merge"]


def test_mutators_noop_on_none_trace_and_gate_off():
    ledger = CostLedger()
    ledger.charge(None, "traverse", 1.0)
    ledger.count(None, relax_calls=1)
    ledger.set_wall(None, 1.0)
    assert len(ledger) == 0 and ledger.total_charges == 0
    obs.set_enabled(False)
    try:
        ledger.charge(TID, "traverse", 1.0)
    finally:
        obs.set_enabled(True)
    assert len(ledger) == 0 and ledger.total_charges == 0


def test_total_charges_counts_only_real_mutations():
    ledger = CostLedger()
    ledger.charge(TID, "traverse", 1.0)
    ledger.count(TID, relax_calls=1)
    ledger.set_wall(TID, 2.0)
    ledger.charge(None, "traverse", 1.0)  # untraced: free
    assert ledger.total_charges == 3


def test_lru_bound_and_recency_ordering():
    ledger = CostLedger(max_queries=2)
    ledger.charge("aa" * 8, "traverse", 1.0)
    ledger.charge("bb" * 8, "traverse", 1.0)
    ledger.charge("aa" * 8, "wire", 1.0)     # refreshes aa
    ledger.charge("cc" * 8, "traverse", 1.0)  # evicts bb
    assert ledger.get("bb" * 8) is None
    assert [e.trace_id for e in ledger.entries()] == ["cc" * 8, "aa" * 8]
    assert ledger.last().trace_id == "cc" * 8
    assert ledger.entries(1)[0].trace_id == "cc" * 8


def test_stage_seconds_subtotal_for_wire_exclusivity():
    ledger = CostLedger()
    ledger.charge(TID, "traverse", 0.2)
    ledger.charge(TID, "materialize", 0.3)
    ledger.charge(TID, "verify", 9.0)
    assert ledger.stage_seconds(TID, ("traverse", "materialize")) == \
        pytest.approx(0.5)
    assert ledger.stage_seconds("un" * 8, ("traverse",)) == 0.0
    assert ledger.stage_seconds(None, ("traverse",)) == 0.0


def _loopback_client():
    """A seeded one-record world behind a loopback ResilientClient."""
    import random

    from repro.core import DataOwner, Dataset, QueryUser, Record
    from repro.core.messages import SPServer
    from repro.crypto import simulated
    from repro.index import Domain
    from repro.net import LoopbackTransport, ResilientClient, ResilientSPServer
    from repro.policy import RoleUniverse, parse_policy

    rng = random.Random(5)
    group = simulated()
    universe = RoleUniverse(["analyst"])
    table = Dataset(Domain.of((0, 15)))
    table.add(Record((3,), b"doc", parse_policy("analyst")))
    owner = DataOwner(group, universe, rng=rng)
    provider = owner.outsource({"docs": table})
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    server = ResilientSPServer(SPServer(provider, rng=rng))
    return ResilientClient(
        user, LoopbackTransport(server.handle_frame),
        rng=random.Random(6),
    )


def test_traced_query_populates_global_ledger():
    """End to end: one loopback query charges every client-side stage."""
    from repro.obs import ledger as ledger_mod

    client = _loopback_client()
    records = client.query_range("docs", (0,), (15,), encrypt=False)
    assert records
    entry = ledger_mod.ledger().get(client._last_trace_id)
    assert entry is not None
    for stage in ("traverse", "materialize", "wire", "verify"):
        assert stage in entry.stages, entry.as_dict()
    assert entry.wall_seconds is not None
    # The wire charge is exclusive of the loopback's inline server time,
    # so the staged total cannot double-count past the observed wall.
    assert entry.stage_total() <= entry.wall_seconds * 1.5
    assert client.stats()["ledger"]["trace_id"] == client._last_trace_id


def test_sealed_query_charges_seal_and_open_within_wall():
    """A sealed query adds seal and open; the stages still sum within wall,
    and the KEM counters show the first query missing and the second hitting."""
    from repro.obs import ledger as ledger_mod

    client = _loopback_client()
    expected = {
        1: {"kem_misses": 1, "kem_memo_misses": 1},
        2: {"kem_hits": 1, "kem_memo_hits": 1},
    }
    for query in (1, 2):
        assert client.query_range("docs", (0,), (15,), encrypt=True)
        entry = ledger_mod.ledger().get(client._last_trace_id)
        for stage in ("traverse", "materialize", "seal", "wire", "open", "verify"):
            assert stage in entry.stages, entry.as_dict()
        assert entry.stage_total() <= entry.wall_seconds
        kem = {k: v for k, v in entry.counters.items() if k.startswith("kem_")}
        assert kem == expected[query]
