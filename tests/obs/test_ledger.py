"""Cost ledger: per-trace stage accounting, counters, and bounds."""

import threading

import pytest

from repro import obs
from repro.obs.ledger import STAGES, CostLedger, tally, tally_since, tally_snapshot


TID = "ab" * 8


def test_charge_accumulates_per_stage():
    ledger = CostLedger()
    ledger.record(TID, {"traverse": 0.25})
    ledger.record(TID, {"traverse": 0.25})
    ledger.record(TID, {"wire": 0.5})
    entry = ledger.get(TID)
    assert entry.stages == {"traverse": 0.5, "wire": 0.5}
    assert entry.stage_total() == pytest.approx(1.0)


def test_record_is_one_charge_for_several_stages_and_counters():
    ledger = CostLedger()
    ledger.record(TID, {"wire": 0.5, "codec": 0.25}, verify_memo_hits=3, relax_calls=0)
    entry = ledger.get(TID)
    assert entry.stages == {"wire": 0.5, "codec": 0.25}
    assert entry.counters == {"verify_memo_hits": 3}
    assert ledger.total_charges == 1
    with pytest.raises(ValueError, match="unknown ledger stage"):
        ledger.record(TID, {"verify": 1.0, "daydream": 1.0})
    assert "verify" not in ledger.get(TID).stages
    assert ledger.total_charges == 1


def test_tally_counts_this_threads_events_while_enabled():
    before = tally_snapshot()
    tally("probe_hits")
    tally("probe_hits")
    obs.set_enabled(False)
    try:
        tally("probe_hits")
    finally:
        obs.set_enabled(True)
    other = []

    def elsewhere():
        mark = tally_snapshot()
        tally("probe_misses")
        other.append(tally_since(mark))

    worker = threading.Thread(target=elsewhere)
    worker.start()
    worker.join()
    assert other == [{"probe_misses": 1}]
    assert tally_since(before) == {"probe_hits": 2}


def test_unknown_stage_rejected():
    ledger = CostLedger()
    with pytest.raises(ValueError, match="unknown ledger stage"):
        ledger.record(TID, {"daydream": 1.0})
    assert set(STAGES) == {
        "traverse", "materialize", "seal", "wire", "open", "codec", "verify",
        "merge",
    }


def test_negative_charge_clamps_to_zero():
    # wire = round_trip - nested server stages can go microscopically
    # negative on a loopback; the account must never say negative time.
    ledger = CostLedger()
    ledger.record(TID, {"wire": -0.001})
    assert ledger.get(TID).stages["wire"] == 0.0


def test_counters_and_group_ops_accumulate_and_skip_zeros():
    ledger = CostLedger()
    ledger.record(TID, {}, {"pairing": 4, "mul": 0}, relax_calls=2, aps_cache_hits=0)
    ledger.record(TID, {}, {"pairing": 1}, relax_calls=1, tasks=3)
    ledger.record(TID, {}, relax_calls=1)
    entry = ledger.get(TID)
    assert entry.counters == {"relax_calls": 4, "tasks": 3}
    assert entry.group_ops == {"pairing": 5}
    assert entry.stages == {}
    assert ledger.total_charges == 3


def test_set_wall_records_observed_wall_time():
    ledger = CostLedger()
    ledger.record(TID, {"verify": 0.1})
    ledger.set_wall(TID, 0.4)
    entry = ledger.get(TID)
    assert entry.wall_seconds == 0.4
    as_dict = entry.as_dict()
    assert as_dict["wall_seconds"] == 0.4
    assert as_dict["stage_total_seconds"] == pytest.approx(0.1)


def test_as_dict_orders_stages_canonically():
    ledger = CostLedger()
    ledger.record(TID, {"merge": 0.1})
    ledger.record(TID, {"traverse": 0.2})
    assert list(ledger.get(TID).as_dict()["stages"]) == ["traverse", "merge"]


def test_mutators_noop_on_none_trace_and_gate_off():
    ledger = CostLedger()
    ledger.record(None, {"traverse": 1.0})
    ledger.record(None, {}, {"pairing": 1}, relax_calls=1)
    ledger.set_wall(None, 1.0)
    assert len(ledger) == 0 and ledger.total_charges == 0
    obs.set_enabled(False)
    try:
        ledger.record(TID, {"traverse": 1.0})
    finally:
        obs.set_enabled(True)
    assert len(ledger) == 0 and ledger.total_charges == 0


def test_total_charges_counts_only_real_mutations():
    ledger = CostLedger()
    ledger.record(TID, {"traverse": 1.0})
    ledger.record(TID, {}, relax_calls=1)
    ledger.set_wall(TID, 2.0)
    ledger.record(None, {"traverse": 1.0})  # untraced: free
    assert ledger.total_charges == 3


def test_lru_bound_and_recency_ordering():
    ledger = CostLedger(max_queries=2)
    ledger.record("aa" * 8, {"traverse": 1.0})
    ledger.record("bb" * 8, {"traverse": 1.0})
    ledger.record("aa" * 8, {"wire": 1.0})     # refreshes aa
    ledger.record("cc" * 8, {"traverse": 1.0})  # evicts bb
    assert ledger.get("bb" * 8) is None
    assert [e.trace_id for e in ledger.entries()] == ["cc" * 8, "aa" * 8]
    assert ledger.last().trace_id == "cc" * 8
    assert ledger.entries(1)[0].trace_id == "cc" * 8


def test_stage_seconds_subtotal_for_wire_exclusivity():
    ledger = CostLedger()
    ledger.record(TID, {"traverse": 0.2})
    ledger.record(TID, {"materialize": 0.3})
    ledger.record(TID, {"verify": 9.0})
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
    and the KEM counters show the first query missing and the second hitting.

    The loopback runs the server on the client's thread, where the seal's
    KEM outcome is tallied; each counter is still taken exactly once."""
    from repro.obs import ledger as ledger_mod

    client = _loopback_client()
    expected = {
        1: {"kem_misses": 1, "kem_memo_misses": 1},
        2: {"kem_hits": 1, "kem_memo_hits": 1},
    }
    for query in (1, 2):
        assert client.query_range("docs", (0,), (15,), encrypt=True)
        entry = ledger_mod.ledger().get(client._last_trace_id)
        for stage in ("traverse", "materialize", "seal", "wire", "open", "codec", "verify"):
            assert stage in entry.stages, entry.as_dict()
        assert entry.stage_total() <= entry.wall_seconds
        kem = {k: v for k, v in entry.counters.items() if k.startswith("kem_")}
        assert kem == expected[query]


@pytest.mark.parametrize("encrypt, charges", [(False, 3), (True, 5)])
def test_a_warm_client_query_charges_per_layer_not_per_entry(encrypt, charges):
    """Engine, exchange and wall time are one charge each, however many VO
    entries the memos serve; a sealed query adds the SP's seal (with its
    KEM outcome) and the client's open.  The disabled-mode overhead guard
    multiplies this count."""
    from repro.obs import ledger as ledger_mod

    client = _loopback_client()
    client.query_range("docs", (0,), (15,), encrypt=encrypt)
    before = ledger_mod.ledger().total_charges
    assert client.query_range("docs", (0,), (15,), encrypt=encrypt)
    assert ledger_mod.ledger().total_charges - before == charges
    counters = ledger_mod.ledger().get(client._last_trace_id).counters
    assert counters["verify_memo_hits"] > 0
