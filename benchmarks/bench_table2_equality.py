"""Table 2 — equality query performance vs policy/predicate length."""

import random

from repro.bench.experiments import _policy_of_length, run_table2
from repro.core.app_signature import AppAuthenticator
from repro.core.records import Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.policy.roles import RoleUniverse


def _fixture(policy_len=24):
    rng = random.Random(2)
    roles = [f"Role{i}" for i in range(policy_len + 2)]
    universe = RoleUniverse(roles)
    owner = DataOwner(simulated(), universe, rng=rng)
    policy = _policy_of_length(policy_len, roles)
    record = Record(key=(1,), value=b"payload", policy=policy)
    sig = owner.signer.sign_record(record, rng)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, universe, record, sig, auth


def test_verify_accessible_record(benchmark):
    _, _, record, sig, auth = _fixture()
    assert benchmark(lambda: auth.verify_record(record, sig))


def test_relax_inaccessible_record(benchmark):
    rng, universe, record, sig, auth = _fixture()
    user_roles = frozenset()
    aps = benchmark(lambda: auth.derive_record_aps(record, sig, user_roles, rng))
    assert auth.verify_inaccessible_record(record.key, record.value_hash(), user_roles, aps)


def test_table2_report(benchmark):
    result = benchmark.pedantic(
        lambda: run_table2(policy_lengths=(6, 24, 96, 384),
                           predicate_lengths=(10, 20, 40, 80)),
        rounds=1, iterations=1,
    )
    # Costs must grow with the policy length (paper Table 2 shape).
    user_cpu = [row[1] for row in result.rows]
    assert user_cpu == sorted(user_cpu)
