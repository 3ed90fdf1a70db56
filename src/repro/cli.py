"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``   — run the end-to-end three-party protocol on a small table
  and print what each party sees;
* ``bench``  — run experiment drivers (same as ``python -m repro.bench``);
* ``stats``  — build the default workload's AP2G-tree and print index
  statistics (Table 1 style) for a chosen scale;
* ``selftest`` — exercise sign/relax/verify on both crypto backends;
* ``obs``    — run one resilient client/server query with observability
  on and render the correlated trace tree plus the metrics scrape;
* ``policy`` — crypto-free policy tooling: ``policy explain`` reports an
  access decision against the demo registry, ``policy compile`` prints a
  policy's canonical DNF and MSP dimensions.
"""

from __future__ import annotations

import argparse
import random
import sys
import time


#: The demo's role universe and its ``docs`` rows: key, value, policy.
DEMO_ROLES = ("analyst", "manager", "auditor")
DEMO_ROWS = (
    ((4,), b"quarterly forecast", "analyst or manager"),
    ((11,), b"salary table", "manager"),
    ((18,), b"audit trail", "auditor and manager"),
)


def demo_documents(with_policies: bool = True):
    """The demo's role universe and three-record ``docs`` table.

    With ``with_policies=False`` the records carry no policy, for
    assignment through :func:`demo_registry` (see
    ``examples/policy_authoring.py``).
    """
    from repro.core import Dataset, Record
    from repro.index import Domain
    from repro.policy import RoleUniverse, parse_policy

    universe = RoleUniverse(list(DEMO_ROLES))
    table = Dataset(Domain.of((0, 31)))
    for key, value, policy in DEMO_ROWS:
        table.add(Record(key, value, parse_policy(policy) if with_policies else None))
    return universe, table


def demo_registry():
    """A :class:`PolicyRegistry` equivalent to the demo table's policies.

    Authored with combinators instead of DNF strings; compiles to the
    same canonical policies :func:`demo_documents` stamps directly.
    Records outside the three known keys fall to deny-by-default.
    """
    from repro.policy import AllOf, AnyOf, HasRole, PolicyRegistry

    registry = PolicyRegistry()

    @registry.policy(table="docs", attribute=4)
    def forecast(record):
        return AnyOf("analyst", "manager")

    @registry.policy(table="docs", attribute=11)
    def salary(record):
        return HasRole("manager")

    @registry.policy(table="docs", attribute=18)
    def audit(record):
        return AllOf("auditor", "manager")

    return registry


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import DataOwner, QueryUser
    from repro.crypto import get_backend

    rng = random.Random(args.seed)
    group = get_backend(args.backend)
    universe, table = demo_documents()
    owner = DataOwner(group, universe, rng=rng)
    provider = owner.outsource({"docs": table})
    print(f"[DO] signed AP2G-tree: {provider.trees['docs'].stats.num_nodes} nodes")
    user = QueryUser(group, universe, owner.register_user(["analyst"]))
    print(f"[user] roles: {sorted(user.roles)}")
    response = provider.range_query("docs", (0,), (31,), user.roles, rng=rng)
    records = user.verify(response)
    print(f"[user] verified range [0,31]: {[r.value.decode() for r in records]}")
    print(f"[user] proof: {len(response.vo)} entries, {response.byte_size()} bytes")
    for probe in ((11,), (25,)):
        r = provider.equality_query("docs", probe, user.roles, rng=rng)
        outcome = user.verify(r)
        print(f"[user] equality {probe[0]}: "
              f"{outcome[0].value.decode() if outcome else 'nothing accessible (proven, cause hidden)'}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(args.experiments)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench.harness import build_setup

    t0 = time.time()
    setup = build_setup(scale=args.scale, backend=args.backend)
    stats = setup.tree.stats
    print(f"scale {args.scale}: {stats.num_real_records} records over "
          f"{setup.domain.size()} domain cells")
    print(f"  nodes: {stats.num_nodes} ({stats.num_leaves} leaves)")
    print(f"  signing time: {stats.sign_seconds:.2f}s, "
          f"build time: {stats.sign_seconds + stats.structure_seconds:.2f}s "
          f"(wall {time.time() - t0:.2f}s)")
    print(f"  index size: {stats.index_bytes / 1024:.0f} KB "
          f"(structure {stats.structure_bytes / 1024:.0f} KB + "
          f"signatures {stats.signature_bytes / 1024:.0f} KB)")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.abs import AbsScheme, relax
    from repro.crypto import get_backend
    from repro.policy import RoleUniverse, parse_policy

    failures = 0
    for backend in ("simulated", "bn254"):
        group = get_backend(backend)
        rng = random.Random(1)
        scheme = AbsScheme(group)
        keys = scheme.setup(rng)
        universe = RoleUniverse(["A", "B", "C"])
        sk = scheme.keygen(keys, universe.roles, rng)
        policy = parse_policy("(A and B) or C")
        t0 = time.time()
        sig = scheme.sign(keys.mvk, sk, b"selftest", policy, rng)
        t_sign = time.time() - t0
        t0 = time.time()
        ok = scheme.verify(keys.mvk, b"selftest", policy, sig)
        t_verify = time.time() - t0
        missing = universe.missing_roles({"A"})
        t0 = time.time()
        aps, super_policy = relax(scheme, keys.mvk, sig, b"selftest", policy, missing, rng)
        t_relax = time.time() - t0
        ok_aps = scheme.verify(keys.mvk, b"selftest", super_policy, aps)
        status = "ok" if (ok and ok_aps) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"[{backend:9s}] sign {t_sign * 1e3:7.1f}ms  verify {t_verify * 1e3:7.1f}ms  "
              f"relax {t_relax * 1e3:7.1f}ms  -> {status}")
    return 1 if failures else 0


def _obs_gate_check() -> bool:
    from repro import obs

    if not obs.enabled():
        print("observability is disabled (REPRO_OBS=0); nothing to show",
              file=sys.stderr)
        return False
    return True


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.bench.world import build_world
    from repro.net import FaultyTransport, RetryPolicy

    if not _obs_gate_check():
        return 1
    world = build_world(
        {"docs": DEMO_ROWS}, (0, 31), seed=args.seed, backend=args.backend,
        universe=DEMO_ROLES, policy=RetryPolicy(max_attempts=6),
    )
    client = world.client
    if args.fault_rate > 0:
        client.endpoint.transport = FaultyTransport(
            client.endpoint.transport, rng=random.Random(args.seed + 1),
            rates={"bitflip": args.fault_rate}, clock=world.clock,
        )
    records = client.query_range("docs", (0,), (31,), encrypt=False)
    print(f"verified {len(records)} accessible record(s)\n")
    print(obs.format_trace(obs.tracer().last_trace().to_dict()))
    print()
    print(obs.format_metrics(), end="")
    return 0


def _obs_workload(args: argparse.Namespace, queries: int):
    """Run ``queries`` range queries on a 2-shard x 2-replica world.

    Every link is a detached loopback, so server spans root their own
    traces and flow back through the span relay — the topology
    ``repro obs top`` and ``repro obs trace`` are meant to demonstrate.
    Returns the sharded client.
    """
    from repro.bench.world import build_world
    from repro.net import RetryPolicy

    client = build_world(
        {"docs": DEMO_ROWS}, (0, 31), seed=args.seed, backend=args.backend,
        universe=DEMO_ROLES, roles=DEMO_ROLES, shards=2, replicas=2,
        link="detached", shard_policy=RetryPolicy(max_attempts=3),
    ).client
    ranges = [((0,), (31,)), ((0,), (15,)), ((16,), (31,)), ((4,), (18,))]
    for i in range(queries):
        lo, hi = ranges[i % len(ranges)]
        client.query_range("docs", lo, hi, encrypt=False)
    return client


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import ledger as _ledger

    if not _obs_gate_check():
        return 1
    _obs_workload(args, args.queries)
    print("per-query cost ledger (most recent first)")
    print(obs.format_ledger(_ledger.ledger().entries(args.queries)))
    print()
    print("latency quantiles")
    print(obs.format_quantiles(prefix="repro_"))
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro import obs

    if not _obs_gate_check():
        return 1
    client = _obs_workload(args, 6)
    tree = client.assemble_trace(args.trace_id)
    if tree is None:
        wanted = args.trace_id or "(last query)"
        print(f"trace {wanted} not found in the finished ring", file=sys.stderr)
        return 1
    print(obs.format_trace(tree))
    return 0


def _cmd_policy_explain(args: argparse.Namespace) -> int:
    from repro.policy.explain import explain

    universe, table = demo_documents(with_policies=False)
    registry = demo_registry()
    roles = set(args.roles)
    unknown = roles - set(universe.roles)
    if unknown:
        print(f"unknown role(s): {sorted(unknown)}; "
              f"demo universe is {sorted(universe.roles)}", file=sys.stderr)
        return 2
    record = table.record_or_pseudo((args.key,))
    report = explain(record, roles, registry=registry, table="docs")
    print(report.format())
    if args.expect_denied:
        return 0 if not report.allowed else 1
    return 0


def _cmd_policy_compile(args: argparse.Namespace) -> int:
    from repro.crypto import get_backend
    from repro.errors import PolicyError, PolicyParseError
    from repro.policy import compile_policy

    try:
        compiled = compile_policy(args.policy)
    except (PolicyError, PolicyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"canonical: {compiled.text}")
    clause_strs = [" and ".join(sorted(c)) for c in compiled.clauses]
    print(f"clauses  : {len(compiled.clauses)} "
          f"({'; '.join(clause_strs)})")
    msp = compiled.msp(get_backend(args.backend).order)
    print(f"msp      : {msp.n_rows} rows x {msp.n_cols} cols over "
          f"{args.backend} group order")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zero-knowledge query authentication with fine-grained "
        "access control (SIGMOD'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run the three-party protocol demo")
    p.add_argument("--backend", default="simulated", choices=["simulated", "bn254"])
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("bench", help="run experiment drivers")
    p.add_argument("experiments", nargs="*", help="experiment names (default all)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats", help="build the default ADS and print stats")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--backend", default="simulated", choices=["simulated", "bn254"])
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("selftest", help="sign/relax/verify on both backends")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser(
        "obs",
        help="observability tooling (default: trace one resilient query)")
    p.add_argument("--backend", default="simulated", choices=["simulated", "bn254"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="bitflip injection rate, to demo retry spans (default 0)")
    p.set_defaults(func=_cmd_obs)
    obs_sub = p.add_subparsers(dest="obs_command", required=False)

    pt = obs_sub.add_parser(
        "top",
        help="run a sharded workload and show the live per-query cost ledger")
    pt.add_argument("--backend", default="simulated", choices=["simulated", "bn254"])
    pt.add_argument("--seed", type=int, default=7)
    pt.add_argument("--queries", type=int, default=6,
                    help="queries to run before rendering (default 6)")
    pt.set_defaults(func=_cmd_obs_top)

    pr = obs_sub.add_parser(
        "trace",
        help="assemble one logical query's cross-node trace and render it")
    pr.add_argument("trace_id", nargs="?", default=None,
                    help="trace id (16 hex chars); default: the last query")
    pr.add_argument("--backend", default="simulated", choices=["simulated", "bn254"])
    pr.add_argument("--seed", type=int, default=7)
    pr.set_defaults(func=_cmd_obs_trace)

    p = sub.add_parser("policy", help="crypto-free policy tooling")
    policy_sub = p.add_subparsers(dest="policy_command", required=True)

    pe = policy_sub.add_parser(
        "explain", help="explain an access decision against the demo registry")
    pe.add_argument("--roles", nargs="+", default=["analyst"],
                    help="roles the user holds (default: analyst)")
    pe.add_argument("--key", type=int, default=11,
                    help="query key of the demo record (default 11, the salary table)")
    pe.add_argument("--expect-denied", action="store_true",
                    help="exit 1 unless the decision is DENY (for CI smoke checks)")
    pe.set_defaults(func=_cmd_policy_explain)

    pc = policy_sub.add_parser(
        "compile", help="print a policy's canonical DNF and MSP dimensions")
    pc.add_argument("policy", help="policy expression, e.g. \"a and (b or c)\"")
    pc.add_argument("--backend", default="simulated", choices=["simulated", "bn254"])
    pc.set_defaults(func=_cmd_policy_compile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
