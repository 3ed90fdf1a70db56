"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_demo_runs(capsys):
    assert main(["demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "signed AP2G-tree" in out
    assert "quarterly forecast" in out
    assert "nothing accessible" in out


def test_stats_runs(capsys):
    assert main(["stats", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "index size" in out
    assert "nodes" in out


def test_selftest_simulated_only_is_fast(capsys):
    # Full selftest includes bn254; it is exercised here end-to-end.
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[simulated]" in out
    assert "[bn254" in out
    assert "FAIL" not in out


def test_bench_unknown_experiment(capsys):
    assert main(["bench", "definitely-not-an-experiment"]) == 2
    assert "unknown experiments" in capsys.readouterr().out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_policy_explain_denied_default_record(capsys):
    # Key 11 is the manager-only salary table; analyst must be denied.
    assert main(["policy", "explain", "--roles", "analyst",
                 "--key", "11", "--expect-denied"]) == 0
    out = capsys.readouterr().out
    assert "DENY" in out
    assert "grant {manager}" in out


def test_policy_explain_expect_denied_fails_on_allow(capsys):
    assert main(["policy", "explain", "--roles", "manager",
                 "--key", "11", "--expect-denied"]) == 1
    assert "ALLOW" in capsys.readouterr().out


def test_policy_explain_unknown_record_is_unsatisfiable(capsys):
    assert main(["policy", "explain", "--roles", "manager", "--key", "25"]) == 0
    out = capsys.readouterr().out
    assert "unsatisfiable" in out


def test_policy_explain_rejects_unknown_role(capsys):
    assert main(["policy", "explain", "--roles", "wizard"]) == 2
    assert "unknown role" in capsys.readouterr().err


def test_policy_compile_prints_canonical_and_msp(capsys):
    assert main(["policy", "compile", "(b and a) or c or (a and b and d)"]) == 0
    out = capsys.readouterr().out
    assert "canonical: c or (a and b)" in out
    assert "msp" in out


def test_policy_compile_reports_parse_errors(capsys):
    assert main(["policy", "compile", "a and (b or"]) == 2
    err = capsys.readouterr().err
    assert "offset" in err


def test_demo_helpers_are_equivalent():
    from repro.cli import demo_documents, demo_registry
    from repro.policy import compile_policy

    universe, with_policies = demo_documents()
    _, without = demo_documents(with_policies=False)
    registry = demo_registry()
    assert {r.key for r in with_policies} == {r.key for r in without}
    for record in without:
        assert record.policy is None
        stamped = with_policies.get(record.key).policy
        compiled = registry.policy_for("docs", record)
        assert compiled.text == compile_policy(stamped).text


OBS_COMMANDS = {
    "obs": ["obs"],
    "obs-top": ["obs", "top", "--queries", "4"],
    "obs-trace": ["obs", "trace"],
}


@pytest.fixture
def obs_gate():
    """Set the ``REPRO_OBS`` gate for one test, then restore it."""
    from repro import obs

    saved = obs.enabled()
    yield lambda flag: (obs.set_enabled(flag), obs.reset_for_tests())
    obs.set_enabled(saved)
    obs.reset_for_tests()


@pytest.mark.parametrize("command", OBS_COMMANDS)
def test_obs_commands_render_on_simulated(command, obs_gate, capsys):
    obs_gate(True)
    assert main(OBS_COMMANDS[command] + ["--backend", "simulated"]) == 0
    out = capsys.readouterr().out
    expected = {
        "obs": "client.query",
        "obs-top": "per-query cost ledger",
        "obs-trace": "shard.query",
    }[command]
    assert expected in out


@pytest.mark.parametrize("command", OBS_COMMANDS)
def test_obs_commands_refuse_when_disabled(command, obs_gate, capsys):
    obs_gate(False)
    assert main(OBS_COMMANDS[command]) == 1
    assert "observability is disabled" in capsys.readouterr().err
