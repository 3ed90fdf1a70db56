"""Tests for the benchmark infrastructure (registry, runner, reports)."""

import re

from repro.bench.__main__ import DOC, main
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import ExperimentResult, _fmt


def test_registry_covers_every_table_and_figure():
    expected = {"table1", "table2"} | {f"fig{i}" for i in range(7, 16)}
    assert expected <= set(ALL_EXPERIMENTS)
    # Plus the ablation studies A1-A7.
    ablations = {k for k in ALL_EXPERIMENTS if k.startswith("ablation")}
    assert len(ablations) == 7


def test_registry_entries_are_callables_with_defaults():
    import inspect

    for name, fn in ALL_EXPERIMENTS.items():
        sig = inspect.signature(fn)
        for param in sig.parameters.values():
            assert param.default is not inspect.Parameter.empty, (
                f"{name}: parameter {param.name} needs a default so the "
                "runner can invoke it bare"
            )


def _blocks(text):
    """``{name: rendered text}`` of every generated block in ``text``."""
    return {
        m[1]: m[2] for m in re.finditer(
            r"<!-- repro\.bench:(\S+) -->\n```text\n(.*?)\n```\n"
            r"<!-- /repro\.bench:\1 -->", text, re.S,
        )
    }


def test_experiments_md_has_one_generated_block_per_experiment():
    text = DOC.read_text()
    blocks = _blocks(text)
    assert sorted(blocks) == sorted(ALL_EXPERIMENTS)
    assert len(re.findall(r"^<!-- repro\.bench:", text, re.M)) == len(blocks)
    for name, rendered in blocks.items():
        assert rendered.startswith("== "), name


def test_runner_main_writes_results(tmp_path, capsys):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(DOC.read_text())
    assert main(["table2"], doc=doc) == 0
    assert "Table 2" in capsys.readouterr().out
    before, after = _blocks(DOC.read_text()), _blocks(doc.read_text())
    assert after.keys() == before.keys()
    assert after["table2"].startswith("== Table 2: Equality query performance (simulated)")
    assert {n: t for n, t in after.items() if n != "table2"} == \
        {n: t for n, t in before.items() if n != "table2"}


def test_runner_only_prints_without_a_document(tmp_path, monkeypatch, capsys):
    # An installed package has no EXPERIMENTS.md beside it.
    stub = ExperimentResult(exp_id="Table 2", title="stub", headers=["x"])
    monkeypatch.setitem(ALL_EXPERIMENTS, "table2", lambda: stub)
    assert main(["table2"], doc=tmp_path / "EXPERIMENTS.md") == 0
    assert "== Table 2: stub" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_runner_checks_every_block_before_running(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(ALL_EXPERIMENTS, "table2", lambda: ran.append("table2"))
    monkeypatch.setitem(ALL_EXPERIMENTS, "unblocked", lambda: ran.append("unblocked"))
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(DOC.read_text())
    assert main(["table2", "unblocked"], doc=doc) == 2
    assert "unblocked" in capsys.readouterr().out
    assert ran == []
    assert doc.read_text() == DOC.read_text()


def test_runner_rejects_unknown():
    assert main(["not-an-experiment"]) == 2


def test_report_formatting_rules():
    assert _fmt(0.0) == "0"
    assert _fmt(1234.5) == "1234"  # >=100 -> .0f (banker-rounded)
    assert _fmt(12.345) == "12.35"
    assert _fmt(0.01234) == "0.0123"
    assert _fmt("text") == "text"
    assert _fmt(7) == "7"


def test_report_render_alignment():
    result = ExperimentResult("X", "t", ["col", "longer-column"])
    result.add_row(1, 2)
    lines = result.render().splitlines()
    assert lines[1].index("|") == lines[3].index("|")  # aligned separator
