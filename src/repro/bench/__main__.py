"""Experiment runner: ``python -m repro.bench [names...]``.

Runs the requested experiments (default: all), prints each rendered
table, and writes it into the checkout's EXPERIMENTS.md, replacing the
experiment's generated block between ``<!-- repro.bench:<name> -->``
and ``<!-- /repro.bench:<name> -->``.  This is the only writer of
experiment output; every measured number EXPERIMENTS.md cites is in
one of these blocks.  Every requested name must have exactly one block
before anything runs.  Without a checkout's EXPERIMENTS.md (an
installed package) the runner only prints.
"""

from __future__ import annotations

import pathlib
import re
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS

DOC = pathlib.Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"


def _block(name: str) -> re.Pattern:
    return re.compile(
        rf"(<!-- repro\.bench:{re.escape(name)} -->\n).*?"
        rf"(<!-- /repro\.bench:{re.escape(name)} -->)",
        re.S,
    )


def main(argv: list[str], *, doc: pathlib.Path = DOC) -> int:
    names = argv or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2
    write = doc.is_file()
    if write:
        text = doc.read_text()
        missing = [
            n for n in names
            if len(_block(n).findall(text)) != 1
            or text.count(f"<!-- repro.bench:{n} -->") != 1
        ]
        if missing:
            print(f"{doc} needs exactly one generated block for: {missing}")
            return 2
    for name in names:
        t0 = time.time()
        rendered = ALL_EXPERIMENTS[name]().render()
        elapsed = time.time() - t0
        print(rendered)
        print(f"  [{name} completed in {elapsed:.1f}s]\n")
        if write:
            doc.write_text(_block(name).sub(
                lambda m: f"{m[1]}```text\n{rendered}\n```\n{m[2]}", doc.read_text(),
            ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
