"""One end-to-end benchmark for verified queries and live ingest.

Run from the repository root:

    python3 perfbench/run.py --workload q6_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
breakdown and writes its spans to ``.perfbench/``.  Every answer is
checked against a plaintext oracle; the command prints every metric by
name and unit, then one JSON result line, and exits non-zero when any
answer disagrees with the oracle.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("q6_cold", "bn254_hot", "ingest_rw")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it as JSON, and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program source {SRC}/repro is missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import driver
    import tracer

    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    if args.setup_probe:
        world, raw, seconds = driver.build(args.workload, args.seed, scratch)
        world.close()
        print(json.dumps({"raw_s": raw, "setup_s": seconds}))
        return 0

    recorder = None
    setups = []
    runs = driver.WORKLOADS[args.workload].setup_runs
    if args.trace:
        # Installed before set-up so the SP handler the meter binds is
        # the recording wrapper; inactive until the loop starts.
        recorder = tracer.install(tracer.SpanRecorder())
    else:
        run_py = os.path.abspath(__file__)
        setups = [
            driver.probe_setup(run_py, args.workload, args.seed, ROOT)
            for _ in range(runs - 1)
        ]
    world, raw, seconds = driver.build(args.workload, args.seed, scratch)
    setups.append((raw, seconds))
    try:
        run = driver.measure(world, args.seconds, recorder)
    finally:
        world.close()
    ctx = driver.context(world, run, args.seed, args.seconds, bool(args.trace), setups)
    wrong, failed = driver.tally(run["ops"])
    if recorder is not None:
        recorder.uninstall()
        values = driver.per_layer(world, run, recorder.spans)
        units = driver.PER_LAYER
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fp:
            json.dump({"context": ctx, "spans": recorder.spans}, fp)
        ctx["spans_file"] = os.path.relpath(path, ROOT)
    else:
        values = driver.end_to_end(world, run, setups)
        units = driver.END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:>14.4f} {unit}")
    if wrong:
        print(f"perfbench: {wrong} answer(s) disagreed with the oracle",
              file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": len(run["ops"]),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
