"""toolqa benchmark: one workload, one seed, one result line.

Run from the root of a toolqa checkout:

    python3 perfbench/run.py --workload big-tables --seed 7 --seconds 20 --trace 0

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it show the environment stamp and every metric with its unit. The full
result (stamp, checks, metrics) is also written to
``.bench_out/result-<workload>-seed<n>-trace<t>.json``. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mixed-replay", "big-tables", "remote-loopback")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="toolqa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds to accumulate before the run stops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced cycles")
    return parser.parse_args(argv)


def use_checkout_sources() -> None:
    """Import the package and the test oracles from this checkout only."""
    src, oracles = ROOT / "src", ROOT / "tests" / "oracles.py"
    if not (src / "toolqa" / "__init__.py").is_file() or not oracles.is_file():
        sys.exit(f"perfbench: {ROOT} is not a toolqa checkout "
                 "(src/toolqa and tests/oracles.py are missing)")
    sys.path.insert(0, str(src))
    import toolqa

    if Path(toolqa.__file__).resolve().parent != src / "toolqa":
        sys.exit(f"perfbench: imported toolqa from {toolqa.__file__}, not from {src}")
    # Only this one file of the test suite is used, so load it by path
    # rather than putting tests/ on the import path.
    spec = importlib.util.spec_from_file_location("oracles", oracles)
    sys.modules["oracles"] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def reported_metrics(trace: int) -> list[dict]:
    """The metrics the result line carries, with their units, as listed in
    the checkout's BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    listed = reported_metrics(args.trace)
    import harness

    result = harness.run(args)
    measured = result["metrics"]
    # The result line holds a number for every listed metric. A layer the
    # workload never exercises has no figure; it reads 0 there and is
    # named in "not_exercised" in the result file.
    result["not_exercised"] = [m["name"] for m in listed if m["name"] not in measured]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    result["metrics"] = metrics
    out = harness.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print("env: " + json.dumps(result["stamp"]))
    print(f"records: attempted {result['attempted']}, failed {result['failed']} "
          f"(records_failed_share {result['records_failed_share']:.6g}), "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    unscaled = result["unscaled_metrics"] or {}
    for name, m in metrics.items():
        if name in result["not_exercised"]:
            note = "  (not exercised by this workload)"
        elif unscaled.get(name, m["value"]) != m["value"]:
            note = f"  (as measured {unscaled[name]:.6g})"
        else:
            note = ""
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}{note}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
