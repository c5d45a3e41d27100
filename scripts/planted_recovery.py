#!/usr/bin/env python3
"""Recovery-rate sweep on planted instances.

For each gap threshold and gap rule, run the pipeline over a batch of
seeded planted dual networks and report how often the planted set is
returned exactly.  Useful for choosing delta on data with known detour
structure.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualdense import (ConfigError, DcsOptions, GapWeightRule, extract_dcs,
                       generate_planted)
from dualdense.align import delta_doc, parse_delta


def delta_list(text: str) -> list[float]:
    try:
        return [parse_delta(tok) for tok in text.split(",")]
    except ConfigError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers or 'inf', got {text!r}") from None


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=30)
    ap.add_argument("--planted-size", type=int, default=6)
    ap.add_argument("--runs", type=positive_int, default=50)
    ap.add_argument("--deltas", type=delta_list, default="1,2,3,4,inf")
    ap.add_argument("--background-weight-cap", type=float, default=0.1)
    args = ap.parse_args()

    # Every instance is built before any output, so a bad size or cap ends
    # in a usage error; each is then solved under every delta and rule.
    try:
        instances = [generate_planted(args.nodes, args.planted_size, seed=seed,
                                      background_weight_cap=args.background_weight_cap)
                     for seed in range(args.runs)]
    except ConfigError as exc:
        ap.error(str(exc))
    print(f"n={args.nodes} k={args.planted_size} runs={args.runs} "
          f"cap={args.background_weight_cap}")
    print(f"{'delta':>6} {'gap rule':>12} {'recovered':>10} {'avg size':>9} {'time':>7}")
    for delta in args.deltas:
        for rule in GapWeightRule:
            hits = 0
            sizes = 0
            t0 = time.monotonic()
            for inst in instances:
                result = extract_dcs(inst.dual, DcsOptions(delta=delta, gap_mode=rule))
                sizes += len(result.nodes)
                if result.nodes == inst.planted and not result.connector_nodes:
                    hits += 1
            elapsed = time.monotonic() - t0
            print(f"{delta_doc(delta):>6} {rule.value:>12} {hits:>6}/{args.runs:<3} "
                  f"{sizes / args.runs:>9.2f} {elapsed:>6.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
