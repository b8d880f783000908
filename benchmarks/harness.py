"""Full experiment harness: regenerates the paper's Figure 3 and Figure 4.

Usage::

    python benchmarks/harness.py --figure 3            # tree size sweep
    python benchmarks/harness.py --figure 4            # rewriting-time sweep
    python benchmarks/harness.py --figure all          # both
    python benchmarks/harness.py --figure 3 --max-diameter 10 --runs 10

The harness prints one table per figure with the same rows/series the paper
plots (diameter on the x axis, one column per %dd series for Figure 3; the
first/tenth/all rewriting times for Figure 4), plus the node-generation
rate the paper quotes in the text.  Absolute numbers differ from the 2003
testbed; the shapes are what compares.

``test_fig3_tree_size.py``, ``test_fig4_rewriting_time.py`` and
``test_node_rate.py`` next to this file check reduced ranges of the same
sweeps in the tier-1 suite; this script is the full-fidelity path.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, List, Optional, Sequence

from bench_common import PAPER_NUM_PEERS, ReformulationSample, average_samples, run_reformulation

#: Series of definitional-mapping percentages plotted in Figure 3.
FIG3_RATIOS = (0.0, 0.10, 0.25, 0.50)
#: Definitional-mapping percentage used in Figure 4.
FIG4_RATIO = 0.10


def _format_float(value: Optional[float], scale: float = 1.0, digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value * scale:.{digits}f}"


def run_figure3(
    diameters: Sequence[int], runs: int, num_peers: int = PAPER_NUM_PEERS
) -> List[dict]:
    """Figure 3: average rule-goal-tree size per (diameter, %dd)."""
    rows = []
    for diameter in diameters:
        row = {"diameter": diameter}
        for ratio in FIG3_RATIOS:
            samples = [
                run_reformulation(diameter, ratio, seed, num_peers=num_peers)
                for seed in range(runs)
            ]
            averages = average_samples(samples)
            row[f"dd={int(ratio * 100)}%"] = averages["tree_nodes"]
            row[f"dd={int(ratio * 100)}%_seconds"] = averages["build_seconds"]
        rows.append(row)
    return rows


def print_figure3(rows: List[dict]) -> None:
    print("\nFigure 3 — #nodes in the rule-goal tree (96-peer PDMS)")
    header = ["diameter"] + [f"dd={int(r * 100)}%" for r in FIG3_RATIOS]
    print("  " + " | ".join(f"{h:>10s}" for h in header))
    print("  " + "-+-".join("-" * 10 for _ in header))
    for row in rows:
        cells = [f"{row['diameter']:>10d}"] + [
            f"{row[f'dd={int(r * 100)}%']:>10.0f}" for r in FIG3_RATIOS
        ]
        print("  " + " | ".join(cells))
    print("\n  node-generation rate (nodes/second of tree-construction time):")
    for row in rows:
        rates = []
        for ratio in FIG3_RATIOS:
            nodes = row[f"dd={int(ratio * 100)}%"]
            seconds = row[f"dd={int(ratio * 100)}%_seconds"]
            rates.append(f"{nodes / seconds:>9.0f}" if seconds else "        -")
        print(f"  {row['diameter']:>10d} " + " | ".join(rates))


def run_figure4(
    diameters: Sequence[int], runs: int, num_peers: int = PAPER_NUM_PEERS
) -> List[dict]:
    """Figure 4: time to the 1st / 10th / all rewritings at dd=10%."""
    rows = []
    for diameter in diameters:
        samples = [
            run_reformulation(
                diameter, FIG4_RATIO, seed, num_peers=num_peers, measure_rewritings=True
            )
            for seed in range(runs)
        ]
        averages = average_samples(samples)
        averages["diameter"] = diameter
        rows.append(averages)
    return rows


def print_figure4(rows: List[dict]) -> None:
    print("\nFigure 4 — running time in milliseconds (96 peers, 10% dd)")
    header = ["diameter", "1st rewriting", "10th rewriting", "all rewritings", "#rewritings"]
    print("  " + " | ".join(f"{h:>14s}" for h in header))
    print("  " + "-+-".join("-" * 14 for _ in header))
    for row in rows:
        print(
            "  "
            + " | ".join(
                [
                    f"{row['diameter']:>14d}",
                    f"{_format_float(row['first_rewriting_seconds'], 1000.0):>14s}",
                    f"{_format_float(row['tenth_rewriting_seconds'], 1000.0):>14s}",
                    f"{_format_float(row['all_rewritings_seconds'], 1000.0):>14s}",
                    f"{_format_float(row['rewriting_count'], 1.0, 0):>14s}",
                ]
            )
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=["3", "4", "all"], default="all")
    parser.add_argument("--max-diameter", type=int, default=8,
                        help="largest PDMS diameter to sweep (paper: 10)")
    parser.add_argument("--max-diameter-fig4", type=int, default=6,
                        help="largest diameter for the all-rewritings sweep "
                             "(step 3 is exponential in it)")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs averaged per data point (paper: 100)")
    parser.add_argument("--num-peers", type=int, default=PAPER_NUM_PEERS)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if args.figure in ("3", "all"):
        diameters = list(range(1, args.max_diameter + 1))
        print_figure3(run_figure3(diameters, args.runs, args.num_peers))
    if args.figure in ("4", "all"):
        diameters = list(range(1, args.max_diameter_fig4 + 1))
        print_figure4(run_figure4(diameters, args.runs, args.num_peers))
    print(f"\ntotal harness time: {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
