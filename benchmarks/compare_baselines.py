"""Benchmark-regression guard: compare BENCH_*.json headline ratios.

Usage::

    python benchmarks/compare_baselines.py BASELINE_DIR CANDIDATE_DIR \
        [--tolerance 0.30] [--allow-mode-mismatch]

Compares the *headline ratios* of every known ``BENCH_*.json`` present in
both directories and exits non-zero when any candidate ratio regresses by
more than ``--tolerance`` (default 30%) relative to the committed
baseline.  Only dimensionless, higher-is-better ratios (speedups, hit
rates, sharing fractions) are guarded — absolute seconds depend on the
machine and would false-alarm on every hardware change, while ratios are
approximately transferable.

Files whose ``quick_mode`` flag differs between baseline and candidate
are skipped by default (quick workloads legitimately produce different
ratios); pass ``--allow-mode-mismatch`` to compare them anyway.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Headline metrics per benchmark file: dotted paths into the JSON plus a
#: noise class, every one dimensionless and higher-is-better.
#:
#: ``exact`` metrics are deterministic for a given workload (hit rates,
#: sharing fractions) and are guarded at the CLI tolerance (default 30%).
#: ``timing`` metrics are wall-clock speedups whose run-to-run drift on a
#: shared runner routinely exceeds 30% (small warm denominators), so they
#: are guarded at the wider :data:`TIMING_TOLERANCE` — loose enough not
#: to flake, tight enough to catch an order-of-magnitude regression.
HEADLINES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "BENCH_service.json": (
        ("cases.cache_hit_vs_cold.reformulation_speedup", "timing"),
        ("cases.cache_hit_vs_cold.answer_speedup", "timing"),
        ("cases.churn_throughput.speedup_vs_starved", "timing"),
        ("cases.churn_throughput.hit_rate", "exact"),
    ),
    "BENCH_union_plan.json": (
        ("cases.shared_vs_per_rewriting.speedup_vs_backtracking", "timing"),
        ("cases.shared_vs_per_rewriting.shared_reference_fraction", "exact"),
        ("cases.federated_vs_combine.federation_speedup", "timing"),
    ),
    "BENCH_materialization.json": (
        ("cases.warm_vs_cold.warm_speedup", "timing"),
        ("cases.write_mix.fragment_hit_rate", "exact"),
    ),
    "BENCH_columnar.json": (
        ("cases.kernel_vs_row.join_speedup", "timing"),
        ("cases.kernel_vs_row.fused_select_speedup", "timing"),
    ),
    "BENCH_distributed.json": (
        ("cases.scatter_gather.speedup_vs_serial", "timing"),
        ("cases.transport_overhead.loopback_relative_throughput", "timing"),
        ("cases.concurrent_clients.concurrency_speedup", "timing"),
    ),
    "BENCH_tail_latency.json": (
        ("cases.retry_completeness.healed_complete", "exact"),
        ("cases.delta_vs_full.rows_ratio", "exact"),
    ),
    "BENCH_observability.json": (
        ("cases.tracing_off.overhead_margin", "timing"),
        ("cases.tracing_on.off_vs_on_ratio", "timing"),
    ),
    # BENCH_eval.json records absolute per-case timings only (no
    # machine-portable ratios), so it has nothing to guard here.
}

#: Allowed fractional regression for ``timing`` metrics.
TIMING_TOLERANCE = 0.60


def _lookup(document: dict, dotted: str) -> Optional[float]:
    node = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def compare_file(
    name: str,
    baseline: dict,
    candidate: dict,
    tolerance: float,
    allow_mode_mismatch: bool,
) -> Tuple[List[str], List[str]]:
    """Returns (failures, notes) for one benchmark file."""
    failures: List[str] = []
    notes: List[str] = []
    if (
        baseline.get("quick_mode") != candidate.get("quick_mode")
        and not allow_mode_mismatch
    ):
        notes.append(
            f"{name}: skipped (quick_mode {baseline.get('quick_mode')} vs "
            f"{candidate.get('quick_mode')}; ratios are not comparable "
            f"across workload sizes)"
        )
        return failures, notes
    for path, kind in HEADLINES[name]:
        base_value = _lookup(baseline, path)
        cand_value = _lookup(candidate, path)
        if base_value is None:
            notes.append(f"{name}: {path} absent from baseline (new metric)")
            continue
        if cand_value is None:
            failures.append(
                f"{name}: {path} missing from candidate (was {base_value:.3g})"
            )
            continue
        allowed = max(tolerance, TIMING_TOLERANCE) if kind == "timing" else tolerance
        floor = base_value * (1.0 - allowed)
        status = "OK" if cand_value >= floor else "REGRESSED"
        line = (
            f"{name}: {path} [{kind}]: baseline {base_value:.3g}, "
            f"candidate {cand_value:.3g}, floor {floor:.3g} -> {status}"
        )
        notes.append(line)
        if cand_value < floor:
            failures.append(line)
    return failures, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=Path,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("candidate_dir", type=Path,
                        help="directory holding the freshly recorded BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--allow-mode-mismatch", action="store_true",
                        help="compare files even when quick_mode differs")
    args = parser.parse_args(argv)

    all_failures: List[str] = []
    compared = 0
    for name in sorted(HEADLINES):
        base_path = args.baseline_dir / name
        cand_path = args.candidate_dir / name
        if not base_path.exists():
            print(f"{name}: no committed baseline; skipping")
            continue
        if not cand_path.exists():
            all_failures.append(
                f"{name}: baseline exists but candidate run produced no file"
            )
            continue
        baseline = json.loads(base_path.read_text())
        candidate = json.loads(cand_path.read_text())
        failures, notes = compare_file(
            name, baseline, candidate, args.tolerance, args.allow_mode_mismatch
        )
        for note in notes:
            print(note)
        compared += 1
        all_failures.extend(failures)

    if all_failures:
        print(f"\n{len(all_failures)} headline regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for failure in all_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall guarded headlines within {args.tolerance:.0%} "
          f"({compared} file(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
