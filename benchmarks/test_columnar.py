"""Columnar batch-execution benchmarks (ISSUE 6).

Backs the acceptance criterion: the vectorized equi-join / fused-select
kernels are at least 5× faster than the row algebra (the test oracle
``tests.oracles.Table``) on a large join whose inputs are already columnar
(asserted only when NumPy is installed — the pure-Python fallback is a
compatibility path, not a fast path).

``BENCH_columnar.json`` is written next to this file when
``EVAL_BENCH_RECORD=1``; ``EVAL_BENCH_QUICK=1`` shrinks the workloads.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.database import HAVE_NUMPY
from tests.oracles import Table, from_table

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Rows per side of the kernel microbenchmark join.
KERNEL_ROWS = 30000 if QUICK else 200000
#: Join-key domain for the microbenchmark (dense enough for ~1 match/row).
KERNEL_DOMAIN = 30000 if QUICK else 200000


def _best_seconds(callable_: Callable[[], object], rounds: int) -> float:
    """Best-of-N timing — robust to scheduler noise, used for assertions."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_columnar.json when asked to."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_columnar.json"
    path.write_text(
        json.dumps(
            {"quick_mode": QUICK, "numpy": HAVE_NUMPY, "cases": results},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_kernels_beat_row_algebra(baseline_recorder):
    """Acceptance gate: ≥ 5× on a large equi-join, inputs already columnar."""
    rng = random.Random(3)
    left_rows = {
        (rng.randrange(KERNEL_DOMAIN), rng.randrange(64))
        for _ in range(KERNEL_ROWS)
    }
    right_rows = {
        (rng.randrange(KERNEL_DOMAIN), rng.randrange(64))
        for _ in range(KERNEL_ROWS)
    }
    left = Table(("k", "a"), left_rows)
    right = Table(("k", "b"), right_rows)
    left_ct = from_table(left)
    right_ct = from_table(right)

    expected = left.natural_join(right)
    joined = left_ct.natural_join(right_ct)
    assert set(joined.iter_rows()) == set(expected.rows)

    rounds = 3 if QUICK else 5
    row_join = _best_seconds(lambda: left.natural_join(right), rounds)
    kernel_join = _best_seconds(
        lambda: left_ct.natural_join(right_ct), rounds)
    join_speedup = row_join / kernel_join

    # Fused select: constant filter + column equality, one pass.
    wide = Table(
        ("x", "y", "z"),
        {(rng.randrange(64), rng.randrange(64), rng.randrange(64))
         for _ in range(KERNEL_ROWS)},
    )
    wide_ct = from_table(wide)
    assert set(wide_ct.fused_select(
        const_filters=[(0, 7)], equal_pairs=[(1, 2)]
    ).iter_rows()) == set(wide.select_eq("x", 7).select_columns_equal("y", "z").rows)
    row_select = _best_seconds(
        lambda: wide.select_eq("x", 7).select_columns_equal("y", "z"), rounds)
    kernel_select = _best_seconds(
        lambda: wide_ct.fused_select(const_filters=[(0, 7)],
                                     equal_pairs=[(1, 2)]),
        rounds,
    )
    select_speedup = row_select / kernel_select

    baseline_recorder["kernel_vs_row"] = {
        "rows_per_side": float(KERNEL_ROWS),
        "join_result_rows": float(len(joined)),
        "row_join_seconds": row_join,
        "kernel_join_seconds": kernel_join,
        "join_speedup": join_speedup,
        "row_select_seconds": row_select,
        "kernel_select_seconds": kernel_select,
        "fused_select_speedup": select_speedup,
    }
    if HAVE_NUMPY:
        assert join_speedup >= 5.0, (
            f"join kernel only {join_speedup:.1f}x faster than the row "
            f"algebra ({kernel_join * 1e3:.1f} ms vs {row_join * 1e3:.1f} ms)"
        )
