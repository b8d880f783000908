"""Every operator's delta rule: ``op(new) = op(old) ⊎ delta`` as a multiset.

Each fragment type of the factored plan (:mod:`repro.pdms.planning`)
carries one ``delta`` rule, and the evaluator applies it for two callers
that differ only in how a child's delta is obtained:

* **append** — a scan's delta is the block of rows appends added to its
  relation; an interior fragment's children deltas are those of the
  children that moved (exact, or a superset from a union below);
* **growth** — after a peer joins, a union's added branch contributes its
  whole table and a grown child its growth (a superset when it came from
  a union).  Scans never grow.

For random column tables and random operator shapes, the stepped table —
the old table plus the delta, stripped of the rows the old table holds
unless the rule calls it exact (what ``_Evaluation._step`` does) — must
equal the operator recomputed over the new inputs, as a multiset.  The
properties run on the NumPy kernels and, in a subprocess whose ``numpy``
is a stub that raises on import, on the list-backed fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database.columnar import ColumnTable, rows_absent, scan_columns, union_all
from repro.datalog import parse_atom
from repro.datalog.indexing import WILDCARD
from repro.pdms.planning import (
    JoinFragment,
    UnionBranch,
    UnionFragment,
    UnionPlan,
    _column_names,
    _renames,
)

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
CALLERS = ("append", "growth")
OPS = ("=", "!=", "<", "<=", ">", ">=")
values = st.integers(min_value=0, max_value=3)


def rows_of(width: int, max_size: int = 8):
    return st.sets(st.tuples(*[values] * width), max_size=max_size)


def table(width: int, rows) -> ColumnTable:
    return ColumnTable.from_rows(_column_names(width), sorted(rows))


def bag(ct: ColumnTable) -> Counter:
    return Counter(ct.iter_rows())


@st.composite
def child_change(draw, width: int, caller: str, may_be_added: bool = False):
    """One child: its rows before and after, and the delta its caller hands
    the rule — ``None`` (unchanged), ``(rows, exact)``; for a growth, an
    added branch (no rows before) hands its whole table."""
    old = draw(rows_of(width))
    kind = draw(st.sampled_from(
        ("same", "grew", "added") if may_be_added and caller == "growth" else ("same", "grew")
    ))
    if kind == "same":
        return old, old, None
    if kind == "added":
        return None, old, (table(width, old), True)
    added = draw(rows_of(width, max_size=4)) - old
    exact = draw(st.booleans())
    # A superset delta (a union's, below) repeats rows the child held.
    extra = set() if exact else draw(st.sets(st.sampled_from(sorted(old)), max_size=3)) if old else set()
    return old, old | added, (table(width, added | extra), exact)


def check_step(old: ColumnTable, new: ColumnTable, found) -> None:
    """The step of ``old`` by the rule's ``(rows, exact)`` is ``new``."""
    rows, exact = found
    if not exact and len(rows):
        rows = rows_absent(rows, old)
    stepped = union_all([old, rows], old.columns) if len(rows) else old
    assert bag(stepped) == bag(new), (found[1], sorted(bag(stepped) - bag(new)),
                                      sorted(bag(new) - bag(stepped)))


@given(
    args=st.lists(st.sampled_from(["x", "y", "z", "0", "1"]), min_size=1, max_size=4),
    old=st.sets(st.tuples(values, values, values, values), max_size=10),
    added=st.sets(st.tuples(values, values, values, values), max_size=6),
)
@SETTINGS
def test_a_scan_gains_the_rows_appended_to_its_relation(args, old, added):
    """Append only: a scan's delta is its relation's added rows, filtered
    and projected — exact."""
    width = len(args)
    atom = parse_atom(f"r({', '.join(args)})")
    scan = UnionPlan(SimpleNamespace(rewritings=lambda: iter(())))._scan_fragment(atom)

    def block(rows):
        matching = {
            row[:width] for row in rows
            if all(p is WILDCARD or row[i] == p for i, p in enumerate(scan.pattern))
        }
        return ColumnTable.from_rows(scan_columns(width), sorted(matching))

    stored = {row[:width] for row in old}
    appended = {row[:width] for row in added} - stored
    found = scan.delta([(block(appended), True)], None)
    assert found[1] is True
    check_step(scan.combine((block(stored),)), scan.combine((block(stored | appended),)), found)


@st.composite
def join_cases(draw):
    """A join of two children with ``shared`` columns, placed in random
    positions of its namespace, and a change to each child."""
    caller = draw(st.sampled_from(CALLERS))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shared = draw(st.integers(0, min(a, b)))
    width = a + b - shared
    left_map = draw(st.permutations(range(width)))[:a]
    rest = [p for p in range(width) if p not in left_map]
    right_map = draw(st.permutations(draw(st.permutations(left_map))[:shared] + rest))
    node = JoinFragment(
        "J", "L", "R", _renames(tuple(right_map)), _column_names(width),
        _renames(tuple(left_map)),
    )
    return node, draw(child_change(a, caller)), draw(child_change(b, caller))


@given(case=join_cases())
@SETTINGS
def test_a_join_gains_each_moved_sides_delta_joined_with_the_other_side(case):
    node, (left_old, left_new, left_delta), (right_old, right_new, right_delta) = case
    a, b = len(node.left_rename), len(node.right_rename)
    now = {"L": table(a, left_new), "R": table(b, right_new)}
    found = node.delta([left_delta, right_delta], now.__getitem__)
    old = node.combine([table(a, left_old), table(b, right_old)])
    check_step(old, node.combine([now["L"], now["R"]]), found)
    moved = [delta for delta in (left_delta, right_delta) if delta is not None]
    assert found[1] == (len(moved) == 1 and moved[0][1])


operands = st.one_of(
    st.builds(lambda i: ("col", f"_f{i}"), st.integers(0, 2)),
    st.builds(lambda v: ("const", v), values),
)


@st.composite
def union_cases(draw):
    """A union of branches over children of width 3 (some shared), each
    with random comparisons and a head of columns and constants, and a
    change to each child."""
    caller = draw(st.sampled_from(CALLERS))
    width = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    keys = [f"b{draw(st.integers(0, i))}" for i in range(count)]
    branches = tuple(
        UnionBranch(
            key,
            tuple(draw(st.lists(st.tuples(operands, st.sampled_from(OPS), operands), max_size=2))),
            tuple(draw(st.lists(operands, min_size=width, max_size=width))),
            f"<rule:{position}>",
        )
        for position, key in enumerate(keys)
    )
    node = UnionFragment("U", branches, _column_names(width))
    changes = {key: draw(child_change(3, caller, may_be_added=True)) for key in dict.fromkeys(keys)}
    return node, changes


@given(case=union_cases())
@SETTINGS
def test_a_union_gains_its_changed_branches_mapped_and_deduplicated(case):
    node, changes = case
    now = {key: table(3, new) for key, (_, new, _) in changes.items()}
    found = node.delta([changes[key][2] for key in node.children()], now.__getitem__)
    assert found[1] is False
    old = node.combine([
        None if changes[key][0] is None else table(3, changes[key][0])
        for key in node.children()
    ])
    check_step(old, node.combine([now[key] for key in node.children()]), found)


def test_the_rules_hold_on_the_list_backed_kernels(tmp_path):
    """The same properties with ``numpy`` a stub that raises on import."""
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text('raise ImportError("numpy is hidden")\n')
    root = Path(__file__).resolve().parents[2]
    code = (
        "from repro.database import columnar\n"
        "assert not columnar.HAVE_NUMPY\n"
        "from tests.property import test_delta_rule_properties as t\n"
        "t.test_a_scan_gains_the_rows_appended_to_its_relation()\n"
        "t.test_a_join_gains_each_moved_sides_delta_joined_with_the_other_side()\n"
        "t.test_a_union_gains_its_changed_branches_mapped_and_deduplicated()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(root / "src"), str(root)]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
