"""Evaluation of a compiled union plan (:mod:`repro.pdms.planning`).

:func:`plan_answer_batches` — the one root loop of the plan path —
evaluates fragments as :class:`~repro.database.columnar.ColumnTable`
batches, in the caller's thread, against any fact source (upgraded to an
:class:`~repro.datalog.indexing.IndexedFactSource` so leaf scans probe
hash indexes) with a compute-once memo and yields one *batch* of answer
rows per root: the factored root's for a whole answer, else one per
rewriting, compiling only the prefix a ``limit=k`` consumer reaches.
:func:`evaluate_plan` unions the batches.  An optional
:class:`~repro.pdms.materialization.FragmentCache` persists fragment
tables **across** calls under the data-version token of the relations
they read — assembled from one version snapshot per answer
(:class:`_Evaluation`) — so repeated queries over unchanged data reuse
them.  A stale table is stepped forward instead of recomputed
(:meth:`_Evaluation._step`): after appends by the rows they added, and
after a peer joins, a fragment whose definition grew from the one it
replaces by the rows its new branches add.  Both steps apply each
fragment's one delta rule (``delta`` on the plan's fragment types); they
differ only in how a child's delta is obtained.  With a cache, a plan
also keeps its last whole answer, and the one before it, as frozen sets
beside the root tables they were built from: the next whole answer over
such a root table is that set, one whose root was stepped from it gains
the steps' rows, and over another root table it is maintained by the
rows the two tables differ in (:func:`_whole_answer`).

See ``docs/execution.md`` for the architecture notes.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..database.columnar import ColumnTable, row_difference, rows_absent
from ..database.columnar import scan_block, union_all
from ..database.statistics import source_data_version
from ..datalog.evaluation import FactsLike, as_fact_source
from ..datalog.indexing import ensure_indexed
from ..errors import EvaluationError
from ..obs.trace import current_span
from .materialization import FragmentCache
from .planning import PlanFragment, RewritingPlan, Row, ScanFragment, UnionPlan
from .planning import _column_names, _columnar_branch


def _source_block(source, method: str, relation: str, *args):
    """``source.<method>(relation, *args)`` with the scan boundary's
    data-error contract: a width clash raises :class:`EvaluationError`."""
    try:
        return getattr(source, method)(relation, *args)
    except ValueError as exc:
        raise EvaluationError(f"relation {relation!r}: {exc}") from exc


class _Degraded(Exception):
    """Carries a fragment table whose build spanned a snapshot restart past
    the cross-call cache (a raising ``compute`` is never admitted)."""

    def __init__(self, value):
        super().__init__("built across a version-snapshot restart")
        self.value = value


class _Evaluation:
    """One answer's evaluation of a plan: the compute-once fragment memo
    plus everything resolved once at the call boundary.

    An evaluation belongs to the one thread that drives its answer: a
    remote source's hooks run in that thread, and its scatter threads
    only fill the source's scan memo, so the fragment memo is a plain dict.

    **Version snapshot.**  A relation's data version is read from the
    source at most once per answer (``versions``, filled on first use) and
    every fragment token is assembled from that snapshot.  A scan takes
    its rows at the snapshot: a source with ``tagged_block`` says which
    version its rows are exactly at, and a scan whose rows are at another
    version (a write landed after the snapshot was read) restarts it, so
    no table is ever kept under a token its rows are not at.  Clearing
    ``versions`` restarts the snapshot — :meth:`restart`, which
    ``after_scan(evaluation)`` (called after every scan performed here)
    may also invoke, for sources whose versions can be *withdrawn*
    mid-answer (a remote relation degrading after a failed scan).  A
    fragment whose build spanned a restart may hold rows of two
    snapshots: it serves this answer only and is never offered to the
    cache.

    **Steps.**  A cached entry whose token is behind the snapshot is
    stepped forward rather than recomputed when what moved under it is
    provably appends (:meth:`_step`): the source's ``delta_block`` hands
    over exactly the rows added between the entry's token and the
    snapshot, and the factored plan's delta rules carry them to the
    entry.  A fragment a seeded plan grew from a predecessor
    (``UnionPlan._since``) and the cache lacks is stepped from the
    predecessor's entry instead, by the rows its new definition adds.
    ``stepped`` keeps each step's old table, delta and
    predecessor, for the whole answer built on the root
    (:func:`_whole_answer`).
    """

    __slots__ = (
        "plan", "source", "cache", "memo", "versions", "after_scan", "restarts",
        "stepped",
    )

    def __init__(
        self,
        plan: UnionPlan,
        source,
        cache: Optional[FragmentCache] = None,
        after_scan=None,
    ):
        self.plan = plan
        self.source = source
        self.cache = cache
        self.memo: Dict[str, ColumnTable] = {}
        self.versions: Dict[str, object] = {}
        self.after_scan = after_scan
        self.restarts = 0
        self.stepped: Dict[str, Tuple[ColumnTable, ColumnTable, Optional[str]]] = {}

    def restart(self) -> None:
        """Stop trusting the version snapshot (see the class docstring)."""
        self.versions.clear()
        self.restarts += 1

    def token(self, key: str):
        """Fragment ``key``'s data-version token under this answer's
        snapshot (``None``: the source has no version for a relation)."""
        relations = self.plan.token_relations(key)
        versions = self.versions
        for relation in relations:
            if relation not in versions:
                versions[relation] = source_data_version(self.source, relation)
        values = [versions[relation] for relation in relations]
        return None if None in values else tuple(zip(relations, values))

    def cached(self, key: str) -> bool:
        """Would :meth:`table` be served without computing (or scanning)?"""
        if self.cache is None or not self.plan.nodes[key].worth_caching:
            return False
        token = self.token(key)
        return token is not None and self.cache.peek(key, token)

    def table(self, key: str) -> ColumnTable:
        """The table of fragment ``key``, computed at most once per answer."""
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self._lookup(key)
        return value

    def _lookup(self, key: str) -> ColumnTable:
        node = self.plan.nodes[key]
        try:
            if self.cache is not None and node.worth_caching:
                token = self.token(key)
                if token is not None:
                    return self.cache.get_or_compute(
                        key, token, self.plan.token_relations(key), self._build, key, node,
                        step=self._step, since=self._since(key),
                    )
            return self._build(key, node)
        except _Degraded as degraded:
            return degraded.value

    def _since(self, key: str) -> Optional[Tuple[str, object]]:
        """``(predecessor, token)`` fragment ``key`` may step from: current
        (an entry off the answers' path may be far behind), or at any token
        for the factored root, whose predecessor was the last answers' root."""
        found = self.plan._since.get(key)
        if found is None:
            return None
        return found[0], None if key == self.plan._root else self.token(found[0])

    def _build(self, key: str, node: PlanFragment) -> ColumnTable:
        """Evaluate ``node`` from its children's tables (or the source).

        A build the snapshot restarted beneath raises its table as
        :class:`_Degraded`, past the cache."""
        restarts = self.restarts
        span = current_span()
        if span.recording:
            span = span.child("fragment.eval", key=key[:80], kind=node.kind)
        with span:
            if not isinstance(node, ScanFragment):
                value = node.combine([self.table(child) for child in node.children()])
            else:
                value = node.combine((self._scan_block(node),))
                if self.after_scan is not None:
                    self.after_scan(self)
            if span.recording:
                span.set("rows", len(value))
        if self.restarts != restarts:
            raise _Degraded(value)
        return value

    def _scan_block(self, node: ScanFragment) -> ColumnTable:
        """The scan block of ``node``'s relation at this answer's snapshot."""
        if not hasattr(self.source, "tagged_block"):
            return scan_block(self.source, node.relation, node.pattern)
        tag, block = _source_block(self.source, "tagged_block", node.relation, node.pattern)
        snapshot = self.versions.setdefault(node.relation, tag)
        if snapshot is not None and snapshot != tag:
            self.restart()
        return block

    # -- steps ---------------------------------------------------------------

    def _step(self, old_token, old_value: Optional[ColumnTable], token, key: str, node):
        """``(new table, delta)`` of the cached entry ``old_value`` of ``key``
        at ``old_token``, stepped to ``token`` by the rows appends added in
        between, or ``None`` when that change is not provably appends.
        With no ``old_value``, ``key`` is stepped from its predecessor's
        table at the snapshot instead, by the rows its definition grew by
        (:meth:`_growth`).

        The delta is stripped of the rows the old table already holds
        unless it is exact — probed against a kept answer's rows when the
        old table is one a kept answer was built from (:meth:`_new_rows`)."""
        restarts = self.restarts
        since = None
        if old_value is None:
            since = self.plan._since[key][0]
            delta, exact = self._growth(key)
            old_value = self.table(since)
        else:
            found = self._append_delta(key, dict(old_token), dict(token))
            if found is None:
                return None
            delta, exact = found
        if len(delta) and not exact:
            delta = self._new_rows(delta, old_value, since or key)
        value = union_all([old_value, delta]) if len(delta) else old_value
        self.stepped[key] = (old_value, delta, since)
        if self.restarts != restarts:
            raise _Degraded(value)
        return value, delta

    def _growth(self, key: str) -> Tuple[ColumnTable, bool]:
        """``(rows, exact)``: the rows fragment ``key``'s table adds to its
        predecessor's — the step's, if this answer stepped ``key`` from
        there; else, leaving ``key`` unbuilt, its delta rule's over the
        children it grew by: an added union branch's whole table, and a
        child with a predecessor's growth."""
        since = self.plan._since
        stepped = self.stepped.get(key)
        if stepped is not None and stepped[2] == since[key][0]:
            return stepped[1], True
        node, added = self.plan.nodes[key], since[key][1]
        return node.delta([
            (self.table(child), True) if position in added
            else self._growth(child) if child in since
            else None
            for position, child in enumerate(node.children())
        ], self.table)

    def _append_delta(self, key: str, since: Dict[str, object], now: Dict[str, object]):
        """``(rows, exact)``: rows fragment ``key`` gained between the two
        version maps, or ``None`` when the change is not provably appends.

        A scan's delta rule reads the rows the source says appends added to
        its relation (``delta_block``); any other fragment's reads the
        deltas of its children that moved.  Every row of a delta is in the
        fragment at the snapshot, so stripping the rows the old table holds
        (:meth:`_new_rows`) makes any of them exact."""
        node = self.plan.nodes[key]
        if isinstance(node, ScanFragment):
            if not hasattr(self.source, "delta_block"):
                return None
            block = _source_block(
                self.source, "delta_block", node.relation, node.pattern,
                since[node.relation], now[node.relation],
            )
            return None if block is None else node.delta([(block, True)], self.table)
        deltas = []
        for child in node.children():
            moved = any(since[r] != now[r] for r in self.plan.token_relations(child))
            found = self._append_delta(child, since, now) if moved else None
            if moved and found is None:
                return None
            deltas.append(found)
        return node.delta(deltas, self.table)

    def _new_rows(self, delta: ColumnTable, old_value: ColumnTable, key: str) -> ColumnTable:
        """The rows of ``delta`` that ``old_value``, fragment ``key``'s
        table, lacks: probed against a kept answer's rows when that answer
        was built from ``old_value`` — or from the table this answer
        stepped ``key`` from, plus the step's rows — (O(delta)), else
        anti-joined with ``old_value``."""
        stepped = self.stepped.get(key)
        for table, extra in ((old_value, None), stepped[:2] if stepped else (None, None)):
            kept = [k for k in (self.plan._answer, self.plan._base) if k and k[0] is table]
            if kept:
                rows, more = kept[0][1], frozenset(extra.iter_rows()) if extra else ()
                return delta.select_mask([
                    row not in rows and row not in more for row in delta.iter_rows()
                ])
        return rows_absent(delta, old_value)

    def root_rows(self, rewriting_plan: RewritingPlan) -> List[Row]:
        """One rewriting's answer rows: comparisons + head projection over
        its root fragment (a batch; it may repeat a row)."""
        head = _column_names(len(rewriting_plan.head))
        table = self.table(rewriting_plan.root_key)
        return list(_columnar_branch(table, rewriting_plan, head).iter_rows())


def plan_answer_batches(
    plan: UnionPlan,
    data: FactsLike,
    cache: Optional[FragmentCache] = None,
    before_root=None,
    whole: bool = False,
    after_scan=None,
    metrics=None,
) -> Iterator[Iterable[Row]]:
    """Evaluate the union plan root by root: one *batch* of answer rows per
    rewriting, in enumeration order, as its fragments evaluate.

    ``whole`` promises that the caller consumes every batch (a whole
    answer): unless the factored compile declined the tree, the plan's one
    :meth:`~UnionPlan.factored_root` is evaluated and its distinct rows are
    the only batch, a ``frozenset`` (:func:`_whole_answer`).

    This is the one root loop of the plan path, run in the
    calling thread, on :mod:`repro.database.columnar` batches.  A batch is
    whatever iterable of rows the root produced (rows may repeat within
    and across batches); consumers union batches with C-level set
    operations (:func:`union_rows`) or flatten them lazily
    (:func:`distinct_rows`).  Consuming a prefix never forces the
    remaining roots — nor their compilation, which tracks the rewriting
    stream.  Shared fragments come from the per-call memo.

    ``cache`` (optional) is a cross-call
    :class:`~repro.pdms.materialization.FragmentCache`: fragment tables
    are served from (and offered to) it under data-version tokens
    assembled from one version snapshot per call (see
    :class:`_Evaluation`), on top of the per-call memo.  Sources without
    per-relation data versions bypass the cache automatically.

    ``before_root`` (optional) is called as ``before_root(evaluation,
    root_key)`` before each root is evaluated — the hook a remote source
    prefetches the root's scans through (its ``answer_hooks()``);
    ``after_scan(evaluation)`` runs after every scan evaluation performs.
    ``metrics`` (optional) is the registry a factored whole answer counts
    itself in (``answer.reused`` / ``.maintained`` / ``.built``).
    """
    source = ensure_indexed(as_fact_source(data))
    evaluation = _Evaluation(plan, source, cache, after_scan)
    root_key = plan.factored_root() if whole else None
    if root_key is not None:
        if before_root is not None:
            before_root(evaluation, root_key)
        table = evaluation.table(root_key)
        yield _whole_answer(plan, table, cache, metrics, root_key, evaluation.stepped)
        return
    for rewriting_plan in plan.fragments():
        if before_root is not None:
            before_root(evaluation, rewriting_plan.root_key)
        yield evaluation.root_rows(rewriting_plan)


def distinct_rows(batches: Iterable[Iterable[Row]]) -> Iterator[Row]:
    """Flatten ``batches`` into distinct rows, lazily: a batch is pulled
    only when the rows before it are consumed, so first-k stays lazy."""
    seen: Set[Row] = set()
    for batch in batches:
        for row in batch:
            if row not in seen:
                seen.add(row)
                yield row


def union_rows(
    batches: Iterable[Iterable[Row]], limit: Optional[int] = None
) -> FrozenSet[Row]:
    """Union ``batches`` into one answer set — whole batches at a time —
    or, with ``limit``, into the first ``limit`` distinct rows (pulling no
    batch beyond the one that completes them)."""
    if limit is not None:
        return frozenset(islice(distinct_rows(batches), limit))
    answers: Union[FrozenSet[Row], Set[Row], None] = None
    for batch in batches:
        if answers is None:
            # A whole answer is handed on as it is; a plain set was made
            # for this answer and may be extended in place.
            answers = batch if type(batch) in (set, frozenset) else set(batch)
        else:
            if type(answers) is frozenset:
                answers = set(answers)
            answers.update(batch)
    if answers is None:
        return frozenset()
    return answers if type(answers) is frozenset else frozenset(answers)


def _answer_bytes(table: ColumnTable, rows: FrozenSet[Row]) -> int:
    """Estimated footprint of a kept answer: its root table, the set, and
    per row one tuple (40 bytes + 8 a slot) of fresh values (~28 bytes)."""
    width = len(table.columns)
    return (
        table.estimated_bytes() + sys.getsizeof(rows) + len(rows) * (40 + 36 * width)
    )


def _whole_answer(
    plan: UnionPlan,
    table: ColumnTable,
    cache: Optional[FragmentCache],
    metrics,
    root_key: Optional[str] = None,
    stepped: Optional[Dict[str, Tuple[ColumnTable, ColumnTable, Optional[str]]]] = None,
) -> FrozenSet[Row]:
    """The rows of ``table``, the factored root's table in a whole answer.

    A plan keeps up to two answers: its last one and a *base*.  A kept
    answer is *reused* when it was built from ``table`` itself (a
    fragment-cache hit).  When this answer *stepped* the root to
    ``table`` from a kept answer's table — directly, or through the
    predecessor it was stepped from (``stepped``: per fragment, the old
    table, the rows added, none of them in it, and the predecessor) — the
    kept rows gain exactly the steps' rows.  Otherwise the last answer is
    *maintained* by the rows the two root tables differ in
    (:func:`row_difference`): only those rows become tuples.  Every row
    is *built* when no answer is kept or the tables have no exact
    difference.  Correctness does not depend on which answers are kept:
    the difference is taken on content.

    With a fragment cache the result becomes the last answer; the base is
    the predecessor's answer a step passed, else the kept answer not
    started from — after a peer leaves, the one kept from before it
    joined.  Each is kept if it passes the cache's admission rule, and
    each slot is replaced whole, so concurrent answers leave consistent
    (table, rows) pairs.
    """
    kept = [answer for answer in (plan._answer, plan._base) if answer is not None]
    steps, key, current = [], root_key, table
    while True:
        match = next((answer for answer in kept if answer[0] is current), None)
        step = stepped.get(key) if match is None and stepped else None
        if step is None:
            break
        steps.append(step)
        current, key = step[0], step[2]
    base = None
    if match is not None:
        outcome, rows, delta = "stepped" if steps else "reused", match[1], 0
        for old, added, since in reversed(steps):
            if since is not None:
                base = (old, rows, _answer_bytes(old, rows))
            if len(added):
                rows = rows.union(added.iter_rows())
            delta += len(added)
    elif kept and (diff := row_difference(kept[0][0], table)) is not None:
        match, (removed, added) = kept[0], diff
        outcome, rows, delta = "maintained", match[1], len(removed) + len(added)
        if len(removed):
            rows = rows.difference(removed.iter_rows())
        if len(added):
            rows = rows.union(added.iter_rows())
    else:
        outcome, rows, delta = "built", frozenset(table.iter_rows()), len(table)
    if cache is not None and not (outcome == "reused" and match is plan._answer):
        if base is None:
            base = next((answer for answer in kept if answer is not match), None)
        answer = match if outcome == "reused" else (table, rows, _answer_bytes(table, rows))
        plan._answer, plan._base = [
            held if held is not None and cache.admits(held[2]) else None
            for held in (answer, base)
        ]
    span = current_span()
    if span.recording:
        span.set("answer", outcome)
        span.set("answer.delta_rows", delta)
    if metrics is not None:
        metrics.counter(f"answer.{outcome}").inc()
    return rows


def evaluate_plan(
    plan: UnionPlan,
    data: FactsLike,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
    columnar: bool = True,
) -> FrozenSet[Row]:
    """Evaluate the whole union plan (or the first ``limit`` answers).

    Fragments always evaluate on column batches; ``columnar`` is kept for
    callers that say so explicitly, and ``False`` raises."""
    if not columnar:
        raise EvaluationError(
            "evaluate_plan(columnar=False): plans evaluate on column batches "
            "only; the row fragment path no longer exists"
        )
    if limit is not None and limit < 0:
        raise EvaluationError(f"limit must be non-negative, got {limit}")
    if limit == 0:
        return frozenset()
    return union_rows(
        plan_answer_batches(plan, data, cache, whole=limit is None), limit
    )
