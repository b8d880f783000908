"""Shared union-plan IR: compile a reformulation into a common-subplan DAG.

The reformulation algorithm (Section 4 of the paper) builds *one* rule-goal
tree and reads a union of conjunctive rewritings off it, so rewritings
overwhelmingly share sub-conjunctions.  This module compiles a
:class:`~repro.pdms.reformulation.ReformulationResult` into a **union
plan**: a DAG of hash-consed, canonically named fragments in one node
table, filled by two compile front-ends.

*Whole answers* compile the tree itself (:meth:`UnionPlan.factored_root`):
a stored leaf is a :class:`ScanFragment`, a goal node the
:class:`UnionFragment` of its rule children, a rule node the
:class:`JoinFragment` tree of its goal children — cost proportional to the
tree, never to the (possibly exponentially larger) union it encodes, and
one root to evaluate.  *First-k* calls (``limit``, streams) compile
rewriting by rewriting, lazily (:meth:`UnionPlan.fragments`), with a
selection/projection root per rewriting; that enumerated compile is also
the fallback for trees the factored compile declines.

Sharing model
-------------
A conjunction is folded into a tree of scan/join nodes, every fragment
keyed by the *canonical rendering* of its atom multiset — atoms committed
in greedy-lexicographic canonical order, variables positionally renamed,
constants and repeated-variable equalities spelled out — so
alpha-equivalent sub-conjunctions hash to the same node whatever join tree
first built them, and each fragment's table is computed **once per
execution**.  A union is keyed by a digest of its canonical branch list
and joins like a stored atom over its columns.  The shape is **bushy**:
groups are merged pairwise bottom-up, preferring merges whose key already
exists in the node table, then the smallest estimated join output per the
:class:`~repro.database.planner.CardinalityCostModel`.

Execution
---------
:func:`plan_answer_batches` — the one root loop of the plan path —
evaluates fragments as :class:`~repro.database.columnar.ColumnTable`
batches, in the caller's thread, against any fact source (upgraded to an
:class:`~repro.datalog.indexing.IndexedFactSource` so leaf scans probe
hash indexes) with a compute-once memo and yields one *batch* of answer
rows per root: the factored root's for a whole answer, else one per
rewriting, compiling only the prefix a ``limit=k`` consumer reaches.
:func:`evaluate_plan` unions the batches; :func:`stream_plan_answers` is
the lazy row view.  An optional
:class:`~repro.pdms.materialization.FragmentCache` persists fragment
tables **across** calls under the data-version token of the relations
they read — assembled from one version snapshot per answer
(:class:`_Evaluation`) — so repeated queries over unchanged data reuse
them and a write invalidates only the path from the written scan upward.

See ``docs/execution.md`` for the architecture notes.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple
from typing import Optional, Sequence, Set, Tuple, Union

from ..database.columnar import ColumnTable, compare_cols_mask, compare_mask
from ..database.columnar import _mask_and as _combine_masks
from ..database.columnar import const_column, scan_block, union_distinct
from ..database.planner import CardinalityCostModel
from ..datalog.atoms import Atom, compare_values
from ..datalog.evaluation import FactsLike, as_fact_source
from ..datalog.indexing import WILDCARD, Pattern, ensure_indexed
from ..datalog.queries import ConjunctiveQuery
from ..datalog.terms import Variable, is_variable
from ..errors import EvaluationError
from ..obs.trace import current_span
from ..database.statistics import source_data_version
from .materialization import FragmentCache
from .reformulation import ReformulationResult, _LazySeq
from .rule_goal_tree import GoalNode, RuleNode

Row = Tuple[object, ...]

#: A compiled comparison/head operand: ("col", canonical column name) or
#: ("const", plain value).
Operand = Tuple[str, object]


# ---------------------------------------------------------------------------
# Plan fragments (the DAG nodes)
# ---------------------------------------------------------------------------

class ScanFragment(NamedTuple):
    """A leaf: one stored-relation scan in its single-atom canonical form.

    ``pattern`` holds one entry per relation position — a constant the row
    must carry there, or :data:`~repro.datalog.indexing.WILDCARD` — and is
    probed through ``get_matching`` so constants use hash indexes.
    ``equal_positions`` are repeated-variable equalities;
    ``keep_positions`` are the positions projected into ``columns`` (the
    first occurrence of each variable).
    """

    key: str
    relation: str
    pattern: Tuple[object, ...]
    equal_positions: Tuple[Tuple[int, int], ...]
    keep_positions: Tuple[int, ...]
    columns: Tuple[str, ...]


class JoinFragment(NamedTuple):
    """An interior node: two child fragments joined on their shared variables.

    ``left_key``/``right_key`` name child fragments in the plan's node
    table.  Each child's columns are renamed into this node's canonical
    namespace (``left_rename``/``right_rename``: child column -> this
    namespace) before the natural join; the result is projected to
    ``columns``.
    """

    key: str
    left_key: str
    right_key: str
    right_rename: Tuple[Tuple[str, str], ...]
    columns: Tuple[str, ...]
    left_rename: Tuple[Tuple[str, str], ...]


class UnionBranch(NamedTuple):
    """One alternative of a :class:`UnionFragment`: fragment ``key``'s rows
    that pass ``comparisons``, projected to ``head`` (a :class:`RewritingPlan`
    root's shape); ``origin`` names the rule node it came from."""

    key: str
    comparisons: Tuple[Tuple[Operand, str, Operand], ...]
    head: Tuple[Operand, ...]
    origin: str


class UnionFragment(NamedTuple):
    """An n-ary interior node of the factored plan: the distinct union of
    its ``branches``, each mapped onto this node's ``columns``."""

    key: str
    branches: Tuple[UnionBranch, ...]
    columns: Tuple[str, ...]


PlanFragment = Union[ScanFragment, JoinFragment, UnionFragment]


def _child_keys(node: PlanFragment) -> Tuple[str, ...]:
    """The fragments ``node`` reads directly (none for a scan)."""
    if isinstance(node, JoinFragment):
        return (node.left_key, node.right_key)
    if isinstance(node, UnionFragment):
        return tuple([branch.key for branch in node.branches])
    return ()


class RewritingPlan(NamedTuple):
    """The per-rewriting root: comparisons + head projection over a fragment."""

    rewriting: ConjunctiveQuery
    root_key: str
    comparisons: Tuple[Tuple[Operand, str, Operand], ...]
    head: Tuple[Operand, ...]


@dataclass
class PlanStatistics:
    """How much structure the plan shares across its compiled rewritings,
    and what the tree compile (:meth:`UnionPlan.factored_root`) made."""

    rewritings: int = 0
    unique_fragments: int = 0
    fragment_references: int = 0
    tree_nodes: int = 0  #: goal + rule nodes of the tree the factored compile read
    factored: int = 0  #: plan nodes under the factored root (0: none yet, or declined)
    declined: Optional[str] = None  #: why the factored compile declined, if it did

    @property
    def reused_references(self) -> int:
        """Fragment references served by an already-built node."""
        return self.fragment_references - self.unique_fragments

    @property
    def sharing_ratio(self) -> float:
        """Fraction of fragment references that reuse a shared node."""
        if not self.fragment_references:
            return 0.0
        return self.reused_references / self.fragment_references


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _render_atom(
    atom: Atom, namespace: Dict[Variable, str]
) -> Tuple[str, Dict[Variable, str]]:
    """Canonical rendering of ``atom`` in (a copy of) ``namespace``.

    Unseen variables are assigned the next positional names; the possibly
    extended namespace is returned alongside the rendering so callers can
    either commit it (when the atom is chosen) or discard it (when merely
    scoring a candidate).
    """
    local = dict(namespace)
    parts: List[str] = []
    for arg in atom.args:
        if isinstance(arg, Variable):
            name = local.get(arg)
            if name is None:
                name = local[arg] = f"_f{len(local)}"
            parts.append(name)
        else:
            parts.append(repr(arg.value))
    return f"{atom.predicate}({','.join(parts)})", local


#: Total extra branches one canonicalization may spend exploring rendering
#: ties.  Ties are rare outside pathologically symmetric bodies (several
#: atoms of one predicate over pairwise-fresh variables); the budget keeps
#: those worst cases linear instead of factorial while typical bodies
#: still canonicalise exactly.
_TIE_BRANCH_BUDGET = 16


def _canonical_parts(
    atoms: Sequence[Atom],
    namespace: Dict[Variable, str],
    budget: Optional[List[int]] = None,
) -> Tuple[Tuple[str, ...], Dict[Variable, str]]:
    """Order-independent canonical rendering of an atom multiset.

    Atoms are committed greedily: at each step the atom whose rendering in
    the namespace-so-far is lexicographically smallest goes next; ties —
    several atoms rendering identically — are explored and the smallest
    complete rendering wins, up to :data:`_TIE_BRANCH_BUDGET` extra
    branches per top-level call (``budget`` is that call's counter; beyond
    it the first tied atom is taken, trading a little sharing on symmetric
    bodies for bounded work).  Alpha-equivalent multisets therefore
    produce the same parts tuple whatever order the atoms arrived in,
    which is what lets bushy merge trees built along different paths
    hash-cons to one node.  The returned namespace maps every variable of
    ``atoms`` to its canonical column name.
    """
    if budget is None:
        budget = [_TIE_BRANCH_BUDGET]
    # A rendering starts with "predicate(", so only atoms under the smallest
    # such head can render smallest: order by head once (stably — ties keep
    # their arrival order) and each step's candidates are the leading run.
    # (``startswith``, not equality: a head extending the floor competes.)
    heads = [atom.predicate + "(" for atom in atoms]
    order = sorted(range(len(heads)), key=heads.__getitem__)
    remaining = [atoms[i] for i in order]
    heads = [heads[i] for i in order]
    parts: List[str] = []
    while remaining:
        run = 1
        while run < len(heads) and heads[run].startswith(heads[0]):
            run += 1
        if run == 1:
            rendering, namespace = _render_atom(remaining[0], namespace)
            parts.append(rendering)
            del remaining[0], heads[0]
            continue
        rendered = [(_render_atom(remaining[i], namespace), i) for i in range(run)]
        best = min([rendering for (rendering, _), _ in rendered])
        tied = [
            (extended, index)
            for (rendering, extended), index in rendered
            if rendering == best
        ]
        parts.append(best)
        if len(tied) == 1:
            ((namespace, index),) = tied
            del remaining[index], heads[index]
            continue
        affordable = 1 + max(budget[0], 0)
        tied = tied[:affordable]
        budget[0] -= len(tied) - 1
        options = [
            _canonical_parts(remaining[:i] + remaining[i + 1:], extended, budget)
            for extended, i in tied
        ]
        rest_parts, namespace = min(options, key=lambda option: option[0])
        return tuple(parts) + rest_parts, namespace
    return tuple(parts), dict(namespace)


def _conjunction_key(parts: Sequence[str]) -> str:
    return " & ".join(parts)


class _Join(NamedTuple):
    """The preview of merging two fragments under one column correspondence:
    the merged fragment's canonical ``key`` and, per child, the position
    each child column takes in the merged namespace (``width`` columns)."""

    key: str
    left_map: Tuple[int, ...]
    right_map: Tuple[int, ...]
    width: int


class _Pair:
    """Two groups considered for a merge: their common variables and — once
    previewed — the merged fragment, its estimate and, after the first
    commit, the merged group itself."""

    __slots__ = ("common", "join", "estimate", "merged")

    def __init__(self, common):
        self.common = common
        self.join: Optional[_Join] = None
        self.estimate = 0.0
        self.merged: Optional[_Group] = None


class _Group:
    """One sub-conjunction being assembled during bushy compilation.

    Tracks the committed fragment (``key``), the rewriting's variables in
    the fragment's canonical column order (``variables[i]`` is column
    ``_f{i}``; ``index`` is the inverse), the atom multiset, and cheap
    cost-model summaries: the estimated row count and an estimated
    distinct count per column (0 / empty when no cost model steers
    compilation).  ``shared`` records whether the fragment already existed
    before this group touched it — i.e. another rewriting (or an earlier
    occurrence) referenced it — the signal the merge ordering uses to
    build join pairs that recur across the union instead of pairs
    involving a rewriting-unique atom.

    Groups are values, so the plan hands the *same* group to every
    rewriting that contains the same atom or repeats the same merge;
    ``pairs`` (this group as the left side, keyed by the right group's
    identity) is where such a rewriting finds its previews and merges.
    """

    __slots__ = (
        "key", "variables", "index", "atoms", "estimate", "distinct", "shared",
        "pairs",
    )

    def __init__(self, key, variables, index, atoms, estimate, distinct, shared):
        self.key = key
        self.variables = variables
        self.index = index
        self.atoms = atoms
        self.estimate = estimate
        self.distinct = distinct
        self.shared = shared
        self.pairs: Dict[_Group, _Pair] = {}


_UNCOMPILED = object()


class _Declined(Exception):
    """The tree compile met a node it does not factor; ``args[0]`` is the
    reason the plan falls back to the enumerated compile under."""


@lru_cache(maxsize=256)
def _column_names(width: int) -> Tuple[str, ...]:
    """The canonical column names ``_f0 .. _f{width-1}``."""
    return tuple(f"_f{i}" for i in range(width))


@lru_cache(maxsize=4096)
def _renames(column_map: Tuple[int, ...]) -> Tuple[Tuple[str, str], ...]:
    """A join child's rename pairs: child column ``i`` -> ``column_map[i]``."""
    targets = _column_names(max(column_map, default=-1) + 1)
    return tuple(sorted(zip(
        _column_names(len(column_map)), [targets[m] for m in column_map]
    )))


class UnionPlan:
    """A shared execution plan for the union of rewritings of one result.

    Rewritings are compiled incrementally from ``result.rewritings()`` the
    first time :meth:`fragments` reaches them, each into a **bushy** tree
    over the hash-consed node table ``nodes``; fragments any earlier
    rewriting built are reused across rewritings and across calls.  Whole
    answers compile ``result.tree`` into the same table instead, once
    (:meth:`factored_root`).  Thread-safe: several executions may drive
    either compile concurrently.

    Compilation is memoised **per plan**, so a rewriting that snaps onto
    existing fragments costs dictionary lookups instead of string
    canonicalisation.  Structurally: one :class:`_Join` preview per
    distinct (left fragment, right fragment, shared-column
    correspondence) — keys and column positions, never ``Variable``
    identity, so renaming or permuting a body changes neither the root key
    nor the node table.  By identity, in front of that: an atom seen
    before reuses its scan node and its leaf group with
    the statistics read for it, and two groups meeting again reuse their
    preview, estimate and merged group.  This is safe because atoms and
    groups are immutable, the node table only grows and ``_LazySeq``
    serialises compilation; it all dies with the plan.

    One memo is read by the plan after this one: the factored compile's
    alternatives per rule node.  A result rebuilt from this plan's
    (``reformulate(previous=...)``) carries this plan as its
    ``_seed_plan``; the new plan's factored compile takes the alternatives
    of every rule node the rebuild copied with an unchanged subtree
    (``RuleNode.source``), copying in the nodes under them, recompiles only
    the rules on a changed path, and drops the seed when it ends.
    """

    def __init__(
        self,
        result: ReformulationResult,
        cost: Optional[CardinalityCostModel] = None,
    ):
        self.result = result
        self.nodes: Dict[str, PlanFragment] = {}
        self.stats = PlanStatistics()
        self._cost = cost
        #: Factored join -> the ``<kind:origin>`` rule whose goals it joins.
        self.origins: Dict[str, str] = {}
        self._relations_cache: Dict[str, FrozenSet[str]] = {}
        self._token_relations: Dict[str, Tuple[str, ...]] = {}
        self._scans_cache: Dict[str, Tuple[Tuple[str, Tuple[object, ...]], ...]] = {}
        # The per-plan compile memo (see the class docstring).
        self._scans: Dict[Atom, ScanFragment] = {}
        self._groups: Dict[Atom, _Group] = {}
        self._joins: Dict[Tuple[str, str, Tuple[Tuple[int, int], ...]], _Join] = {}
        #: (rule node, exported variables) -> the factored compile's
        #: alternatives for it: what a plan for a rebuilt tree reuses.
        self._alternatives: Dict[Tuple[RuleNode, Tuple[Variable, ...]], list] = {}
        #: The previous tree's plan, while the factored compile carries from it.
        self._seed: Optional[UnionPlan] = None
        # One lock serialises every node-table write — _LazySeq advances
        # _compile_rewriting under its lock, and factored_root() borrows it
        # to compile the tree — whichever front-end executions drive.
        self._compiled = _LazySeq(self._compile_stream())
        self._lock = self._compiled._lock
        self._root: object = _UNCOMPILED  # then the root's key, or None: declined

    # -- compilation (incremental) ---------------------------------------------

    def fragments(self) -> Iterator[RewritingPlan]:
        """Yield one :class:`RewritingPlan` per rewriting, compiling lazily.

        Backed by the same thread-safe memoized-stream machinery as the
        rewriting enumeration itself; each rewriting is compiled exactly
        once, on first reach.
        """
        return iter(self._compiled)

    def _compile_stream(self) -> Iterator[RewritingPlan]:
        # A generator, so the enumeration starts with the first consumer.
        for rewriting in self.result.rewritings():
            yield self._compile_rewriting(rewriting)

    def _scan_fragment(self, atom: Atom) -> ScanFragment:
        """Reference the hash-consed leaf for one atom (single-atom canonical
        form); an atom seen before skips the rendering."""
        node = self._scans.get(atom)
        if node is not None:
            return node
        first_position: Dict[Variable, int] = {}
        pattern: List[object] = []
        equal_positions: List[Tuple[int, int]] = []
        keep_positions: List[int] = []
        for position, arg in enumerate(atom.args):
            if is_variable(arg):
                earlier = first_position.get(arg)
                if earlier is None:
                    first_position[arg] = position
                    keep_positions.append(position)
                else:
                    equal_positions.append((earlier, position))
                pattern.append(WILDCARD)
            else:
                pattern.append(arg.value)
        # The key comes from the one canonical renderer, so the
        # reuse-aware ordering's key previews always match committed keys.
        key, _ = _render_atom(atom, {})
        node = self.nodes.get(key)
        if node is None:
            node = ScanFragment(
                key=key,
                relation=atom.predicate,
                pattern=tuple(pattern),
                equal_positions=tuple(equal_positions),
                keep_positions=tuple(keep_positions),
                columns=_column_names(len(keep_positions)),
            )
            self.nodes[key] = node
        self._scans[atom] = node
        return node

    def fragment_relations(self, key: str) -> FrozenSet[str]:
        """The base relations fragment ``key`` reads (transitively).

        This is the fragment's invalidation footprint: its cached table is
        stale exactly when one of these relations' data versions moved.
        """
        cached = self._relations_cache.get(key)
        if cached is None:
            node = self.nodes[key]
            if isinstance(node, ScanFragment):
                cached = frozenset((node.relation,))
            else:
                cached = frozenset().union(
                    *[self.fragment_relations(child) for child in _child_keys(node)]
                )
            self._relations_cache[key] = cached
        return cached

    def token_relations(self, key: str) -> Tuple[str, ...]:
        """:meth:`fragment_relations` of ``key``, sorted — the order version
        tokens list them in (sorted once per fragment, not once per probe)."""
        cached = self._token_relations.get(key)
        if cached is None:
            cached = self._token_relations[key] = tuple(
                sorted(self.fragment_relations(key))
            )
        return cached

    def scan_requests(self, key: str) -> Tuple[Tuple[str, Pattern], ...]:
        """The stored-relation scans under fragment ``key`` (transitively).

        One ``(relation, pattern)`` pair per distinct
        :class:`ScanFragment` leaf, in DAG order.  This is the fragment's
        *wire footprint*: a distributed executor can issue exactly these
        scans — batched per owning peer, concurrently — before evaluating
        the fragment, so the joins above never block on a remote probe.
        """
        cached = self._scans_cache.get(key)
        if cached is None:
            node = self.nodes[key]
            if isinstance(node, ScanFragment):
                cached = ((node.relation, node.pattern),)
            else:
                cached = tuple(dict.fromkeys(
                    request
                    for child in _child_keys(node)
                    for request in self.scan_requests(child)
                ))
            self._scans_cache[key] = cached
        return cached

    def _compile_rewriting(self, rewriting: ConjunctiveQuery) -> RewritingPlan:
        atoms = rewriting.relational_body()
        if not atoms:
            raise EvaluationError(
                "cannot compile a rewriting with no relational atoms"
            )
        stats, before = self.stats, len(self.nodes)
        root = self._compile_bushy(atoms)
        canonical = dict(zip(root.variables, _column_names(len(root.variables))))
        plan = self._finish_rewriting(rewriting, root.key, canonical)
        # The sharing counters describe this compile only: every atom
        # references its scan and every merge its join, and what the node
        # table grew by is what no earlier compile had built.
        stats.fragment_references += 2 * len(atoms) - 1
        stats.unique_fragments += len(self.nodes) - before
        return plan

    # -- bushy compilation -------------------------------------------------

    def _leaf_group(self, atom: Atom) -> _Group:
        """A single-atom group over the (hash-consed) scan fragment."""
        group = self._groups.get(atom)
        if group is not None:
            return group
        key, varmap = _render_atom(atom, {})
        shared = key in self.nodes
        node = self._scan_fragment(atom)
        variables = tuple(varmap)
        estimate = 0.0
        distinct: Tuple[float, ...] = ()
        if self._cost is not None:
            estimate = float(self._cost.atom_estimate(atom))
            cap = max(estimate, 1.0)
            distinct = tuple([
                min(float(self._cost.column_distinct(atom.predicate, position)), cap)
                for position in node.keep_positions
            ])
        index = dict(zip(variables, range(len(variables))))
        group = _Group(key, variables, index, (atom,), estimate, distinct, shared)
        # Every later reference finds the fragment in place, and nothing
        # else about the group can change: one statistics read per atom.
        self._groups[atom] = (
            group if shared
            else _Group(key, variables, index, (atom,), estimate, distinct, True)
        )
        return group

    def _preview(self, pair: _Pair, left: _Group, right: _Group) -> _Join:
        """Fill in ``pair``: the merged fragment's preview and join estimate.

        The preview is memoised per plan under (left key, right key,
        column correspondence): those determine the merged atom multiset
        up to variable renaming, hence the key and the column maps.
        Renderings that explored a tie are the exception (their namespace
        can depend on atom order) and are recomputed every time.
        """
        left_index, right_index = left.index, right.index
        correspondence = tuple(
            sorted([(left_index[v], right_index[v]) for v in pair.common])
        )
        memo_key = (left.key, right.key, correspondence)
        join = self._joins.get(memo_key)
        if join is None:
            budget = [_TIE_BRANCH_BUDGET]
            parts, namespace = _canonical_parts(left.atoms + right.atoms, {}, budget)
            # Canonical names are handed out in insertion order.
            position = dict(zip(namespace, range(len(namespace))))
            join = _Join(
                _conjunction_key(parts),
                tuple([position[v] for v in left.variables]),
                tuple([position[v] for v in right.variables]),
                len(namespace),
            )
            if budget[0] == _TIE_BRANCH_BUDGET:
                self._joins[memo_key] = join
        pair.join = join
        if self._cost is not None:
            # Estimated output rows of the join.  The shared variables are
            # visited in set order on purpose: the division order is part
            # of the (float) estimate the merge ordering breaks ties on.
            estimate = max(left.estimate, 1.0) * max(right.estimate, 1.0)
            for variable in pair.common:
                estimate /= max(
                    left.distinct[left_index[variable]],
                    right.distinct[right_index[variable]],
                    1.0,
                )
            pair.estimate = estimate
        return join

    def _merge_groups(self, left: _Group, right: _Group, pair: _Pair) -> _Group:
        """Commit the join of two groups as a (hash-consed) fragment node."""
        merged = pair.merged
        if merged is not None:
            # The same two groups met before: same node, same numbers; the
            # node has existed since then, whoever built it first.
            merged.shared = True
            return merged
        join = pair.join
        key, width = join.key, join.width
        node = self.nodes.get(key)
        shared = node is not None
        if node is None:
            node = JoinFragment(
                key=key,
                left_key=left.key,
                right_key=right.key,
                left_rename=_renames(join.left_map),
                right_rename=_renames(join.right_map),
                columns=_column_names(width),
            )
            self.nodes[key] = node
        estimate = pair.estimate
        distinct: Sequence[float] = ()
        if self._cost is not None:
            distinct = [max(estimate, 1.0)] * width
            for side, column_map in (
                (left.distinct, join.left_map), (right.distinct, join.right_map)
            ):
                for count, column in zip(side, column_map):
                    if count < distinct[column]:
                        distinct[column] = count
        placed: List[Variable] = [None] * width  # type: ignore[list-item]
        for variable, column in zip(left.variables, join.left_map):
            placed[column] = variable
        for variable, column in zip(right.variables, join.right_map):
            placed[column] = variable
        variables = tuple(placed)
        index = dict(zip(variables, range(width)))
        pair.merged = _Group(
            key, variables, index, left.atoms + right.atoms, estimate, distinct, shared
        )
        return pair.merged

    def _compile_bushy(self, atoms: Sequence[Atom]) -> _Group:
        """Fold a rewriting's atoms into a bushy tree of shared fragments.

        Greedy-operator-ordering over groups: repeatedly merge the pair of
        connected groups (falling back to a cross product only when
        nothing is connected) preferring, in order: a pair whose merged
        canonical key already exists in the node table (its table will
        come from the memo or the cross-call cache); a pair of two
        *shared* groups — fragments other rewritings already referenced,
        so the merge is likely to recur across the union; then the
        smallest estimated join output.  The first rewriting merges in
        pure cost order; later rewritings snap to the shared groups it
        (and the cost ties) established, which is what turns shared
        sub-conjunctions of *any* shape into shared fragments.
        """
        return self._merge_all([self._leaf_group(atom) for atom in atoms])

    def _merge_all(self, groups: List[_Group]) -> _Group:
        """Merge ``groups`` pairwise, in :meth:`_compile_bushy`'s order, into one."""
        nodes = self.nodes
        while len(groups) > 1:
            every = []
            for i, left in enumerate(groups):
                pairs = left.pairs
                for j in range(i + 1, len(groups)):
                    right = groups[j]
                    pair = pairs.get(right)
                    if pair is None:
                        pair = pairs[right] = _Pair(
                            left.index.keys() & right.index.keys()
                        )
                    every.append((i, j, pair))
            candidates = [entry for entry in every if entry[2].common] or every
            best = None
            for i, j, pair in candidates:
                left, right = groups[i], groups[j]
                key = (pair.join or self._preview(pair, left, right)).key
                if len(candidates) == 1:
                    break  # nothing to order
                score = (
                    key not in nodes,
                    not (left.shared and right.shared),
                    pair.estimate,
                    key,
                    (i, j),
                )
                if best is None or score < best[0]:
                    best = (score, pair)
            else:
                (_, _, _, _, (i, j)), pair = best
            merged = self._merge_groups(groups[i], groups[j], pair)
            groups = [g for k, g in enumerate(groups) if k != i and k != j]
            groups.append(merged)
        return groups[0]

    def _finish_rewriting(
        self,
        rewriting: ConjunctiveQuery,
        root_key: str,
        canonical: Dict[Variable, str],
    ) -> RewritingPlan:
        """Wrap a compiled root fragment in the per-rewriting plan."""

        def operand(term) -> Operand:
            if isinstance(term, Variable):
                return ("col", canonical[term])
            return ("const", term.value)

        comparisons = tuple([
            (operand(comp.left), comp.op, operand(comp.right))
            for comp in rewriting.comparison_body()
        ])
        head = tuple([operand(term) for term in rewriting.head.args])
        self.stats.rewritings += 1
        return RewritingPlan(rewriting, root_key, comparisons, head)

    # -- tree compilation (the factored root) ------------------------------

    def factored_root(self) -> Optional[str]:
        """The key of the one root a whole answer evaluates — the rule-goal
        tree compiled node for node, on first use — or ``None`` when the
        compile declined the tree (``stats.declined`` says why) and the
        answer is the union of :meth:`fragments` instead."""
        if self._root is _UNCOMPILED:
            with self._lock:
                if self._root is _UNCOMPILED:
                    self._root = self._compile_tree()
        return self._root  # type: ignore[return-value]

    def answer_nodes(self) -> Dict[str, PlanFragment]:
        """The nodes a whole answer evaluates: those under the factored
        root, or — forcing the enumerated compile — every node."""
        root = self.factored_root()
        if root is None:
            for _ in self.fragments():
                pass
        return self.nodes if root is None else _collect_subplan(self, root)

    def _compile_tree(self) -> Optional[str]:
        stats = self.stats
        tree = getattr(self.result, "tree", None)
        if getattr(self.result, "_seed_plan", None) is not None:
            # Taken by the first factored compile of a plan, and
            # dropped with it: nothing survives two catalogue states.
            self._seed, self.result._seed_plan = self.result._seed_plan, None
        try:
            if tree is None:
                raise _Declined("no-tree")
            stats.tree_nodes = tree.statistics.total_nodes
            head = tree.root.label
            need = tuple(dict.fromkeys(filter(is_variable, head.args)))
            alternatives = [
                alternative
                for rule in tree.root.children
                for alternative in self._tree_alternatives(rule, need)
            ]
            root = self._union_node(head.predicate, head.args, alternatives).key
        except _Declined as declined:
            stats.declined = declined.args[0]
            if self._seed is not None:
                for rule in tree.rule_nodes():
                    rule.source = None  # the ones the compile did not reach
            return None
        finally:
            self._seed = None
        stats.factored = len(_collect_subplan(self, root))
        if getattr(self.result, "_shared_plan", None) is self:
            self.result._factored_plan = self
        return root

    def _carried(self, group: _Group) -> _Group:
        """``group`` of the seed plan, made this plan's: the nodes under it
        copied into this node table with their origins, and a
        new group object, so no merge memo is shared between the plans."""
        seed, nodes = self._seed, self.nodes
        stack = [group.key]
        while stack:
            key = stack.pop()
            if key in nodes:
                continue  # with everything under it
            node = nodes[key] = seed.nodes[key]
            if key in seed.origins:
                self.origins.setdefault(key, seed.origins[key])
            stack.extend(_child_keys(node))
        return _Group(
            group.key, group.variables, group.index, group.atoms,
            group.estimate, group.distinct, group.shared,
        )

    def _tree_alternatives(self, rule: RuleNode, need: Tuple[Variable, ...]) -> list:
        """The ways to satisfy ``rule`` while exporting ``need``: one
        ``(group, constraint label, origin)`` per cover of its goal children.
        A child's options are grouped by the siblings they cover (its own
        bit, plus an inclusion's ``unc`` label); each group is one union
        over the variables the rest of the rule can see, and Step 3's
        ``cover()`` runs over the groups, not over partial rewritings: a
        cover is the join of its groups.

        A rule a rebuild copied with its subtree unchanged (``source``) takes
        the seed plan's alternatives for its original instead, carried over
        with the nodes under them."""
        source, rule.source = rule.source, None
        if source is not None and self._seed is not None:
            carried = self._seed._alternatives.get((source, need))
            if carried is not None:
                alternatives = [
                    (self._carried(group), constraint, origin)
                    for group, constraint, origin in carried
                ]
                self._alternatives[rule, need] = alternatives
                return alternatives
        alternatives = self._rule_alternatives(rule, need)
        self._alternatives[rule, need] = alternatives
        return alternatives

    def _rule_alternatives(self, rule: RuleNode, need: Tuple[Variable, ...]) -> list:
        """:meth:`_tree_alternatives`, compiled."""
        if not rule.children:
            raise _Declined("childless-rule")
        outside = set(need).union(*[c.variable_set() for c in rule.constraint])
        ranked = sorted(rule.children, key=lambda goal: goal.id)
        bit_of = {goal: 1 << rank for rank, goal in enumerate(ranked)}
        grouped: Dict[Tuple[int, int], list] = {}
        for child in rule.children:
            bit = bit_of[child]
            if child.is_stored:
                grouped[bit, bit] = [child]
            for option in child.children:
                mask = bit
                for goal in option.covers:
                    mask |= bit_of[goal]
                grouped.setdefault((bit, mask), []).append(option)
        covering: Dict[int, list] = {bit: [] for bit in bit_of.values()}
        for (bit, mask), options in grouped.items():
            inside = [goal for goal in ranked if bit_of[goal] & mask]
            visible = outside.union(*[
                goal.label.variable_set() for goal in ranked if goal not in inside
            ])
            group = self._tree_union(
                ranked[bit.bit_length() - 1].label.predicate,
                tuple(dict.fromkeys(
                    arg for goal in inside for arg in goal.label.args if arg in visible
                )),
                options,
            )
            if group is not None:
                for target in covering:
                    if target & mask:
                        covering[target].append((bit, mask, group))
        full = (1 << len(ranked)) - 1

        def cover(remaining: int, used: int, chosen: List[_Group]):
            if not remaining:
                yield chosen
                return
            for bit, mask, group in covering[remaining & -remaining]:
                if bit & used:
                    continue
                if mask & full & ~remaining:
                    # Step 3 joins such a cover on variables private to the
                    # goals covered twice, which no group exports.
                    raise _Declined("overlapping-covers")
                yield from cover(remaining & ~mask, used | bit, chosen + [group])

        origin = f"<{rule.kind}:{rule.origin}>"
        alternatives = []
        for chosen in cover(full, 0, []):
            joined = self._merge_all(chosen)
            if len(chosen) > 1:
                self.origins.setdefault(joined.key, origin)
            alternatives.append((joined, rule.constraint, origin))
        return alternatives

    def _tree_union(
        self, label: str, need: Tuple[Variable, ...], options: Sequence[object]
    ) -> Optional[_Group]:
        """The union over ``need`` of ``options`` — the rule nodes expanding
        one goal, or the stored goal itself; ``None`` if all are dead."""
        alternatives: list = []
        for option in options:
            if isinstance(option, GoalNode):
                group = self._leaf_group(option.label)
                group.shared = True  # ours, or the memo's copy (already true)
                alternatives.append((group, (), "<stored>"))
            else:
                alternatives.extend(self._tree_alternatives(option, need))
        if not alternatives:
            return None
        group, constraint, _ = alternatives[0]
        if len(alternatives) == 1 and not constraint and group.index.keys() >= set(need):
            return group  # a single unconstrained alternative is the goal
        key = self._union_node(label, need, alternatives).key
        estimate, distinct = 0.0, ()
        if self._cost is not None:
            groups = [group for group, _, _ in alternatives]
            estimate = float(sum([g.estimate for g in groups]))
            distinct = tuple([
                min(max(estimate, 1.0), sum([
                    g.distinct[g.index[term]] if term in g.index else 1.0 for g in groups
                ]))
                for term in need
            ])
        # A virtual relation: one pseudo-atom over the union's columns, so
        # the join compiler names and orders it like a stored atom — one that
        # is never ``shared``: stored leaves are (above), so a rule joins its
        # stable leaves first and a write to one alternative recomputes the
        # union and the joins above it, not the joins among the leaves.
        atom = Atom.trusted(key.rpartition("(")[0], need)
        index = dict(zip(need, range(len(need))))
        return _Group(key, need, index, (atom,), estimate, distinct, False)

    def _union_node(
        self, label: str, terms: Sequence[object], alternatives: list
    ) -> UnionFragment:
        """Reference the hash-consed union of ``alternatives``, one output
        column per term of ``terms``: keyed by a readable head plus a digest
        of the canonical (sorted, deduplicated) branch list."""
        unique: Dict[str, UnionBranch] = {}
        for group, constraint, origin in alternatives:
            branch = self._branch(terms, group, constraint, origin)
            unique.setdefault(repr(branch[:3]), branch)
        ordered = sorted(unique)
        digest = hashlib.blake2b("\n".join(ordered).encode(), digest_size=8).hexdigest()
        columns = _column_names(len(terms))
        key = f"\u222a{label}#{digest}({','.join(columns)})"
        node = self.nodes.get(key)
        if node is None:
            branches = tuple([unique[rendering] for rendering in ordered])
            node = self.nodes[key] = UnionFragment(key, branches, columns)
        return node  # type: ignore[return-value]

    @staticmethod
    def _branch(terms: Sequence[object], group: _Group, constraint, origin: str) -> UnionBranch:
        """One alternative as a union branch: each term of ``terms`` and of
        ``constraint`` is a column of ``group``, a constant, or derived by an
        equality of ``constraint`` (a head's ``skill = "Doctor"``, an MCD's
        ``f1 = f2``)."""
        names = _column_names(len(group.variables))
        operands: Dict[object, Operand] = {
            variable: ("col", names[column]) for variable, column in group.index.items()
        }
        for _ in constraint:  # a pass per comparison settles every equality chain
            for comparison in constraint:
                sides = (comparison.left, comparison.right)
                for unknown, known in (sides, sides[::-1]) if comparison.op == "=" else ():
                    if is_variable(unknown) and unknown not in operands and (
                        not is_variable(known) or known in operands
                    ):
                        operands[unknown] = operands.get(known) or ("const", known.value)

        def operand(term, reason: str) -> Operand:
            found = operands.get(term) if is_variable(term) else ("const", term.value)
            if found is None:
                raise _Declined(reason)
            return found

        comparisons = []
        for comparison in constraint:
            left = operand(comparison.left, "constraint")
            right = operand(comparison.right, "constraint")
            if left != right or comparison.op != "=":
                comparisons.append((left, comparison.op, right))
        head = tuple([operand(term, "unexported") for term in terms])
        return UnionBranch(group.key, tuple(sorted(comparisons, key=repr)), head, origin)

    def pretty(self) -> str:
        """An indented rendering of the factored plan; union branches and
        joins carry the rule-goal origin they came from."""
        root = self.factored_root()
        if root is None:
            return f"(enumerated: {self.stats.declined})"
        lines: List[str] = []
        seen: Set[str] = set()

        def show(operand: Operand) -> str:
            return str(operand[1]) if operand[0] == "col" else repr(operand[1])

        def branch_note(branch: UnionBranch) -> str:
            note = f"  {branch.origin}"
            if branch.head != tuple([("col", c) for c in self.nodes[branch.key].columns]):
                note += f" as ({', '.join(map(show, branch.head))})"
            if branch.comparisons:
                shown = [f"{show(l)} {op} {show(r)}" for l, op, r in branch.comparisons]
                note += " where " + " and ".join(shown)
            return note

        def visit(key: str, depth: int, note: str = "") -> None:
            node = self.nodes[key]
            if isinstance(node, JoinFragment):
                on = {new for _, new in node.left_rename} & {new for _, new in node.right_rename}
                label = f"join on ({','.join(sorted(on))})"
                if key in self.origins and self.origins[key] not in note:
                    label += f" {self.origins[key]}"
            else:
                label = ("scan " if isinstance(node, ScanFragment) else "union ") + key
            children = _child_keys(node)
            if children and key in seen:
                lines.append("  " * depth + label + note + "  (shown above)")
                return
            seen.add(key)
            lines.append("  " * depth + label + note)
            notes = map(branch_note, node.branches) if isinstance(node, UnionFragment) else ("", "")
            for child, child_note in zip(children, notes):
                visit(child, depth + 1, child_note)

        visit(root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"UnionPlan({s.rewritings} rewritings, {s.unique_fragments} fragments, "
            f"{s.reused_references} reused refs)"
        )


def compile_reformulation(
    result: ReformulationResult,
    data: Optional[FactsLike] = None,
    cost: Optional[CardinalityCostModel] = None,
) -> UnionPlan:
    """Compile ``result`` into a (lazily populated) shared union plan.

    ``data`` (or a prebuilt ``cost`` model) steers the cost-based join
    order; without either the canonical atom order is used.  The plan stays
    correct if the data later changes — only join-order quality is tied to
    the statistics seen at compile time.
    """
    if cost is None and data is not None:
        cost = CardinalityCostModel(data)
    return UnionPlan(result, cost)


_ENSURE_LOCK = threading.Lock()


def ensure_plan(
    result: ReformulationResult,
    data: Optional[FactsLike] = None,
    plan: Optional[UnionPlan] = None,
) -> UnionPlan:
    """The compiled plan for ``result``, built once and cached on it.

    The plan is attached to the result object itself, so its lifetime —
    and therefore its invalidation — exactly tracks the result's: a
    service cache that evicts the reformulation on a provenance signal
    drops the compiled plan with it.  A caller-held ``plan`` is returned
    instead, after checking that it was compiled for ``result``.
    """
    if plan is not None:
        if plan.result is not result:
            raise EvaluationError(
                "the supplied union plan was compiled for a different "
                "reformulation result"
            )
        return plan
    plan = result._shared_plan
    if plan is None:
        with _ENSURE_LOCK:
            plan = result._shared_plan
            if plan is None:
                # Pinless cost model: the plan outlives this call, and it
                # must neither pin the data source (removed peers'
                # instances, one-off overrides) in memory for the cache
                # entry's lifetime nor pay an eager full-relation scan —
                # stats are read lazily through a weak reference while the
                # source lives.
                cost = (
                    CardinalityCostModel.pinless(data) if data is not None else None
                )
                plan = UnionPlan(result, cost)
                result._shared_plan = plan
    return plan  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _scan_columnar(node: ScanFragment, source) -> ColumnTable:
    """A leaf scan: the relation's scan block, filtered and projected in
    batch.  The block is the only transpose of the fragment pipeline, made
    where the relation is stored (:func:`scan_block`) and once per data
    version there; everything above stays column-wise."""
    ct = scan_block(source, node.relation, node.pattern)
    ct = ct.fused_select(equal_pairs=node.equal_positions)
    return ct.project_positions(node.keep_positions, node.columns)


def _worth_caching(node: PlanFragment) -> bool:
    """Is a fragment's table worth offering to the cross-call cache?

    Joins and unions always are.  Unrestricted scans are not: their table
    is a zero-copy projection of the relation's scan block, which the
    source already keeps for as long as the relation's version holds
    (storage for an instance, the scan memo for a remote source), so
    caching it would only charge the byte budget for a second reference.
    Selective scans (constants or repeated-variable equalities) do real
    filtering work and qualify.
    """
    if not isinstance(node, ScanFragment):
        return True
    return bool(node.equal_positions) or any(
        value is not WILDCARD for value in node.pattern
    )


def _combine_tables(node: PlanFragment, tables: Sequence[ColumnTable]) -> ColumnTable:
    """An interior fragment's table from its children's tables, in
    :func:`_child_keys` order: a join renames, joins and projects its two
    children; a union maps each branch onto its columns and deduplicates."""
    if isinstance(node, JoinFragment):
        left, right = tables
        joined = left.rename(dict(node.left_rename)).natural_join(
            right.rename(dict(node.right_rename))
        )
        return joined.project(node.columns)
    parts = [
        _columnar_branch(table, branch, node.columns)
        for table, branch in zip(tables, node.branches)
    ]
    # An empty part has untyped (list) columns; without it the rest
    # concatenates on the array path.
    return union_distinct([part for part in parts if len(part)], node.columns)


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
    every fragment token is assembled from that snapshot, so a token is
    never newer than the rows under it: a fragment computed after a
    concurrent write is stored under the older token, dropped at the next
    answer's mismatch, and never served for the new version.  (Reading
    versions afresh per fragment could pair a parent's *new* token with a
    child table memoised before the write.)  Clearing ``versions``
    restarts the snapshot, for sources whose versions can be *withdrawn*
    mid-answer (a remote relation degrading after a failed scan):
    :meth:`restart`, which ``after_scan(evaluation)`` — called after every
    scan performed here — may invoke.  A fragment whose build spanned a
    restart was tokenised before the fault and may hold partial rows: it
    serves this answer only and is never offered to the cache.
    """

    __slots__ = (
        "plan", "source", "cache", "memo", "versions", "after_scan", "restarts",
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
        if self.cache is None or not _worth_caching(self.plan.nodes[key]):
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
            if self.cache is not None and _worth_caching(node):
                token = self.token(key)
                if token is not None:
                    relations = self.plan.fragment_relations(key)
                    return self.cache.get_or_compute(
                        key, token, relations, self._build, key, node
                    )
            return self._build(key, node)
        except _Degraded as degraded:
            return degraded.value

    def _build(self, key: str, node: PlanFragment) -> ColumnTable:
        """Evaluate ``node`` from its children's tables (or the source).

        A build the snapshot restarted beneath raises its table as
        :class:`_Degraded`, past the cache."""
        scan = isinstance(node, ScanFragment)
        restarts = self.restarts
        span = current_span()
        if span.recording:
            kind = "scan" if scan else "join" if isinstance(node, JoinFragment) else "union"
            span = span.child("fragment.eval", key=key[:80], kind=kind)
        with span:
            if not scan:
                value = _combine_tables(
                    node, [self.table(child) for child in _child_keys(node)]
                )
            else:
                value = _scan_columnar(node, self.source)
                if self.after_scan is not None:
                    self.after_scan(self)
            if span.recording:
                span.set("rows", len(value))
        if self.restarts != restarts:
            raise _Degraded(value)
        return value

    def root_rows(self, rewriting_plan: RewritingPlan) -> List[Row]:
        """One rewriting's answer rows: comparisons + head projection over
        its root fragment (a batch; it may repeat a row)."""
        head = _column_names(len(rewriting_plan.head))
        table = self.table(rewriting_plan.root_key)
        return list(_columnar_branch(table, rewriting_plan, head).iter_rows())


_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _columnar_branch(ct: ColumnTable, branch, columns: Sequence[str]) -> ColumnTable:
    """Comparisons + head projection of one rewriting root or union branch
    (``branch.comparisons`` / ``branch.head``), in batch, as ``columns``."""
    mask = None
    for left, op, right in branch.comparisons:
        (lkind, lpayload), (rkind, rpayload) = left, right
        if lkind == "col" and rkind == "col":
            part = compare_cols_mask(
                ct.column(lpayload), op, ct.column(rpayload), len(ct)
            )
        elif lkind == "col":
            part = compare_mask(ct.column(lpayload), op, rpayload, len(ct))
        elif rkind == "col":
            part = compare_mask(
                ct.column(rpayload), _FLIPPED_OPS.get(op, op), lpayload, len(ct)
            )
        else:
            if compare_values(lpayload, op, rpayload):
                continue
            return ColumnTable(columns, [[] for _ in columns], 0)
        mask = _combine_masks(mask, part)
    if mask is not None:
        ct = ct.select_mask(mask)
    length = len(ct)
    return ColumnTable(
        columns,
        [
            ct.column(payload) if kind == "col" else const_column(payload, length)
            for kind, payload in branch.head
        ],
        length,
    )


def _collect_subplan(plan: UnionPlan, root_key: str) -> Dict[str, PlanFragment]:
    """The fragment nodes reachable from ``root_key``."""
    nodes: Dict[str, PlanFragment] = {}
    stack = [root_key]
    while stack:
        key = stack.pop()
        if key in nodes:
            continue
        node = plan.nodes[key]
        nodes[key] = node
        stack.extend(_child_keys(node))
    return nodes


def plan_answer_batches(
    plan: UnionPlan,
    data: FactsLike,
    cache: Optional[FragmentCache] = None,
    before_root=None,
    whole: bool = False,
    after_scan=None,
) -> Iterator[Iterable[Row]]:
    """Evaluate the union plan root by root: one *batch* of answer rows per
    rewriting, in enumeration order, as its fragments evaluate.

    ``whole`` promises that the caller consumes every batch (a whole
    answer): unless the factored compile declined the tree, the plan's one
    :meth:`~UnionPlan.factored_root` is evaluated and its distinct rows are
    the only batch.

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
    """
    source = ensure_indexed(as_fact_source(data))
    evaluation = _Evaluation(plan, source, cache, after_scan)
    root_key = plan.factored_root() if whole else None
    if root_key is not None:
        if before_root is not None:
            before_root(evaluation, root_key)
        yield evaluation.table(root_key).row_set()
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
) -> Set[Row]:
    """Union ``batches`` into one answer set — whole batches at a time —
    or, with ``limit``, into the first ``limit`` distinct rows (pulling no
    batch beyond the one that completes them)."""
    if limit is not None:
        return set(islice(distinct_rows(batches), limit))
    answers: Optional[Set[Row]] = None
    for batch in batches:
        if answers is not None:
            answers.update(batch)
        else:
            # A plain set was made for this answer (cached ones are frozen).
            answers = batch if type(batch) is set else set(batch)
    return answers if answers is not None else set()


def stream_plan_answers(
    plan: UnionPlan,
    data: FactsLike,
    cache: Optional[FragmentCache] = None,
) -> Iterator[Row]:
    """Yield distinct answer rows of the union plan as fragments evaluate:
    the row view over :func:`plan_answer_batches` (same arguments)."""
    return distinct_rows(plan_answer_batches(plan, data, cache))


def evaluate_plan(
    plan: UnionPlan,
    data: FactsLike,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
    columnar: bool = True,
) -> Set[Row]:
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
        return set()
    return union_rows(
        plan_answer_batches(plan, data, cache, whole=limit is None), limit
    )
