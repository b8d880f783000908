"""The query reformulation algorithm for PPL (Section 4 of the paper).

Given a PDMS and a conjunctive query over one peer's schema, the algorithm
produces a union of conjunctive queries that refer only to *stored*
relations, by building a rule-goal tree that interleaves

* **definitional expansion** (GAV-style view unfolding): a goal node whose
  predicate is the head of a definitional description is expanded with the
  rule's body, and
* **inclusion expansion** (LAV-style answering-queries-using-views): a goal
  node whose predicate appears on the right-hand side of an inclusion or
  storage description ``V ⊆ Q`` is reformulated to use ``V``; a MiniCon
  description (MCD) determines which sibling subgoals the ``V`` atom also
  covers, recorded in the rule node's ``unc``/``covers`` label.

Termination follows the paper's rule: a peer description is never reused
on the path from the root to the node being expanded, which bounds the
tree even for cyclic PDMSs.  Step 3 assembles rewritings by choosing one
expansion per goal node and, at each rule node, a subset of children whose
coverage includes all children; it is implemented as a generator so the
first rewritings stream out before the enumeration finishes (the paper's
Figure 4 measures time-to-first/tenth/all rewritings).

Soundness/completeness: evaluating the output only yields certain answers,
and under the tractable conditions of Theorems 3.2/3.3 it yields all of
them; ``tests/integration`` cross-checks this against the chase-based
oracle in :mod:`repro.pdms.semantics`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom, ComparisonAtom
from ..datalog.constraints import ConstraintSet
from ..datalog.containment import remove_redundant_disjuncts
from ..datalog.minimize import minimize as minimize_query
from ..datalog.queries import ConjunctiveQuery, UnionQuery
from ..datalog.terms import FreshVariableFactory, Term, Variable, is_variable
from ..datalog.unify import (
    apply_substitution_body,
    apply_substitution_term,
    unify_atoms,
)
from ..errors import ReformulationError
from ..integration.minicon import MCD, form_mcds
from .optimizations import DEFAULT_CONFIG, ExpansionOrder, ReformulationConfig
from .rule_goal_tree import GoalNode, RuleGoalTree, RuleNode, TreeStatistics
from .system import PDMS, NormalizedCatalogue, NormalizedInclusion, NormalizedRule

_QUERY_ORIGIN = "__query__"


# ---------------------------------------------------------------------------
# Lazy sequences: cache generator output so shared subtrees are enumerated once
# ---------------------------------------------------------------------------

class _LazySeq:
    """A re-iterable, thread-safe view over a generator that caches items.

    Multiple consumers — including threads of a parallel plan execution or
    concurrent ``QueryService.stream`` iterators — may iterate one shared
    instance: the underlying generator is advanced under a lock, each item
    exactly once, and already-produced items are served from the cache
    without locking (the cache list is append-only, so reads of a prefix
    are always consistent).

    A mid-stream exception from the generator is remembered: every
    consumer reaching the truncation point re-raises it, so a failed
    enumeration can never masquerade as a complete-but-shorter one (which
    would silently drop answers from anything cached on top).
    """

    __slots__ = ("_iterator", "_cache", "_done", "_error", "_lock")

    def __init__(self, iterator: Iterator):
        self._iterator = iterator
        self._cache: List = []
        self._done = False
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()

    def _finished(self) -> None:
        """Handle an observed done flag: re-raise a recorded failure."""
        if self._error is not None:
            raise self._error

    def __iter__(self):
        index = 0
        while True:
            # Fast path: the prefix up to len(_cache) is immutable.
            if index < len(self._cache):
                yield self._cache[index]
                index += 1
                continue
            if self._done:
                # Appends strictly precede the done flag (both happen
                # under the lock); re-check the cache length after
                # observing it so a concurrently appended tail is never
                # dropped.
                if index < len(self._cache):
                    continue
                self._finished()
                return
            with self._lock:
                # Another consumer may have advanced (or exhausted) the
                # generator while we waited for the lock; re-check both.
                if index < len(self._cache):
                    item = self._cache[index]
                elif self._done:
                    self._finished()
                    return
                else:
                    try:
                        item = next(self._iterator)
                    except StopIteration:
                        self._done = True
                        return
                    except Exception as exc:
                        # Record the failure *before* the done flag so any
                        # consumer observing done also sees the error.
                        self._error = exc
                        self._done = True
                        raise
                    except BaseException:
                        # An interrupt (KeyboardInterrupt etc.) kills the
                        # generator too, but caching the interrupt itself
                        # would poison every later consumer with a stale
                        # Ctrl-C.  Record a fresh, diagnosable error
                        # instead; the interrupt propagates to whoever
                        # caused it.
                        self._error = ReformulationError(
                            "the rewriting enumeration was interrupted "
                            "before completing; re-run the reformulation "
                            "(or clear the cache entry) to recompute"
                        )
                        self._done = True
                        raise
                    self._cache.append(item)
            yield item
            index += 1


# ---------------------------------------------------------------------------
# Productive-predicate analysis (dead-end detection, Section 4.3)
# ---------------------------------------------------------------------------

def compute_productive_predicates(catalogue: NormalizedCatalogue) -> frozenset:
    """Predicates from which the reformulation can possibly reach stored data
    (see :meth:`NormalizedCatalogue.productive_predicates`, which computes
    the set once per catalogue state)."""
    return catalogue.productive_predicates()


# ---------------------------------------------------------------------------
# Provenance: which descriptions and predicates a reformulation depends on
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReformulationProvenance:
    """What one reformulation *used* and what it *depends on*.

    ``used_origins`` are the origin names of every description applied in
    the rule-goal tree — removing any of them can remove rewritings.
    ``touched_predicates`` are the labels of every goal node; a new
    description defining or mentioning one of them can add expansions.
    ``dependencies`` is a superset of ``touched_predicates`` that also
    closes over the unproductive predicates whose status the dead-end
    pruner consulted: a new description can make such a predicate
    productive *transitively*, reviving a pruned expansion, so caches must
    treat those predicates as dependencies too.
    """

    used_origins: frozenset
    touched_predicates: frozenset
    dependencies: frozenset

    def affected_by(self, affected_predicates: frozenset, removed_origins: frozenset) -> bool:
        """Could a catalogue change with these footprints alter the result?"""
        return bool(
            (removed_origins & self.used_origins)
            or (affected_predicates & self.dependencies)
        )


def _unproductive_closure(
    catalogue: NormalizedCatalogue, frontier: Iterable[str], productive: frozenset
) -> Set[str]:
    """All unproductive predicates whose status can influence ``frontier``.

    Productivity propagates through definitional-rule bodies and inclusion
    left-hand sides; a catalogue addition touching any predicate in the
    returned set can flip a frontier predicate to productive.
    """
    closure: Set[str] = set()
    worklist = [p for p in frontier if p not in productive]
    while worklist:
        predicate = worklist.pop()
        if predicate in closure:
            continue
        closure.add(predicate)
        for rule in catalogue.definitional_for(predicate):
            for body_predicate in rule.body_predicates():
                if body_predicate not in productive and body_predicate not in closure:
                    worklist.append(body_predicate)
        for inclusion in catalogue.inclusions_mentioning(predicate):
            head = inclusion.head_predicate
            if head not in productive and head not in closure:
                worklist.append(head)
    return closure


# ---------------------------------------------------------------------------
# Reformulation result
# ---------------------------------------------------------------------------

@dataclass
class ReformulationResult:
    """Everything produced by one reformulation run.

    Use :meth:`rewritings` to stream conjunctive rewritings (each refers
    only to stored relations), :meth:`union` for the full union of
    conjunctive queries, and ``tree.statistics`` for the node counts the
    paper's Figure 3 reports.
    """

    query: ConjunctiveQuery
    tree: RuleGoalTree
    config: ReformulationConfig
    #: Descriptions used and predicates depended on — the invalidation key
    #: for caches layered on top (see :class:`ReformulationProvenance`).
    provenance: ReformulationProvenance = field(
        default=ReformulationProvenance(frozenset(), frozenset(), frozenset())
    )
    #: ``pdms.catalogue_version`` at build time.
    catalogue_version: int = 0
    _assembler: "_RewritingAssembler" = field(repr=False, default=None)
    _all: Optional[List[ConjunctiveQuery]] = field(default=None, repr=False)
    _stream: Optional[_LazySeq] = field(default=None, repr=False)
    #: Compiled shared union plan, attached lazily by
    #: :func:`repro.pdms.planning.ensure_plan`; lives and dies with this
    #: result, so plan validity automatically tracks the provenance signal
    #: that governs the result itself.
    _shared_plan: Optional[object] = field(default=None, repr=False, compare=False)
    #: What the tree was built against, for a later rebuild replaying it.
    _basis: Optional["_BuildBasis"] = field(default=None, repr=False, compare=False)
    #: The shared plan once its factored root compiled (set by
    #: :mod:`repro.pdms.planning`): what a rebuild replaying this result's
    #: tree hands the new result as its ``_seed_plan``.
    _factored_plan: Optional[object] = field(default=None, repr=False, compare=False)
    #: The plan of the result this one was rebuilt from: the first factored
    #: compile of this result reuses its compile of the subtrees the
    #: ``source``-marked rule nodes reproduce, then drops it.
    _seed_plan: Optional[object] = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def rewritings(self) -> Iterator[ConjunctiveQuery]:
        """Stream the conjunctive rewritings (may contain subsumed duplicates
        unless ``config.remove_redundant_rewritings`` is set).

        Already-produced rewritings are memoized, so repeated partial
        consumption (e.g. several ``limit=k`` calls against one cached
        result) never re-runs the Step-3 enumeration from the start.  The
        stream is safe to consume from several threads concurrently.
        """
        if self._all is not None:
            yield from self._all
            return
        if self._stream is None:
            with self._lock:
                if self._stream is None:
                    self._stream = _LazySeq(self._assembler.rewritings())
        yield from self._stream

    def first_rewritings(self, count: int) -> List[ConjunctiveQuery]:
        """The first ``count`` rewritings (fewer if the enumeration is smaller)."""
        return list(itertools.islice(self.rewritings(), count))

    def all_rewritings(self) -> List[ConjunctiveQuery]:
        """All conjunctive rewritings, materialised and cached."""
        if self._all is None:
            rewritings = list(self.rewritings())
            if self.config.remove_redundant_rewritings:
                rewritings = remove_redundant_disjuncts(rewritings)
            self._all = rewritings
        return self._all

    def union(self) -> UnionQuery:
        """The reformulated query: a union of CQs over stored relations."""
        return UnionQuery(
            self.all_rewritings(), name=self.query.name, arity=self.query.arity
        )

    @property
    def statistics(self) -> TreeStatistics:
        """Node statistics of the rule-goal tree."""
        return self.tree.statistics


# ---------------------------------------------------------------------------
# Tree construction (Step 2)
# ---------------------------------------------------------------------------

class _MCDContext(NamedTuple):
    """An MCD query ``distinguished :- subgoals`` over positional variables,
    with the original variable behind each positional one."""

    distinguished: Tuple[Variable, ...]
    subgoals: Tuple[Atom, ...]
    originals: Dict[Variable, Variable]


class _BuildBasis(NamedTuple):
    """What a tree was built against, besides the catalogue entries its
    goals recorded: all a rebuild replaying it needs to know."""

    productive: Optional[frozenset]
    coverable: frozenset
    #: Where the builder's fresh-variable counter stopped.
    fresh_position: int


class _Replay:
    """A stale goal's expansion, indexed by catalogue entry (by identity)."""

    __slots__ = ("stale", "considered", "rules", "pruned", "kept", "expanded", "_siblings")

    def __init__(self, stale: GoalNode):
        self.stale = stale
        definitional, inclusions = stale.considered or ((), ())
        self.considered = {id(entry) for entry in definitional}
        self.considered.update(id(entry) for entry in inclusions)
        self.rules: Dict[int, List[RuleNode]] = {}
        for rule in stale.children:
            self.rules.setdefault(id(rule.description), []).append(rule)
        self.pruned: Dict[int, List[Optional[str]]] = {}
        for entry, dead_end in stale.pruned:
            self.pruned.setdefault(id(entry), []).append(dead_end)
        self.kept = 0  #: entries whose stale outcome was copied
        self.expanded = False  #: whether some entry was expanded afresh
        self._siblings: Optional[Dict[GoalNode, GoalNode]] = None

    def replays(self, entry: object, moved: frozenset) -> bool:
        """May ``entry``'s outcome on the stale goal be copied?  Only if the
        stale goal considered it, and no predicate the outcome depends on
        (``moved``) changed its productive or coverable status since."""
        if moved or id(entry) not in self.considered:
            self.expanded = True
            return False
        self.kept += 1
        return True

    def changed(self) -> bool:
        """Do the goal's children differ from the stale goal's (or may they)?"""
        return self.expanded or self.kept < len(self.considered)

    def sibling(self, goal: GoalNode, stale_sibling: GoalNode) -> GoalNode:
        """``goal``'s sibling in the place ``stale_sibling`` has among the
        stale goal's siblings (a copied rule keeps its children's order)."""
        if self._siblings is None:
            self._siblings = dict(zip(self.stale.siblings(), goal.siblings()))
        return self._siblings[stale_sibling]


class _TreeBuilder:
    """Builds the rule-goal tree for one query — from nothing, or by
    replaying the tree of an earlier reformulation of it (``previous``)
    against the current catalogue.

    A goal's expansion depends on its label, constraint, blocked origins,
    siblings and external variables — all copied with it — and on the
    catalogue: the entries for its predicate, the productive and coverable
    predicates (dead-end pruning), and which child predicates are stored.
    So a replayed goal copies, entry by entry, what the stale goal did with
    each entry it also considered (identity: catalogue entries are
    immutable, and an entry survives churn as the same object), and runs
    the expansion code a fresh build runs for the rest: entries added
    since, and definitional entries whose body meets a predicate whose
    productive or coverable status moved.  A copied child whose stored
    status flipped is expanded afresh.  A fresh build is the replay of
    nothing — every goal takes the second branch — and either way the
    tree equals a fresh build's up to the names of fresh variables, which
    continue from the stale builder's counter.  Nothing is cached across
    catalogue states: every goal is re-validated against the catalogue of
    this build.

    Copied nodes are new objects (``covers`` remapped onto the new
    siblings), so the stale result stays a valid snapshot.  When the stale
    result's plan compiled its factored root, the topmost copied rule
    nodes with an unchanged subtree record their ``source`` and the new
    result carries that plan as ``_seed_plan``, for the new plan to reuse
    the compile of those subtrees (see ``UnionPlan``).
    """

    def __init__(
        self,
        pdms: PDMS,
        query: ConjunctiveQuery,
        config: ReformulationConfig,
        previous: Optional["ReformulationResult"] = None,
    ):
        self._pdms = pdms
        self._query = query
        self._config = config
        self._catalogue = pdms.catalogue()
        self._productive: Optional[frozenset] = None
        if config.prune_dead_ends:
            self._productive = self._catalogue.productive_predicates()
        self._coverable = self._catalogue.coverable_predicates()
        if previous is not None and (
            previous._basis is None
            or previous.config != config
            or previous.query != query
        ):
            previous = None
        self._previous = previous
        #: Predicates whose productive or coverable status differs from
        #: what the stale tree was built against.
        self._moved: frozenset = frozenset()
        start = 0
        if previous is not None:
            basis = previous._basis
            start = basis.fresh_position
            if config.prune_dead_ends:
                self._moved = (basis.productive ^ self._productive) | (
                    basis.coverable ^ self._coverable
                )
        self._fresh = FreshVariableFactory(prefix="_r", start=start)
        self._fresh.reserve(v.name for v in query.all_variables())
        self._mcd_cache: Dict[tuple, List[MCD]] = {}
        #: Positional variables ``_x0, _x1, ...`` MCD queries are posed over.
        self._canonical_vars: List[Variable] = []
        self._stats = TreeStatistics()
        self._node_budget = config.max_nodes
        # Provenance accumulators (see ReformulationProvenance).
        self._used_origins: Set[str] = set()
        self._touched_predicates: Set[str] = set()
        self._dead_end_frontier: Set[str] = set()
        # Replay state: goals still to replay -> the stale goal each copies;
        # copied rule nodes -> the stale rule node each copies; the nodes on
        # a path from the root to a goal whose children differ from the
        # stale tree's.
        self._twins: Dict[GoalNode, GoalNode] = {}
        self._copies: Dict[RuleNode, RuleNode] = {}
        self._dirty: Set[object] = set()
        #: The stale result's plan, once the new tree's rules point into it.
        self.seed_plan: Optional[object] = None

    # -- public ------------------------------------------------------------------

    def basis(self) -> _BuildBasis:
        """What the built tree was built against (call after :meth:`build`)."""
        return _BuildBasis(self._productive, self._coverable, self._fresh.position)

    def build(self) -> RuleGoalTree:
        root = GoalNode(
            self._query.head,
            constraint=ConstraintSet(self._query.comparison_body()),
            parent=None,
            blocked=frozenset(),
            is_stored=False,
            depth=0,
            external=frozenset(self._query.head.variables()),
        )
        self._count_goal(root)
        tree = RuleGoalTree(root)

        query_rule = RuleNode(
            RuleNode.KIND_QUERY,
            description=self._query,
            origin=_QUERY_ORIGIN,
            parent=root,
            constraint=ConstraintSet(self._query.comparison_body()),
        )
        root.add_child(query_rule)
        self._count_rule()
        stale_rule: Optional[RuleNode] = None
        if self._previous is not None:
            stale_rule = self._previous.tree.root.children[0]
            self._copies[query_rule] = stale_rule

        body_atoms = self._query.relational_body()
        frontier: List[GoalNode] = []
        for index, atom in enumerate(body_atoms):
            other_vars: Set[Variable] = set()
            for other in body_atoms:
                if other is not atom:
                    other_vars |= other.variable_set()
            child = self._make_goal(
                atom,
                parent=query_rule,
                blocked=frozenset(),
                constraint=query_rule.constraint.project(atom.variable_set()),
                depth=1,
                external=frozenset(
                    atom.variable_set() & (root.external | other_vars)
                ),
            )
            query_rule.add_child(child)
            if stale_rule is not None:
                self._adopt(child, stale_rule.children[index])
            if not child.is_stored:
                frontier.append(child)

        self._expand_all(frontier)
        tree.statistics = self._stats
        tree.count_nodes()
        seed = self._previous._factored_plan if self._previous is not None else None
        if seed is not None and self._mark_sources(root):
            self.seed_plan = seed
        return tree

    # -- replay --------------------------------------------------------------------

    def _adopt(self, goal: GoalNode, stale: GoalNode) -> None:
        """Let ``goal`` replay ``stale``, its copy's original — unless its
        stored status flipped, which makes it a new goal, expanded afresh."""
        if goal.is_stored != stale.is_stored:
            self._mark_dirty(goal)
        elif not goal.is_stored:
            self._twins[goal] = stale

    def _mark_dirty(self, node) -> None:
        """``node`` (a goal) differs from the stale tree; so does every
        ancestor's subtree."""
        dirty = self._dirty
        while node is not None and node not in dirty:
            dirty.add(node)
            node = node.parent

    def _mark_sources(self, root: GoalNode) -> bool:
        """Point the topmost copied rule nodes whose subtree is unchanged at
        their originals; returns whether any was.  Deeper ones are left
        alone: a plan reusing a subtree's compile never looks below it."""
        marked = False
        stack = [root]
        while stack:
            goal = stack.pop()
            for rule in goal.children:
                if rule in self._dirty:
                    stack.extend(rule.children)
                else:
                    rule.source = self._copies.get(rule)
                    marked = marked or rule.source is not None
        return marked

    def _replay_entry(self, goal: GoalNode, replay: _Replay, entry: object) -> List[GoalNode]:
        """Copy what ``entry`` did to the stale goal under ``goal``: the
        prunes it counted and the rule nodes it made, with their children."""
        for dead_end in replay.pruned.get(id(entry), ()):
            self._prune(goal, entry, dead_end)
        produced: List[GoalNode] = []
        for stale_rule in replay.rules.get(id(entry), ()):
            covers = frozenset([replay.sibling(goal, g) for g in stale_rule.covers])
            rule_node = RuleNode(
                stale_rule.kind,
                description=stale_rule.description,
                origin=stale_rule.origin,
                parent=goal,
                constraint=stale_rule.constraint,
                covers=covers,
            )
            goal.add_child(rule_node)
            self._count_rule()
            self._used_origins.add(rule_node.origin)
            self._copies[rule_node] = stale_rule
            for stale_child in stale_rule.children:
                child = self._make_goal(
                    stale_child.label,
                    parent=rule_node,
                    blocked=stale_child.blocked,
                    constraint=stale_child.constraint,
                    depth=stale_child.depth,
                    external=stale_child.external,
                )
                rule_node.add_child(child)
                self._adopt(child, stale_child)
                produced.append(child)
        return produced

    # -- bookkeeping -------------------------------------------------------------

    def _count_goal(self, goal: GoalNode) -> None:
        self._stats.goal_nodes += 1
        if self._node_budget is not None and self._stats.total_nodes > self._node_budget:
            raise ReformulationError(
                f"rule-goal tree exceeded the configured maximum of "
                f"{self._node_budget} nodes"
            )

    def _count_rule(self) -> None:
        self._stats.rule_nodes += 1
        if self._node_budget is not None and self._stats.total_nodes > self._node_budget:
            raise ReformulationError(
                f"rule-goal tree exceeded the configured maximum of "
                f"{self._node_budget} nodes"
            )

    def _make_goal(
        self,
        atom: Atom,
        parent: RuleNode,
        blocked: frozenset,
        constraint: ConstraintSet,
        depth: int,
        external: frozenset,
    ) -> GoalNode:
        goal = GoalNode(
            atom,
            constraint=constraint,
            parent=parent,
            blocked=blocked,
            is_stored=self._catalogue.is_stored(atom.predicate),
            depth=depth,
            external=external,
        )
        self._count_goal(goal)
        self._touched_predicates.add(atom.predicate)
        return goal

    def provenance(self) -> ReformulationProvenance:
        """Provenance of the built tree (call after :meth:`build`)."""
        dependencies = set(self._touched_predicates)
        if self._dead_end_frontier:
            dependencies |= _unproductive_closure(
                self._catalogue,
                self._dead_end_frontier,
                self._productive if self._productive is not None else frozenset(),
            )
        return ReformulationProvenance(
            used_origins=frozenset(self._used_origins),
            touched_predicates=frozenset(self._touched_predicates),
            dependencies=frozenset(dependencies),
        )

    def _outside_vars(self, goal: GoalNode) -> Set[Variable]:
        """Variables visible outside the sibling group of ``goal``.

        For children of the query rule or of definitional rule nodes this
        is the ``external`` set of the rule's parent goal (the only
        interface between the rule body and the rest of the tree); for the
        single child of an inclusion rule node it is the child's own
        ``external`` set, which was computed from the covered siblings
        when the node was created.
        """
        parent_rule = goal.parent
        if parent_rule is None:
            return set(self._query.head.variables())
        if parent_rule.kind == RuleNode.KIND_INCLUSION:
            return set(goal.external)
        return set(parent_rule.parent.external)

    # -- frontier management -------------------------------------------------------

    def _expand_all(self, initial: Sequence[GoalNode]) -> None:
        order = self._config.expansion_order
        if order is ExpansionOrder.FEWEST_OPTIONS_FIRST:
            # Cheap heuristic on applicable descriptions: the heap pops the
            # earliest-inserted goal among those with the fewest options.
            frontier: list = []
            insertion = itertools.count()

            def push(goal: GoalNode) -> None:
                heapq.heappush(frontier, (self._option_count(goal), next(insertion), goal))

            def pop() -> GoalNode:
                return heapq.heappop(frontier)[2]
        else:
            frontier = deque()
            push = frontier.append
            pop = frontier.popleft if order is ExpansionOrder.BREADTH_FIRST else frontier.pop

        for goal in initial:
            push(goal)
        while frontier:
            goal = pop()
            if goal.expanded or goal.is_stored:
                continue
            if self._config.max_depth is not None and goal.depth >= self._config.max_depth:
                goal.expanded = True
                continue
            for child in self._expand(goal):
                if not child.is_stored and not child.expanded:
                    push(child)

    def _option_count(self, goal: GoalNode) -> int:
        predicate = goal.label.predicate
        return len(self._catalogue.definitional_for(predicate)) + len(
            self._catalogue.inclusions_mentioning(predicate)
        )

    # -- expansion ---------------------------------------------------------------

    def _expand(self, goal: GoalNode) -> List[GoalNode]:
        """Perform every possible expansion of ``goal``; return new goal nodes.

        Each catalogue entry for the goal's predicate is either replayed
        from the stale goal ``goal`` copies (see the class docstring) or
        expanded by the code a fresh build runs."""
        goal.expanded = True
        stale = self._twins.pop(goal, None)
        if self._config.prune_unsatisfiable and not goal.constraint.is_satisfiable():
            self._stats.pruned_unsatisfiable += 1
            return []
        replay = _Replay(stale) if stale is not None else None
        goal.considered = definitional, inclusions = self._catalogue.entries_for(
            goal.label.predicate
        )
        new_children = self._definitional_expansions(goal, definitional, replay)
        new_children.extend(self._inclusion_expansions(goal, inclusions, replay))
        if replay is not None and replay.changed():
            self._mark_dirty(goal)
        return new_children

    def _prune(self, goal: GoalNode, entry: object, dead_end: Optional[str]) -> None:
        """Count an expansion of ``goal`` by ``entry`` a pruner dropped — an
        unsatisfiable one, or a dead end over ``dead_end`` — on the goal too."""
        if dead_end is None:
            self._stats.pruned_unsatisfiable += 1
        else:
            self._stats.pruned_dead_end += 1
            # The pruning decision hinges on this predicate staying
            # unproductive and uncoverable; record it so provenance can
            # flag catalogue additions that would revive the expansion.
            self._dead_end_frontier.add(dead_end)
        goal.pruned += ((entry, dead_end),)

    # .. definitional (GAV-style) ..................................................

    def _definitional_expansions(
        self, goal: GoalNode, entries: Sequence[NormalizedRule], replay: Optional[_Replay]
    ) -> List[GoalNode]:
        produced: List[GoalNode] = []
        for normalized in entries:
            if replay is not None and replay.replays(
                normalized, self._moved & normalized.body_predicates()
            ):
                produced.extend(self._replay_entry(goal, replay, normalized))
                continue
            if not normalized.synthetic and normalized.origin in goal.blocked:
                continue
            renamed = normalized.rule.rename_apart(self._fresh)
            unifier = unify_atoms(renamed.head, goal.label)
            if unifier is None:
                continue
            body = apply_substitution_body(renamed.body, unifier)
            relational = [a for a in body if isinstance(a, Atom)]
            comparisons = [a for a in body if isinstance(a, ComparisonAtom)]
            # Unification may bind variables of the goal's label itself
            # (e.g. unifying ``SkilledPerson(pid, skill)`` with the head
            # ``SkilledPerson(sid, "Doctor")`` binds skill = "Doctor").
            # Those bindings restrict when this expansion applies and are
            # carried as equality constraints so rewritings enforce them.
            bindings = [
                ComparisonAtom(variable, "=", resolved)
                for variable in goal.label.variable_set()
                for resolved in [apply_substitution_term(variable, unifier)]
                if resolved != variable
            ]
            rule_constraint = goal.constraint.conjoin(comparisons).conjoin(bindings)
            if self._config.prune_unsatisfiable and not rule_constraint.is_satisfiable():
                self._prune(goal, normalized, None)
                continue
            if self._config.prune_dead_ends:
                dead_end = self._dead_end(relational)
                if dead_end is not None:
                    self._prune(goal, normalized, dead_end)
                    continue
            rule_node = RuleNode(
                RuleNode.KIND_DEFINITIONAL,
                description=normalized,
                origin=normalized.origin,
                parent=goal,
                constraint=rule_constraint,
            )
            goal.add_child(rule_node)
            self._count_rule()
            self._used_origins.add(normalized.origin)
            blocked = goal.blocked
            if not normalized.synthetic:
                blocked = blocked | {normalized.origin}
            for atom in relational:
                other_vars: Set[Variable] = set()
                for other in relational:
                    if other is not atom:
                        other_vars |= other.variable_set()
                child = self._make_goal(
                    atom,
                    parent=rule_node,
                    blocked=blocked,
                    constraint=rule_constraint.project(atom.variable_set()),
                    depth=goal.depth + 1,
                    external=frozenset(
                        atom.variable_set() & (set(goal.external) | other_vars)
                    ),
                )
                rule_node.add_child(child)
                produced.append(child)
        return produced

    def _dead_end(self, body: Sequence[Atom]) -> Optional[str]:
        """A definitional expansion is useless if some body goal can neither
        reach stored data nor be covered by a sibling's inclusion expansion:
        the first such body predicate, if any."""
        assert self._productive is not None
        for atom in body:
            predicate = atom.predicate
            if predicate not in self._productive and predicate not in self._coverable:
                return predicate
        return None

    # .. inclusion (LAV-style) ......................................................

    def _inclusion_expansions(
        self,
        goal: GoalNode,
        applicable: Sequence[NormalizedInclusion],
        replay: Optional[_Replay],
    ) -> List[GoalNode]:
        produced: List[GoalNode] = []
        # The MCD query "exported :- sibling atoms", posed once per goal
        # (on the first inclusion expanded here) for all of its inclusions.
        context: Optional[_MCDContext] = None
        for inclusion in applicable:
            if replay is not None and replay.replays(inclusion, frozenset()):
                produced.extend(self._replay_entry(goal, replay, inclusion))
                continue
            if inclusion.origin in goal.blocked:
                continue
            if context is None:
                siblings = goal.siblings()
                my_index = siblings.index(goal)
                sibling_vars: Set[Variable] = set()
                for sibling in siblings:
                    sibling_vars |= sibling.label.variable_set()
                outside = self._outside_vars(goal)
                context = self._mcd_context(
                    [s.label for s in siblings], sorted(outside & sibling_vars)
                )
            view_comparisons = (
                inclusion.view.definition.comparison_body()
                if self._config.prune_unsatisfiable
                else ()
            )
            for mcd in self._mcds_for(context, inclusion, my_index):
                covered_constraint = goal.constraint
                for index in sorted(mcd.covered):
                    if index != my_index:
                        covered_constraint = covered_constraint.conjoin(
                            siblings[index].constraint
                        )
                # Equalities induced by the MCD must be enforced by the
                # rewriting; the view's own comparison atoms are implied by
                # the view's contents, so they only participate in the
                # satisfiability check, not in the output constraint.
                rule_constraint = covered_constraint.conjoin(mcd.equalities)
                if self._config.prune_unsatisfiable and not rule_constraint.conjoin(
                    view_comparisons
                ).is_satisfiable():
                    self._prune(goal, inclusion, None)
                    continue
                rule_node = RuleNode(
                    RuleNode.KIND_INCLUSION,
                    description=inclusion,
                    origin=inclusion.origin,
                    parent=goal,
                    constraint=rule_constraint,
                    covers=frozenset(siblings[i] for i in mcd.covered),
                )
                goal.add_child(rule_node)
                self._count_rule()
                self._used_origins.add(inclusion.origin)
                uncovered_vars: Set[Variable] = set()
                for index, sibling in enumerate(siblings):
                    if index not in mcd.covered:
                        uncovered_vars |= sibling.label.variable_set()
                view_vars = mcd.view_atom.variable_set()
                child = self._make_goal(
                    mcd.view_atom,
                    parent=rule_node,
                    blocked=goal.blocked | {inclusion.origin},
                    constraint=rule_constraint.project(view_vars),
                    depth=goal.depth + 1,
                    external=frozenset(view_vars & (outside | uncovered_vars)),
                )
                rule_node.add_child(child)
                produced.append(child)
        return produced

    def _mcd_context(
        self, atoms: Sequence[Atom], exported: Sequence[Variable]
    ) -> _MCDContext:
        """Rename an MCD query's variables to positional names.

        Structurally identical sibling groups get equal contexts whatever
        their variables are called, which makes the context a memo key; and
        positional names never collide with a prepared view's variables
        (see :meth:`NormalizedInclusion.prepared_view`).
        """
        canonical_vars = self._canonical_vars
        mapping: Dict[Variable, Variable] = {}
        originals: Dict[Variable, Variable] = {}

        def canon(term: Term) -> Term:
            if not isinstance(term, Variable):
                return term
            canonical = mapping.get(term)
            if canonical is None:
                position = len(mapping)
                if position == len(canonical_vars):
                    canonical_vars.append(Variable(f"_x{position}"))
                canonical = mapping[term] = canonical_vars[position]
                originals[canonical] = term
            return canonical

        distinguished = tuple(canon(variable) for variable in exported)
        subgoals = tuple(
            Atom.trusted(atom.predicate, tuple(canon(arg) for arg in atom.args))
            for atom in atoms
        )
        return _MCDContext(distinguished, subgoals, originals)

    def _mcds_for(
        self, context: _MCDContext, inclusion: NormalizedInclusion, my_index: int
    ) -> List[MCD]:
        view = inclusion.prepared_view()
        memoize = self._config.memoize_mcds
        key = (view, my_index, context.distinguished, context.subgoals)
        canonical_mcds = self._mcd_cache.get(key) if memoize else None
        if canonical_mcds is None:
            canonical_mcds = form_mcds(
                context.subgoals,
                context.distinguished,
                view,
                FreshVariableFactory(prefix="_c"),
                only_subgoal=my_index,
            )
            if memoize:
                self._mcd_cache[key] = canonical_mcds
        else:
            self._stats.memoization_hits += 1

        # Translate the canonical MCDs back to the actual variable names;
        # positions the view does not export get one fresh variable each.
        originals = context.originals
        translated: List[MCD] = []
        for mcd in canonical_mcds:
            placeholders: Dict[Variable, Variable] = {}

            def back(term: Term) -> Term:
                if not isinstance(term, Variable):
                    return term
                original = originals.get(term)
                if original is None:
                    original = placeholders.get(term)
                    if original is None:
                        original = placeholders[term] = self._fresh("_mv")
                return original

            view_atom = Atom.trusted(
                mcd.view_atom.predicate, tuple(back(arg) for arg in mcd.view_atom.args)
            )
            equalities = tuple(
                ComparisonAtom(back(eq.left), eq.op, back(eq.right))
                for eq in mcd.equalities
            )
            translated.append(
                MCD(
                    view=mcd.view,
                    view_atom=view_atom,
                    covered=mcd.covered,
                    created_for=mcd.created_for,
                    equalities=equalities,
                )
            )
        return translated


# ---------------------------------------------------------------------------
# Rewriting assembly (Step 3)
# ---------------------------------------------------------------------------

#: A partial rewriting: stored atoms chosen so far and the comparisons
#: (constraint labels, mapping-induced equalities) they must satisfy.
_Partial = Tuple[Tuple[Atom, ...], ConstraintSet]


class _RewritingAssembler:
    """Assembles conjunctive rewritings from a built rule-goal tree.

    The cost of a rewriting is proportional to its atoms plus the
    comparisons it actually carries: constraint labels without comparisons
    are shared objects that are never copied, checked or substituted, and
    every distinct conjunction of comparisons is resolved (satisfiability,
    equalities turned into a substitution) once, however many rewritings
    carry it.
    """

    def __init__(
        self, query: ConjunctiveQuery, tree: RuleGoalTree, config: ReformulationConfig
    ):
        self._query = query
        self._tree = tree
        self._config = config
        self._rule_cache: Dict[int, _LazySeq] = {}
        self._cache_lock = threading.Lock()
        #: constraint -> (substitution, substituted residual comparisons),
        #: or ``None`` when the conjunction is contradictory.
        self._resolved: Dict[
            ConstraintSet,
            Optional[Tuple[Dict[Variable, Term], Tuple[ComparisonAtom, ...]]],
        ] = {}

    # -- public -------------------------------------------------------------------

    def rewritings(self) -> Iterator[ConjunctiveQuery]:
        root = self._tree.root
        emitted = set()
        for rule_node in root.children:
            for atoms, constraint in self._rule_rewritings(rule_node):
                rewriting = self._finalise(atoms, constraint)
                if rewriting is None:
                    continue
                # Structural, not printed: ``S(x, 5)`` over the constant and
                # over a variable named ``5`` print alike.
                key = (rewriting.head, frozenset(rewriting.body))
                if key in emitted:
                    continue
                emitted.add(key)
                yield rewriting

    # -- assembly ------------------------------------------------------------------

    def _goal_options(self, goal: GoalNode) -> List[Tuple[frozenset, Optional[RuleNode]]]:
        """Ways to *use* a goal node: (coverage set, source).

        ``source`` is ``None`` for stored leaves (the leaf atom itself is
        the rewriting) or a rule node to descend through.  Coverage is the
        set of sibling goal nodes satisfied by that choice.
        """
        if goal.is_stored:
            return [(frozenset([goal]), None)]
        options: List[Tuple[frozenset, Optional[RuleNode]]] = []
        for rule_node in goal.children:
            if rule_node.kind == RuleNode.KIND_INCLUSION:
                coverage = rule_node.covers | {goal}
            else:
                coverage = frozenset([goal])
            options.append((coverage, rule_node))
        return options

    def _rule_rewritings(self, rule_node: RuleNode) -> Iterable[_Partial]:
        cached = self._rule_cache.get(rule_node.id)
        if cached is None:
            with self._cache_lock:
                cached = self._rule_cache.get(rule_node.id)
                if cached is None:
                    cached = _LazySeq(self._rule_rewritings_iter(rule_node))
                    self._rule_cache[rule_node.id] = cached
        return cached

    def _rule_rewritings_iter(self, rule_node: RuleNode) -> Iterator[_Partial]:
        """The distinct partial rewritings below ``rule_node``, in choice order.

        A repeated partial would repeat, further up, every rewriting its
        first occurrence already takes part in — each a duplicate the root
        drops — so dropping it here, before it multiplies, leaves the
        emitted sequence unchanged.
        """
        children = rule_node.children
        if not children:
            # A rule node with no children (can happen for definitional rules
            # whose body is pure comparisons) contributes no atoms.
            yield ((), rule_node.constraint)
            return

        # Children as bit positions, lowest id first; per child to cover, the
        # options able to cover it in (child, option) order:
        # (child bit, coverage mask, the leaf's own partial, rule node).
        ranked = sorted(children, key=lambda g: g.id)
        bit_of = {goal: 1 << rank for rank, goal in enumerate(ranked)}
        covering: Dict[int, List[Tuple[int, int, Optional[_Partial], Optional[RuleNode]]]]
        covering = {bit: [] for bit in bit_of.values()}
        for child in children:
            for coverage, source in self._goal_options(child):
                mask = 0
                for goal in coverage:
                    mask |= bit_of[goal]
                leaf = ((child.label,), child.constraint) if source is None else None
                option = (bit_of[child], mask, leaf, source)
                for bit in covering:
                    if mask & bit:
                        covering[bit].append(option)

        def cover(
            remaining: int, used: int, atoms: Tuple[Atom, ...], constraint: ConstraintSet
        ) -> Iterator[_Partial]:
            if not remaining:
                yield atoms, constraint
                return
            # Deterministically attack the first uncovered child.
            target = remaining & -remaining
            for child_bit, mask, leaf, source in covering[target]:
                if child_bit & used:
                    continue
                sub_results = (leaf,) if source is None else self._rule_rewritings(source)
                for sub_atoms, sub_constraint in sub_results:
                    yield from cover(
                        remaining & ~mask,
                        used | child_bit,
                        atoms + sub_atoms,
                        constraint.conjoin(sub_constraint),
                    )

        seen: Set[_Partial] = set()
        for partial in cover((1 << len(ranked)) - 1, 0, (), rule_node.constraint):
            if partial not in seen:
                seen.add(partial)
                yield partial

    # -- finalisation -----------------------------------------------------------------

    def _finalise(
        self, atoms: Tuple[Atom, ...], constraint: ConstraintSet
    ) -> Optional[ConjunctiveQuery]:
        if not atoms:
            return None
        head = self._query.head
        residual: Tuple[ComparisonAtom, ...] = ()
        if constraint:
            resolved = self._resolve(constraint)
            if resolved is None:
                return None
            # Bindings forced by the mappings (``skill = "Doctor"`` from a
            # definitional head, ``f1 = f2`` from an MCD) flow into the head
            # and body instead of dangling as comparisons over missing
            # variables.
            substitution, residual = resolved
            if substitution:
                head = head.substitute(substitution)
                atoms = tuple(atom.substitute(substitution) for atom in atoms)

        available: Set[Variable] = set()
        for atom in atoms:
            available |= atom.variable_set()
        if not head.variable_set() <= available:
            return None
        body: List = list(dict.fromkeys(atoms))
        for comparison in residual:
            if not comparison.variable_set() <= available:
                # A required comparison that the chosen stored atoms cannot
                # express would make the rewriting unsound; discard it.
                return None
            body.append(comparison)
        # Safe by the two checks above.
        rewriting = ConjunctiveQuery.trusted(head, tuple(body))
        if self._config.minimize_rewritings:
            rewriting = minimize_query(rewriting)
        return rewriting

    def _resolve(
        self, constraint: ConstraintSet
    ) -> Optional[Tuple[Dict[Variable, Term], Tuple[ComparisonAtom, ...]]]:
        """Resolve a conjunction of comparisons once for every rewriting
        carrying it: ``None`` if it is contradictory, else the substitution
        its equalities amount to and the other comparisons under it."""
        try:
            return self._resolved[constraint]
        except KeyError:
            pass
        resolved = None
        # Discard rewritings whose accumulated constraints are contradictory
        # (the paper: "If the resulting conjunctive query is unsatisfiable,
        # we discard it").  This is a correctness matter, not an optimization,
        # so it does not depend on the configuration.
        if constraint.is_satisfiable():
            substitution, residual = self._equalities_to_substitution(constraint)
            if substitution is not None:
                remaining: List[ComparisonAtom] = []
                for comparison in residual:
                    comparison = comparison.substitute(substitution)
                    if not comparison.is_ground():
                        remaining.append(comparison)
                    elif not comparison.evaluate_ground():
                        break
                else:
                    resolved = (substitution, tuple(remaining))
        self._resolved[constraint] = resolved
        return resolved

    def _equalities_to_substitution(
        self, constraint: ConstraintSet
    ) -> Tuple[Optional[Dict[Variable, Term]], List[ComparisonAtom]]:
        """Resolve the equality atoms of ``constraint`` into a substitution.

        Returns ``(substitution, residual)`` where ``residual`` holds the
        non-equality comparisons; returns ``(None, [])`` if the equalities
        are contradictory (two different constants forced equal), which
        should already have been caught by the satisfiability check.
        """
        head_vars = set(self._query.head_variables())
        substitution: Dict[Variable, Term] = {}
        residual: List[ComparisonAtom] = []

        def resolve(term: Term) -> Term:
            return apply_substitution_term(term, substitution)

        for comparison in constraint:
            if comparison.op != "=":
                residual.append(comparison)
                continue
            left = resolve(comparison.left)
            right = resolve(comparison.right)
            if left == right:
                continue
            left_is_var = is_variable(left)
            right_is_var = is_variable(right)
            if left_is_var and right_is_var:
                # Prefer eliminating the variable that is not a query head
                # variable so the rewriting's head keeps its original names.
                if left in head_vars and right not in head_vars:
                    substitution[right] = left  # type: ignore[index]
                else:
                    substitution[left] = right  # type: ignore[index]
            elif left_is_var:
                substitution[left] = right  # type: ignore[index]
            elif right_is_var:
                substitution[right] = left  # type: ignore[index]
            else:
                return None, []
        # Flatten chains (x -> y, y -> 5 becomes x -> 5) so that a single
        # application via ``Atom.substitute`` suffices.
        flattened = {
            variable: apply_substitution_term(variable, substitution)
            for variable in substitution
        }
        return flattened, residual


# ---------------------------------------------------------------------------
# Cheap query canonicalization (cache keys for the service layer)
# ---------------------------------------------------------------------------

_CANONICAL_HEAD = "__q__"


@dataclass(frozen=True)
class CanonicalQuery:
    """A query renamed to positional variables plus its cache signature.

    Two queries with equal ``signature`` are identical up to variable
    renaming, body-atom order, and head-predicate name — so they share
    one reformulation, and because the canonical head lists the original
    head arguments *positionally*, evaluating the canonical rewritings
    yields exactly the original query's answer rows.  The converse need
    not hold (symmetric self-join queries may canonicalise differently
    per atom order); a missed isomorphism costs a cache miss, never a
    wrong answer.
    """

    query: ConjunctiveQuery
    signature: str


def canonicalize_query(query: ConjunctiveQuery) -> CanonicalQuery:
    """Rename ``query`` to a canonical form in one cheap linear pass.

    Relational atoms are sorted by predicate and constant pattern, then
    variables are renamed positionally (head first, then sorted body);
    comparison atoms are renamed and sorted last.
    """
    def atom_sort_key(atom: Atom):
        return (
            atom.predicate,
            atom.arity,
            tuple(
                ("v",) if is_variable(arg) else ("c", repr(arg))
                for arg in atom.args
            ),
        )

    body_atoms = sorted(query.relational_body(), key=atom_sort_key)
    renaming: Dict[Variable, Variable] = {}

    def canon(term: Term) -> Term:
        if not is_variable(term):
            return term
        if term not in renaming:
            renaming[term] = Variable(f"_q{len(renaming)}")
        return renaming[term]

    head = Atom(_CANONICAL_HEAD, [canon(arg) for arg in query.head.args])
    canonical_body: List = [
        Atom(atom.predicate, [canon(arg) for arg in atom.args]) for atom in body_atoms
    ]
    comparisons = sorted(
        (
            ComparisonAtom(canon(comp.left), comp.op, canon(comp.right))
            for comp in query.comparison_body()
        ),
        key=str,
    )
    canonical_body.extend(comparisons)
    canonical = ConjunctiveQuery(head, canonical_body)
    signature = f"{canonical.head} :- " + ", ".join(str(a) for a in canonical.body)
    return CanonicalQuery(query=canonical, signature=signature)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def reformulate(
    pdms: PDMS,
    query: ConjunctiveQuery,
    config: Optional[ReformulationConfig] = None,
    previous: Optional[ReformulationResult] = None,
) -> ReformulationResult:
    """Reformulate ``query`` over the PDMS's stored relations.

    Parameters
    ----------
    pdms:
        The peer data management system (peers, storage descriptions, peer
        mappings).
    query:
        A conjunctive query over peer relations (of any peer).
    config:
        Optional :class:`ReformulationConfig`; defaults enable every
        optimization.
    previous:
        An earlier result for the same query and configuration, built
        against an older catalogue (a cache entry the catalogue changed
        under).  The tree is then rebuilt by replaying ``previous``'s,
        re-expanding only what the catalogue changed; the result equals a
        fresh one up to the names of fresh variables.  ``previous`` is
        only read; one for another query or configuration is ignored.

    Returns
    -------
    ReformulationResult
        Holds the rule-goal tree (with node statistics) and streams the
        conjunctive rewritings over stored relations.
    """
    config = config if config is not None else DEFAULT_CONFIG
    builder = _TreeBuilder(pdms, query, config, previous)
    tree = builder.build()
    assembler = _RewritingAssembler(query, tree, config)
    return ReformulationResult(
        query=query,
        tree=tree,
        config=config,
        provenance=builder.provenance(),
        catalogue_version=pdms.catalogue_version,
        _assembler=assembler,
        _basis=builder.basis(),
        _seed_plan=builder.seed_plan,
    )
