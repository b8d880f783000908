"""Rule-goal tree (DAG) data structures for the reformulation algorithm.

Section 4 of the paper builds a tree with alternating *goal nodes*
(labelled with atoms of peer or stored relations) and *rule nodes*
(labelled with the peer description used to expand the parent goal).  Rule
nodes produced by *inclusion expansions* additionally carry an ``unc``
label: the set of siblings of their father goal node (always including the
father itself) that the MCD behind the expansion covers.  Every node also
carries a *constraint label*: the conjunction of comparison predicates
known to hold over the variables of its label.

The tree is the unit the paper measures: Figure 3 plots the number of
nodes against the PDMS diameter, and Figure 4 the time to extract the
first/10th/all rewritings from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.atoms import Atom
from ..datalog.constraints import ConstraintSet


class GoalNode:
    """A goal node, labelled with an atom over a peer or stored relation.

    Attributes
    ----------
    label:
        The atom ``p(Y̅)``.
    constraint:
        Constraint label ``c(n)``.
    parent:
        The rule node this goal is a child of (``None`` for the root).
    children:
        Rule nodes expanding this goal (alternative ways to satisfy it).
    blocked:
        Origin names of descriptions used on the path from the root to
        this node (the termination rule forbids reusing them here).
    is_stored:
        Whether the label's predicate is a stored relation (then this node
        is a leaf that appears directly in rewritings).
    considered:
        Once expanded: the catalogue's ``(definitional, inclusion)`` entry
        tuples for the label's predicate, as the expansion saw them (kept
        by reference).
    pruned:
        One ``(entry, dead_end)`` pair per expansion of this goal a pruner
        dropped: ``dead_end`` is the predicate that made it a dead end, or
        ``None`` for an unsatisfiable constraint label.

    ``considered`` and ``pruned`` are what a later rebuild of the tree
    replays the goal from (see :mod:`repro.pdms.reformulation`).
    """

    __slots__ = (
        "id",
        "label",
        "constraint",
        "parent",
        "children",
        "blocked",
        "is_stored",
        "expanded",
        "depth",
        "external",
        "considered",
        "pruned",
    )

    _ids = itertools.count()

    def __init__(
        self,
        label: Atom,
        constraint: ConstraintSet = ConstraintSet(),
        parent: Optional["RuleNode"] = None,
        blocked: frozenset = frozenset(),
        is_stored: bool = False,
        depth: int = 0,
        external: frozenset = frozenset(),
    ):
        self.id = next(GoalNode._ids)
        self.label = label
        self.constraint = constraint
        self.parent = parent
        self.children: List[RuleNode] = []
        self.blocked = blocked
        self.is_stored = is_stored
        self.expanded = False
        self.depth = depth
        # Variables of ``label`` that may also occur outside this node's
        # replacement subtree in an assembled rewriting.  Inclusion
        # expansions must export exactly these (MiniCon property C1); the
        # set is propagated downward as the tree is built.
        self.external = external
        self.considered: Optional[Tuple[tuple, tuple]] = None
        self.pruned: Tuple[Tuple[object, Optional[str]], ...] = ()

    def add_child(self, rule_node: "RuleNode") -> None:
        """Attach an expansion (rule node) to this goal."""
        self.children.append(rule_node)

    def siblings(self) -> List["GoalNode"]:
        """Goal children of this node's parent rule node (including self)."""
        if self.parent is None:
            return [self]
        return list(self.parent.children)

    def __repr__(self) -> str:
        marker = "$" if self.is_stored else ""
        return f"GoalNode#{self.id}({marker}{self.label})"


class RuleNode:
    """A rule node, labelled with the peer description used to expand its parent.

    ``kind`` distinguishes the three expansion flavours: the root query
    rule, definitional expansions, and inclusion expansions.  For
    inclusion expansions, ``covers`` is the ``unc`` label (goal-node
    siblings of the parent covered by the MCD, parent included).

    ``source`` is set on a rule node a rebuild copied from an earlier tree
    when nothing below it changed: the rule node it reproduces, label for
    label, so the earlier plan's compile of that subtree can be reused.
    The first compile of the new tree clears it.
    """

    __slots__ = (
        "id",
        "kind",
        "description",
        "origin",
        "parent",
        "children",
        "covers",
        "constraint",
        "source",
    )

    _ids = itertools.count()

    KIND_QUERY = "query"
    KIND_DEFINITIONAL = "definitional"
    KIND_INCLUSION = "inclusion"

    def __init__(
        self,
        kind: str,
        description: object,
        origin: str,
        parent: GoalNode,
        constraint: ConstraintSet = ConstraintSet(),
        covers: Optional[frozenset] = None,
    ):
        self.id = next(RuleNode._ids)
        self.kind = kind
        self.description = description
        self.origin = origin
        self.parent = parent
        self.children: List[GoalNode] = []
        self.covers: frozenset = covers if covers is not None else frozenset()
        self.constraint = constraint
        self.source: Optional[RuleNode] = None

    def add_child(self, goal_node: GoalNode) -> None:
        """Attach a child goal node."""
        self.children.append(goal_node)

    def __repr__(self) -> str:
        return f"RuleNode#{self.id}({self.kind}:{self.origin})"


@dataclass
class TreeStatistics:
    """Size statistics of a rule-goal tree (what Figure 3 plots)."""

    goal_nodes: int = 0
    rule_nodes: int = 0
    stored_leaves: int = 0
    dead_leaves: int = 0
    max_depth: int = 0
    pruned_unsatisfiable: int = 0
    pruned_dead_end: int = 0
    memoization_hits: int = 0

    @property
    def total_nodes(self) -> int:
        """Goal nodes plus rule nodes — the paper's "#nodes in rule/goal tree"."""
        return self.goal_nodes + self.rule_nodes


class RuleGoalTree:
    """The full rule-goal tree built for one query reformulation."""

    def __init__(self, root: GoalNode):
        self.root = root
        self.statistics = TreeStatistics()

    # -- traversal ---------------------------------------------------------------

    def goal_nodes(self) -> Iterator[GoalNode]:
        """Yield every goal node (pre-order)."""
        stack: List[GoalNode] = [self.root]
        while stack:
            goal = stack.pop()
            yield goal
            for rule in goal.children:
                stack.extend(rule.children)

    def rule_nodes(self) -> Iterator[RuleNode]:
        """Yield every rule node (pre-order)."""
        for goal in self.goal_nodes():
            yield from goal.children

    def leaves(self) -> Iterator[GoalNode]:
        """Yield goal nodes with no expansions."""
        for goal in self.goal_nodes():
            if not goal.children:
                yield goal

    def count_nodes(self) -> TreeStatistics:
        """Recount node statistics from the tree structure."""
        stats = TreeStatistics(
            pruned_unsatisfiable=self.statistics.pruned_unsatisfiable,
            pruned_dead_end=self.statistics.pruned_dead_end,
            memoization_hits=self.statistics.memoization_hits,
        )
        for goal in self.goal_nodes():
            stats.goal_nodes += 1
            stats.max_depth = max(stats.max_depth, goal.depth)
            if goal.is_stored:
                stats.stored_leaves += 1
            elif not goal.children:
                stats.dead_leaves += 1
            stats.rule_nodes += len(goal.children)
        self.statistics = stats
        return stats

    # -- display -----------------------------------------------------------------

    def pretty(self, max_depth: Optional[int] = None) -> str:
        """An indented rendering of the tree (for debugging and examples)."""
        lines: List[str] = []

        def visit_goal(goal: GoalNode, indent: int) -> None:
            if max_depth is not None and indent > max_depth:
                return
            marker = "$" if goal.is_stored else ""
            constraint = f"  [{goal.constraint}]" if len(goal.constraint) else ""
            lines.append("  " * indent + f"{marker}{goal.label}{constraint}")
            for rule in goal.children:
                covers = ""
                if rule.kind == RuleNode.KIND_INCLUSION and rule.covers:
                    covered = ",".join(str(c.label) for c in rule.covers)
                    covers = f"  covers({covered})"
                lines.append("  " * (indent + 1) + f"<{rule.kind}:{rule.origin}>{covers}")
                for child in rule.children:
                    visit_goal(child, indent + 2)

        visit_goal(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        stats = self.statistics
        return (
            f"RuleGoalTree({stats.total_nodes} nodes: "
            f"{stats.goal_nodes} goal, {stats.rule_nodes} rule)"
        )
