"""Pinned output of the union-plan compiler (``pdms/planning.py``).

Two guards around ``UnionPlan`` compilation:

* **Pinned plans.**  For the 12 query templates of the end-to-end
  benchmark's ``query_mix`` workload (96 peers, 10 % definitional
  mappings, diameter 4, topology seed 0, the query pool rebuilt here the
  way ``benchmarks/e2e/e2e_fixtures.py`` builds it), the Figure-1 queries
  and two comparison-bearing queries: the SHA-256 over the sorted node
  table (key, kind, children, renames, columns), the root key of every
  rewriting in enumeration order, and ``PlanStatistics`` — compiled both
  without a cost model and with one over seeded data.  All digests were
  recorded on commit 62d4612, before compilation was memoised per plan;
  a difference means the compiler's output changed (fragment keys are the
  contract of the fragment cache, the cache tier's wire, ``QErrorLog`` and
  the trace attributes).
* **Pinned plans evaluated on data.**  String equality says the plan is
  the *same*, not that it is *right* (the raco-style compile tests stop
  at the former): every pinned plan is evaluated over the seeded data on
  the row path and on the columnar path and must equal the
  ``backtracking`` engine's answer and the chase oracle's certain
  answers (an oracle that shares no code with reformulation or planning;
  affordable here because the seeded relations hold 14 rows each).

The digests are of **enumerated** plans — what ``plan.fragments()``
compiles, rewriting by rewriting — so both guards drive that compile
explicitly (a whole answer evaluates the factored root instead, pinned as
text in ``test_factored_plan_pinned.py``): the digest exhausts
``fragments()`` on a fresh plan, and the evaluation goes through the lazy
row stream, which runs the enumerated roots.

The digests do not depend on ``PYTHONHASHSEED`` (recorded identically
under seeds 0, 1 and random).
"""

import hashlib
import random

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    StorageDescription,
    certain_answers,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    federate_if_per_peer,
    reformulate,
    stream_plan_answers,
)
from repro.pdms.planning import JoinFragment
from repro.workload import (
    GeneratorParameters,
    build_emergency_services,
    example_queries,
    generate_workload,
    sample_instance,
)

QUERY_POOL_SEED = 7
POOL_SIZE = 12
DATA_SEED = 20260927
ROWS = 14
DOMAIN = 20

#: case -> (digest without a cost model, digest with one,
#:          (rewritings, unique_fragments, fragment_references) without / with).
PINNED_PLANS = {
    "mix-q0": (
        "c460e60288e2918de886f82a61d0e82c287a8ae9b6561f12129ac012c0637b47",
        "33c74e33f3fa6d033db7ad6d27d957e54486d84b040a55a022a0970f1777d275",
        (100, 122, 500), (100, 112, 500),
    ),
    "mix-q1": (
        "e3e275b0c0edc184ce6a643fd48022e5122b2cae17175f7b295ce29acb2f43af",
        "5993879df899c266752376750d23145a3881a9a6f05d6271225ae00215288f2d",
        (64, 93, 272), (64, 98, 272),
    ),
    "mix-q2": (
        "912cad535b7e62d417029c91739750b7f23d8f876cac6e92828550cf3db60ba9",
        "0af075440f7330d2c7a1bb638c1761bb694d280e714d422012e70e74825b3a22",
        (80, 118, 356), (80, 115, 356),
    ),
    "mix-q3": (
        "90142d82039eee295756b3138c93d2f5a5d6ba564ecab94e136b83824be40468",
        "fa841f67625c94b9455ea2f67830db8c4c606068184b4a73a0f0d45eade7bcf1",
        (152, 192, 830), (152, 204, 830),
    ),
    "mix-q4": (
        "294e5feca24ec133befd2d262d83b3cb291f091fba2e8231390cdd0f5c93513f",
        "1573043e1e5ed8d9875a353bc871935f73ee24a191e644878f098c2eb0bf5769",
        (48, 65, 168), (48, 64, 168),
    ),
    "mix-q5": (
        "a0f15a5b3c25ae338f138d44606b1de6752290fff69ba607009b71550593531a",
        "ed6b6ec96576ba02d3e000ea1b3d46c333669483550e87afc6d7638a4b54b5e1",
        (224, 299, 1496), (224, 287, 1496),
    ),
    "mix-q6": (
        "090b82a511041e6dc2797d3d1d5a0a8c84ccc15970aeb24bc0b2ce66b5f5488f",
        "a483cf384aee7c7c3bbbfba49a79529c5aaa1120625af8fcfcda29f20006b3bb",
        (64, 104, 240), (64, 88, 240),
    ),
    "mix-q7": (
        "a367d3a057653811e59b9eb76095f147183df8fe9b8fec61f098354e3c6f11bf",
        "411c26e35b678dfc960445d78839d85bfe330b265b1ee33f13d6741151ff6724",
        (280, 386, 1976), (280, 343, 1976),
    ),
    "mix-q8": (
        "9df633a43bdfddd64017fa700493d8356f2d2ba866dd489b5ea4f51dd89b410c",
        "55722e579dc2235cf077a333a858f90c0e14873395cd9939c676b6338122a935",
        (100, 149, 600), (100, 139, 600),
    ),
    "mix-q9": (
        "1ee2ea251e5157bbce7883c2659391904f53c4a6e0e4221a258d2b13aa0984ad",
        "b364deb0b3dc2eff19ce1ddd30a2d7e943ec0b463e5f29e96ed881c14532ef72",
        (196, 281, 1260), (196, 257, 1260),
    ),
    "mix-q10": (
        "5a8ef3f93d0a3ace81df4a711a6fd159d0b07f7e177e6da985e325489d385f54",
        "3852b94694c766abd860b854527dec3461784dd86efa885ceca238bdf61be855",
        (60, 84, 252), (60, 87, 252),
    ),
    "mix-q11": (
        "ed00cbb93104990fe79653ed73158f691a991819c4fa0356a68c6aaeafbd86b4",
        "7f4cd013ed2f12d06f13b35cbc9a451260683d36c32eb28e62a0f719301fec01",
        (64, 82, 224), (64, 81, 224),
    ),
    "figure1-critical_beds": (
        "7d9b9a0a60a89808d0852451921da5d50080a71b317f2ce9dbfa0d08536f7907",
        "7d9b9a0a60a89808d0852451921da5d50080a71b317f2ce9dbfa0d08536f7907",
        (0, 0, 0), (0, 0, 0),
    ),
    "figure1-doctor_hours": (
        "e583dad79f98c59d32bb89976fe8cbcc4371f707c442cf3dae4bad404f685150",
        "e583dad79f98c59d32bb89976fe8cbcc4371f707c442cf3dae4bad404f685150",
        (12, 10, 36), (12, 10, 36),
    ),
    "figure1-ecc_medical_responders": (
        "8ea51b69a548e0ce6f2452732c9b6f7745a7c34c0e604314d87003a65826fc56",
        "8ea51b69a548e0ce6f2452732c9b6f7745a7c34c0e604314d87003a65826fc56",
        (5, 14, 21), (5, 14, 21),
    ),
    "figure1-ecc_vehicles": (
        "22832ceaf0496c0379245b46dbede446a344cb39566e5d241d3c917f9cb610b2",
        "22832ceaf0496c0379245b46dbede446a344cb39566e5d241d3c917f9cb610b2",
        (3, 3, 3), (3, 3, 3),
    ),
    "figure1-skilled_doctors": (
        "41b73bd1fe283fdf10a4eb3e130cda3ad12a8bac9f152381202cfb40ebec8981",
        "41b73bd1fe283fdf10a4eb3e130cda3ad12a8bac9f152381202cfb40ebec8981",
        (4, 2, 4), (4, 2, 4),
    ),
    "figure1-skilled_people": (
        "10a8b0f39afa981288288ef4a25db34f1242306abd87cec2c14654216caaf5f1",
        "10a8b0f39afa981288288ef4a25db34f1242306abd87cec2c14654216caaf5f1",
        (9, 16, 25), (9, 16, 25),
    ),
    "shop-cheap_under_10": (
        "fe1c85208c82265fbdc42c5b9b5de9f51c43047b87ff222b188091d40364faa2",
        "fe1c85208c82265fbdc42c5b9b5de9f51c43047b87ff222b188091d40364faa2",
        (2, 2, 2), (2, 2, 2),
    ),
    "shop-cheaper_pairs": (
        "12660591740648b56f14c2f370f3312bdab9e7b7f0001f87e6d620724dde0746",
        "12660591740648b56f14c2f370f3312bdab9e7b7f0001f87e6d620724dde0746",
        (4, 5, 12), (4, 5, 12),
    ),
}

FIGURE1 = sorted(example_queries())
COMPARISONS = {
    "shop-cheap_under_10": "Q(x) :- A:Cheap(x, p), p < 10",
    "shop-cheaper_pairs": "Q(x, y) :- A:Cheap(x, p), A:Cheap(y, p2), p < p2",
}
CASES = (
    [f"mix-q{index}" for index in range(POOL_SIZE)]
    + [f"figure1-{name}" for name in FIGURE1]
    + sorted(COMPARISONS)
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _mix_workload():
    return generate_workload(GeneratorParameters(
        num_peers=96, diameter=4, definitional_ratio=0.10, seed=0))


def _mix_query(workload, index):
    """The ``index``-th 2-atom chain query of the benchmark's pool."""
    rng = random.Random(QUERY_POOL_SEED)
    top = workload.strata[0]
    chosen = []
    while len(chosen) < POOL_SIZE:
        pair = (rng.choice(top), rng.choice(top))
        if pair not in chosen:
            chosen.append(pair)
    variables = [Variable(f"q{i}") for i in range(3)]
    body = [
        Atom(relation, [variables[i], variables[i + 1]])
        for i, relation in enumerate(chosen[index])
    ]
    return ConjunctiveQuery(Atom("Q", [variables[0], variables[-1]]), body)


def _mix_data(workload):
    rng = random.Random(DATA_SEED)
    data = {}
    for peer in workload.pdms.peers():
        stored = peer.stored_relations()
        if not stored:
            continue
        instance = Instance()
        for relation in stored:
            instance.add_all(relation.name, [
                (rng.randrange(DOMAIN), rng.randrange(DOMAIN)) for _ in range(ROWS)
            ])
        data[peer.name] = instance
    return data


def _shop():
    pdms = PDMS("shop")
    a = pdms.add_peer("A")
    a.add_relation("Item", ["x", "p"])
    a.add_relation("Cheap", ["x", "p"])
    pdms.add_peer("B").add_relation("Listing", ["x", "p"])
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("A:Item(x, p) :- B:Listing(x, p)"), name="item"))
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("A:Cheap(x, p) :- A:Item(x, p), p < 20"), name="cheap"))
    pdms.add_storage_description(StorageDescription(
        "B", "listings", parse_query("V(x, p) :- B:Listing(x, p), p > 2"), name="listings"))
    pdms.add_storage_description(StorageDescription(
        "B", "bargains", parse_query("V(x, p) :- B:Listing(x, p), p < 5"), name="bargains"))
    data = Instance.from_dict({
        "listings": [("pen", 3), ("book", 15), ("lamp", 40), ("ink", 7)],
        "bargains": [("gum", 1), ("pen", 3), ("tape", 4)],
    })
    return pdms, data


_MIX = {}


def _case(name):
    """``(pdms, query, data)`` of a pinned case, built from its name."""
    kind, _, rest = name.partition("-")
    if kind == "mix":
        if not _MIX:
            workload = _mix_workload()
            _MIX.update(workload=workload, data=_mix_data(workload))
        workload = _MIX["workload"]
        return workload.pdms, _mix_query(workload, int(rest[1:])), _MIX["data"]
    if kind == "figure1":
        return build_emergency_services(), example_queries()[rest], sample_instance()
    pdms, data = _shop()
    return pdms, parse_query(COMPARISONS[name]), data


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def plan_digest(plan):
    """SHA-256 over everything downstream layers key on, plus the stats."""
    roots = [rewriting_plan.root_key for rewriting_plan in plan.fragments()]
    lines = []
    for key in sorted(plan.nodes):
        node = plan.nodes[key]
        if isinstance(node, JoinFragment):
            lines.append(repr((
                key, "join", node.left_key, node.right_key,
                node.left_rename, node.right_rename, node.columns,
            )))
        else:
            lines.append(repr((
                key, "scan", node.relation, node.pattern,
                node.equal_positions, node.keep_positions, node.columns,
            )))
    lines.append("roots")
    lines.extend(roots)
    stats = plan.stats
    triple = (stats.rewritings, stats.unique_fragments, stats.fragment_references)
    lines.append(repr(triple))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), triple


def compile_case(name):
    """``(digest, digest, stats, stats)`` without and with a cost model."""
    pdms, query, data = _case(name)
    source = federate_if_per_peer(data)
    plain = plan_digest(compile_reformulation(reformulate(pdms, query)))
    costed = plan_digest(compile_reformulation(reformulate(pdms, query), source))
    return plain[0], costed[0], plain[1], costed[1]


# ---------------------------------------------------------------------------
# Pinned plans
# ---------------------------------------------------------------------------

class TestPinnedPlans:
    def test_every_case_is_pinned(self):
        assert sorted(PINNED_PLANS) == sorted(CASES)

    @pytest.mark.parametrize("name", CASES)
    def test_node_table_roots_and_statistics(self, name):
        plain, costed, plain_stats, costed_stats = compile_case(name)
        pinned_plain, pinned_costed, pinned_plain_stats, pinned_costed_stats = (
            PINNED_PLANS[name]
        )
        assert plain_stats == pinned_plain_stats
        assert costed_stats == pinned_costed_stats
        assert plain == pinned_plain
        assert costed == pinned_costed

    def test_recompiling_is_identical(self):
        """Per-plan memo state never leaks from one plan into the next."""
        pdms, query, data = _case("figure1-doctor_hours")
        source = federate_if_per_peer(data)
        result = reformulate(pdms, query)
        first = plan_digest(compile_reformulation(result, source))
        second = plan_digest(compile_reformulation(result, source))
        assert first == second


# ---------------------------------------------------------------------------
# Pinned plans, evaluated
# ---------------------------------------------------------------------------

class TestPinnedPlansEvaluate:
    @pytest.mark.parametrize("costed", [False, True], ids=["plain", "costed"])
    @pytest.mark.parametrize("name", CASES)
    def test_plan_answers_equal_backtracking(self, name, costed):
        pdms, query, data = _case(name)
        source = federate_if_per_peer(data)
        result = reformulate(pdms, query)
        expected = evaluate_reformulation(result, source, engine="backtracking")
        plan = compile_reformulation(result, source if costed else None)
        assert set(stream_plan_answers(plan, source, columnar=False)) == expected
        assert set(stream_plan_answers(plan, source, columnar=True)) == expected
        assert plan.stats.rewritings == PINNED_PLANS[name][2][0]
        bounded = evaluate_plan(plan, source, limit=3)
        assert bounded <= expected and len(bounded) == min(3, len(expected))
        assert evaluate_plan(plan, source) == expected  # the factored root

    @pytest.mark.parametrize("name", CASES)
    def test_plan_answers_are_the_certain_answers(self, name):
        pdms, query, data = _case(name)
        source = federate_if_per_peer(data)
        plan = compile_reformulation(reformulate(pdms, query), source)
        stored = combine_peer_instances(data) if isinstance(data, dict) else data
        answers = set(stream_plan_answers(plan, source))
        assert answers == certain_answers(pdms, query, stored)
