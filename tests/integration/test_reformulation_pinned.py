"""Pinned behaviour of the reformulation core (Section 4, Steps 2 and 3).

Three guards around ``pdms/reformulation.py`` + ``integration/minicon.py``:

* **Pinned sequences.**  For the 30 Section-5 topologies of the end-to-end
  benchmark (96 peers, 10 % definitional mappings, diameters 4/5/6 x ten
  generator seeds, rebuilt here from ``repro.workload.generator``) and the
  Figure-1 / Figure-2 fixtures: the SHA-256 of the printed
  ``first_rewritings(1000)`` sequence — every rewriting, its variable
  names and the emission order — plus the tree's ``TreeStatistics``.
  For seven of them the tree itself is pinned too: node ids (relative to
  the root), labels and origins in pre-order.  The sequence digests were
  recorded on commit 6560fc0, before Steps 2/3 were rewritten for speed;
  a difference means the algorithm's output changed.
* **Constrained cases against the chase oracle.**  The generated
  topologies carry no comparison atoms, so the paths that do constraint
  work (comparisons, constants in definitional heads, MCD-induced
  equalities, unsatisfiable combinations) are checked for answers instead.
* **Catalogue-derived state.**  What the reformulation caches on the
  normalised catalogue is computed lazily, dropped by every mutation, and
  equal to that of a PDMS built from scratch — also when eight threads
  race to compute it first.
"""

import dataclasses
import hashlib
import sys
import threading

import pytest

from repro.datalog import parse_atom, parse_query
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    StorageDescription,
    answer_query,
    certain_answers,
    lav_style,
    reformulate,
)
from repro.workload import (
    GeneratorParameters,
    build_emergency_services,
    example_queries,
    generate_workload,
)

REWRITING_CAP = 1000

#: case -> (SHA-256 of the printed rewriting sequence, TreeStatistics tuple).
PINNED_SEQUENCES = {
    "paper-d4-s0": (
        "246e2effc6759efaa20318a12efeb6e83cea9475eb025cbc878182813026f354",
        (67, 61, 24, 0, 5, 0, 0, 5),
    ),
    "paper-d4-s1": (
        "ce319fdc53a329b3bda1b39fcf3b40d9f90eb74537f194dd78a006397277fa80",
        (66, 59, 24, 0, 5, 0, 0, 5),
    ),
    "paper-d4-s2": (
        "c831543f7136681abe2884950930bc9199d2a84091eb20df5ad75252ef840fbb",
        (73, 67, 26, 0, 5, 0, 0, 11),
    ),
    "paper-d4-s3": (
        "76c42f1e32ccabbe38a2fb5a3bab4dbb37ac013abaaa90162ff2e4e4ac5dce27",
        (56, 51, 20, 0, 5, 0, 0, 4),
    ),
    "paper-d4-s4": (
        "76c9612bb933d560820c7664fe6eb923e5915e0a7cdfd65e1bfd6bd8b7d02f25",
        (76, 70, 27, 0, 5, 0, 0, 6),
    ),
    "paper-d4-s5": (
        "8e08214bb3c67de9b64046c48eeaec96bef7deec5e2e3c675b08d5d9d2e70aa9",
        (67, 61, 24, 0, 5, 0, 0, 6),
    ),
    "paper-d4-s6": (
        "6950164baa51fc4d4f995628adb506fc3c15b746a2a432d11beb6783bbb4b4ba",
        (68, 63, 24, 0, 5, 0, 0, 3),
    ),
    "paper-d4-s7": (
        "b229940e7387acf1352e9df15da87dd2b6ed0f45a2e719e60af593c77d0499df",
        (65, 57, 24, 0, 5, 0, 0, 1),
    ),
    "paper-d4-s8": (
        "97f4cd6590fd58b56b14c419e66c774749bf58284ff15c84b15540f1a118939f",
        (49, 46, 17, 0, 5, 0, 0, 2),
    ),
    "paper-d4-s9": (
        "4a626262d2ce1f177005c97291c8c6bd16cd7298abad94c6ad24ecad05c06820",
        (61, 55, 22, 0, 5, 0, 0, 2),
    ),
    "paper-d5-s0": (
        "1f24134c575341cc9da1432eb7679d21d85b54de72f59524d4bc91a3f5b73d11",
        (154, 142, 55, 0, 6, 0, 0, 22),
    ),
    "paper-d5-s1": (
        "dd6ab471a2541c63ad334efbcf7ebcac013411bb1721b0a57f732746f04b3e33",
        (144, 131, 52, 0, 6, 0, 0, 22),
    ),
    "paper-d5-s2": (
        "ae7b59bdbd45178be844af177bb1b1466a0f00fe331bcfc7cef99120f37bd09f",
        (135, 128, 47, 0, 6, 0, 0, 28),
    ),
    "paper-d5-s3": (
        "b63a013f91f2e290362c1ebdd4f8f631267e9b340f61380e63e5900fb2642e99",
        (162, 149, 58, 0, 6, 0, 0, 32),
    ),
    "paper-d5-s4": (
        "b93457997d109da2f9f158b1009d3b14148bc51d674aa1f7fdc235cc5815d1c7",
        (128, 120, 45, 0, 6, 0, 0, 20),
    ),
    "paper-d5-s5": (
        "de71b3301583ca9bba9916e660b8683524c79cda9366cee08ad6dc9368be317e",
        (114, 104, 41, 0, 6, 0, 0, 25),
    ),
    "paper-d5-s6": (
        "f040e097b3390936090ed8eb2bab9d65e204c82eb237ccd6b58457e4824df958",
        (128, 123, 44, 0, 6, 0, 0, 49),
    ),
    "paper-d5-s7": (
        "c76aeed783428f22607a4d406c82654e28142626c02fc0c40c7a7e97dccc0998",
        (121, 109, 44, 0, 6, 0, 0, 51),
    ),
    "paper-d5-s8": (
        "52dae22af21ad8cc02106fdaa675db6a994bdbfa35770d86c17b1cc11de0e0cc",
        (123, 113, 44, 0, 6, 0, 0, 15),
    ),
    "paper-d5-s9": (
        "5a07ae29ba2adb4f9e9c4fd0bbd8b99ca48d4bef108670e76afe6246f387bebc",
        (117, 110, 41, 0, 6, 0, 0, 21),
    ),
    "paper-d6-s0": (
        "9ade5954195cd55ae362c9cd8f511f897515b5daed20d25332e4a2fb443c4336",
        (272, 249, 98, 0, 7, 0, 0, 71),
    ),
    "paper-d6-s1": (
        "adb88753bf96f3fe6806dd1b249f4ebbdb358ecbd83a87d3671978170652b29c",
        (291, 269, 104, 0, 7, 0, 0, 77),
    ),
    "paper-d6-s2": (
        "388a724ec820061a196b9bd9c8bccad9fb19330f1d17cfd8b399d8e3775b3ef1",
        (244, 235, 84, 0, 7, 0, 0, 68),
    ),
    "paper-d6-s3": (
        "d798b173610b6d23fcedcd3dd9000215fa13b221053c6a9da8e6bfa1e7dbb36b",
        (275, 252, 99, 0, 7, 0, 0, 86),
    ),
    "paper-d6-s4": (
        "6b30136787ae21d2ff696bebabd8c099c7408d58d4a5c9cb5211396dc79ec9bc",
        (219, 209, 76, 0, 7, 0, 0, 140),
    ),
    "paper-d6-s5": (
        "8589ff57291ffc301b29f0b7c1c904ce9fcc7b9f6615fc71c6df751acd8aba93",
        (296, 276, 105, 0, 7, 0, 0, 85),
    ),
    "paper-d6-s6": (
        "b4a416f5c88d2449c47f3e8479bb6aa1af515b9eee991b485cca6d4a0b0fd357",
        (229, 223, 78, 0, 7, 0, 0, 69),
    ),
    "paper-d6-s7": (
        "dd961565b307e809852b8a15f245d31298d5704b1cff086dc3326b6c85401b74",
        (273, 254, 97, 0, 7, 0, 0, 77),
    ),
    "paper-d6-s8": (
        "d586a4e1e6542bf68e766c349204e3d436ea49b683285f9f025204656bace2e9",
        (286, 268, 101, 0, 7, 0, 0, 97),
    ),
    "paper-d6-s9": (
        "7f3d4b25cb3196eea2d96a7264e87f5c2ab1eb6f9726f3ece3a7ec06525be722",
        (245, 234, 85, 0, 7, 0, 0, 72),
    ),
    "figure1-critical_beds": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        (3, 2, 0, 1, 2, 0, 0, 0),
    ),
    "figure1-doctor_hours": (
        "62f1d40bfc33506cbd0465b66c1fc09d3361c9c30fb64b3a77db4421427ee1ed",
        (18, 16, 7, 0, 4, 0, 0, 0),
    ),
    "figure1-ecc_medical_responders": (
        "db57d994ee234ae597d780ecab2dba63253f3f2eefe134e70e68c0ad7c0e5542",
        (18, 15, 6, 0, 5, 0, 0, 0),
    ),
    "figure1-ecc_vehicles": (
        "1ea7fa9984c95d173d4c4603df447606f0dc88350b83f9466665d8bbd214f91e",
        (12, 11, 3, 1, 5, 0, 0, 0),
    ),
    "figure1-skilled_doctors": (
        "b30f4e266035b180478097f21985779462684e9ca5df5bf6e6806996edd6c5f4",
        (9, 8, 4, 0, 4, 0, 0, 0),
    ),
    "figure1-skilled_people": (
        "34b2c1f9307f3c338bf3f5ba768075df7719379a6bd8f6737bb4e9cbef1bb5ca",
        (24, 21, 10, 0, 4, 0, 0, 0),
    ),
    "figure2": (
        "33fff2b92d07f9e42bf4b57e6cd9db11a9043f40483e45c34e3802c6576317be",
        (24, 20, 10, 0, 3, 0, 0, 4),
    ),
}

#: case -> SHA-256 of the tree in pre-order: node ids (relative to the
#: root), labels and origins, i.e. the order the breadth-first frontier
#: expands goals in.
PINNED_TREES = {
    "figure1-critical_beds": "3cfde56c95dd15864d143cf9d3ed8f7173ddc1d7daa0baca1c1b948d92243462",
    "figure1-doctor_hours": "cb827ddc82aa2abc553b589ca944cfdd0e702a09c7ccd22c20955b9fda370e26",
    "figure1-ecc_medical_responders": "48f081a3b2a2522c82ba84b13ff4a1bea6112203b2a19e9558f40f9b8ee632a2",
    "figure1-ecc_vehicles": "d4ec76463b9bc52449c5f248cab5358ef12a3edaa05515f5bac4934a777054e5",
    "figure1-skilled_doctors": "e0a5f7a275c13a14e68c05cd08466f3c9af35c99b749bac51b39a0df03882ea5",
    "figure1-skilled_people": "10cb2b151d132ef89e3bda2ebe20f8033620038c131c2d6546b0e6e6b9536b9c",
    "paper-d6-s0": "1e7addb8f96aae62985900c0203d8bc65fb734cc90abdda2fbb908a8abea394d",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _case(name, request=None):
    """``(pdms, query)`` of a pinned case, built from its name (Figure 2
    comes from the conftest fixtures, hence ``request``)."""
    kind, _, rest = name.partition("-")
    if kind == "paper":
        diameter, seed = (int(part[1:]) for part in rest.split("-"))
        workload = generate_workload(GeneratorParameters(
            num_peers=96, diameter=diameter, definitional_ratio=0.10, seed=seed))
        return workload.pdms, workload.query
    if kind == "figure1":
        return build_emergency_services(), example_queries()[rest]
    return request.getfixturevalue("figure2_pdms"), request.getfixturevalue("figure2_query")


def _sequence_digest(result):
    text = "\n".join(str(r) for r in result.first_rewritings(REWRITING_CAP))
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_digest(tree):
    root = tree.root
    first_rule = root.children[0].id
    lines = []

    def visit(goal):
        lines.append(f"g{goal.id - root.id} {goal.label}")
        for rule in goal.children:
            lines.append(f"r{rule.id - first_rule} {rule.kind} {rule.origin}")
            for child in rule.children:
                visit(child)

    visit(root)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Pinned sequences
# ---------------------------------------------------------------------------

class TestPinnedSequences:
    @pytest.mark.parametrize("name", sorted(PINNED_SEQUENCES))
    def test_rewriting_sequence_and_tree_statistics(self, name, request):
        pdms, query = _case(name, request)
        result = reformulate(pdms, query)
        digest, statistics = PINNED_SEQUENCES[name]
        assert dataclasses.astuple(result.statistics) == statistics
        assert _sequence_digest(result) == digest

    @pytest.mark.parametrize("name", sorted(PINNED_TREES))
    def test_breadth_first_tree(self, name):
        """The frontier is a FIFO queue: the tree's node ids, labels and
        origins in pre-order are pinned, not only what Step 3 reads off it."""
        pdms, query = _case(name)
        assert _tree_digest(reformulate(pdms, query).tree) == PINNED_TREES[name]

    def test_repeated_reformulation_is_identical(self):
        """State kept on the catalogue between calls changes no output."""
        pdms, query = _case("paper-d5-s3")
        first = reformulate(pdms, query)
        second = reformulate(pdms, query)
        assert _sequence_digest(first) == _sequence_digest(second)
        assert first.statistics == second.statistics


# ---------------------------------------------------------------------------
# Constrained cases against the chase oracle
# ---------------------------------------------------------------------------

def _shop():
    """Comparisons in the query, in definitional bodies and in storage descriptions."""
    pdms = PDMS("shop")
    a = pdms.add_peer("A")
    a.add_relation("Item", ["x", "p"])
    a.add_relation("Cheap", ["x", "p"])
    b = pdms.add_peer("B")
    b.add_relation("Listing", ["x", "p"])
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("A:Item(x, p) :- B:Listing(x, p)"), name="item"))
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("A:Cheap(x, p) :- A:Item(x, p), p < 20"), name="cheap"))
    pdms.add_storage_description(StorageDescription(
        "B", "listings", parse_query("V(x, p) :- B:Listing(x, p), p > 2"), name="listings"))
    pdms.add_storage_description(StorageDescription(
        "B", "bargains", parse_query("V(x, p) :- B:Listing(x, p), p < 5"), name="bargains"))
    data = {
        "listings": [("pen", 3), ("book", 15), ("lamp", 40)],
        "bargains": [("gum", 1), ("pen", 3)],
    }
    return pdms, data


def _skills():
    """Constants in definitional heads bind goal variables (``skill = "Doctor"``)."""
    pdms = PDMS("skills")
    a = pdms.add_peer("A")
    a.add_relation("Skilled", ["pid", "skill"])
    pdms.add_peer("H").add_relation("Doctor", ["pid"])
    pdms.add_peer("F").add_relation("EMT", ["pid"])
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query('A:Skilled(pid, "Doctor") :- H:Doctor(pid)'), name="doctors"))
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query('A:Skilled(pid, "EMT") :- F:EMT(pid)'), name="emts"))
    pdms.add_storage_description(StorageDescription(
        "H", "doc", parse_query("V(p) :- H:Doctor(p)"), name="doc"))
    pdms.add_storage_description(StorageDescription(
        "F", "emt", parse_query("V(p) :- F:EMT(p)"), name="emt"))
    return pdms, {"doc": [("d1",), ("d2",)], "emt": [("e1",), ("d2",)]}


#: (scenario, query, expected number of answers) — the count guards against
#: a reformulation and an oracle that agree on nothing.
CONSTRAINED_CASES = [
    (_shop, "Q(x) :- A:Cheap(x, p), p < 10", 2),
    (_shop, "Q(x, p) :- A:Cheap(x, p)", 3),
    (_shop, "Q(x) :- A:Item(x, p), p >= 15", 2),
    (_shop, "Q(x, y) :- A:Cheap(x, p), A:Cheap(y, p2), p < p2", 3),
    # Unsatisfiable with the definitional body's ``p < 20``.
    (_shop, "Q(x) :- A:Cheap(x, p), p > 50", 0),
    (_skills, "Q(p, s) :- A:Skilled(p, s)", 4),
    (_skills, 'Q(p) :- A:Skilled(p, "Doctor")', 2),
    (_skills, 'Q(p) :- A:Skilled(p, "Doctor"), A:Skilled(p, "EMT")', 1),
    (_skills, "Q(p) :- A:Skilled(p, s), A:Skilled(p, t), s != t", 1),
    # Unsatisfiable with either head constant.
    (_skills, 'Q(p) :- A:Skilled(p, "Nurse")', 0),
]


class TestConstrainedAgainstOracle:
    @pytest.mark.parametrize(
        "scenario, query_text, expected_count",
        CONSTRAINED_CASES,
        ids=[f"{s.__name__[1:]}-{i}" for i, (s, _, _) in enumerate(CONSTRAINED_CASES)],
    )
    def test_answers_are_the_certain_answers(self, scenario, query_text, expected_count):
        pdms, data = scenario()
        query = parse_query(query_text)
        answers = answer_query(pdms, query, data)
        assert answers == certain_answers(pdms, query, data)
        assert len(answers) == expected_count

    @pytest.mark.parametrize(
        "scenario, query_text, expected_count",
        CONSTRAINED_CASES,
        ids=[f"{s.__name__[1:]}-{i}" for i, (s, _, _) in enumerate(CONSTRAINED_CASES)],
    )
    def test_step3_rewritings_answer_the_chase(self, scenario, query_text, expected_count):
        """The same cases through the Step-3 rewritings (the oracle engine
        evaluates them one by one), which discard the combinations whose
        labels contradict each other (``s != t`` with ``s = t = "EMT"``)."""
        pdms, data = scenario()
        query = parse_query(query_text)
        answers = answer_query(pdms, query, data, engine="backtracking")
        assert answers == certain_answers(pdms, query, data)
        assert len(answers) == expected_count

    def test_mcd_induced_equalities(self, figure2_pdms, figure2_query):
        """Figure 2: covering both ``Skill`` goals with one view atom forces
        ``f1 = f2``, which must reach the rewriting's head and body."""
        data = {
            "S1": [("f1", "e1", 8), ("f2", "e1", 9), ("f3", "e2", 8)],
            "S2": [("f1", "f2"), ("f2", "f1"), ("f1", "f3"), ("f1", "f1"), ("f2", "f2")],
        }
        answers = answer_query(figure2_pdms, figure2_query, data)
        assert answers == certain_answers(figure2_pdms, figure2_query, data)
        assert len(answers) == 5


# ---------------------------------------------------------------------------
# Catalogue-derived state
# ---------------------------------------------------------------------------

def _layered(with_extra, with_low):
    """``A:Top`` defined over ``B:Mid``, which ``C:Low`` and ``D:Extra`` feed."""
    pdms = PDMS("layered")
    pdms.add_peer("A").add_relation("Top", ["x", "y"])
    pdms.add_peer("B").add_relation("Mid", ["x", "y"])
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("A:Top(x, y) :- B:Mid(x, y)"), name="top"))
    if with_low:
        _add_low(pdms)
    if with_extra:
        _add_extra(pdms)
    return pdms


def _add_low(pdms):
    pdms.add_peer("C").add_relation("Low", ["x", "y"])
    pdms.add_peer_mapping(lav_style(
        parse_atom("C:Low(x, y)"), parse_query("V(x, y) :- B:Mid(x, y)"), name="low"))
    pdms.add_storage_description(StorageDescription(
        "C", "low_store", parse_query("V(x, y) :- C:Low(x, y)"), name="low_store"))


def _add_extra(pdms):
    pdms.add_peer("D").add_relation("Extra", ["x", "y"])
    pdms.add_peer_mapping(lav_style(
        parse_atom("D:Extra(x, y)"), parse_query("V(x, y) :- B:Mid(x, z), B:Mid(z, y)"),
        name="extra"))
    pdms.add_storage_description(StorageDescription(
        "D", "extra_store", parse_query("V(x, y) :- D:Extra(x, y)"), name="extra_store"))


#: The second query's two goals are siblings, so ``D:Extra``'s view covers both.
LAYERED_QUERIES = ("Q(x, y) :- A:Top(x, y)", "Q(x, y) :- B:Mid(x, z), B:Mid(z, y)")
LAYERED_DATA = {"low_store": [(1, 2), (2, 3)], "extra_store": [(3, 5), (0, 2)]}


def _derived_state(pdms):
    """Everything the reformulation keeps on the normalised catalogue."""
    catalogue = pdms.catalogue()
    prepared = {}
    for inclusion in catalogue.inclusions:
        view = inclusion.prepared_view()
        assert inclusion.prepared_view() is view
        prepared[(inclusion.origin, inclusion.head_predicate)] = (
            view.head, view.head_vars, view.existentials, view.body_by_predicate)
    return catalogue.productive_predicates(), catalogue.coverable_predicates(), prepared


def _nothing_derived(pdms):
    """No predicate set is derived (prepared views live on their immutable
    inclusions, so those of surviving entries outlive a mutation)."""
    derived = pdms.catalogue()._derived
    return derived.productive is None and derived.coverable is None


def _nothing_prepared(pdms):
    return not any("_prepared_view" in vars(i) for i in pdms.catalogue().inclusions)


def _layered_data(pdms):
    return {name: rows for name, rows in LAYERED_DATA.items()
            if name in pdms.stored_relation_names()}


def _observed(pdms):
    observed = []
    for text in LAYERED_QUERIES:
        query = parse_query(text)
        result = reformulate(pdms, query)
        observed.append((
            sorted(str(r) for r in result.all_rewritings()),
            dataclasses.astuple(result.statistics),
            answer_query(pdms, query, _layered_data(pdms)),
        ))
    return observed


class TestCatalogueDerivedState:
    def test_nothing_is_derived_until_a_reformulation_asks(self):
        pdms = _layered(with_extra=True, with_low=True)
        assert _nothing_derived(pdms) and _nothing_prepared(pdms)
        reformulate(pdms, parse_query(LAYERED_QUERIES[1]))
        assert not _nothing_derived(pdms) and not _nothing_prepared(pdms)

    def test_mutations_drop_it_and_it_is_rebuilt_as_from_scratch(self):
        pdms = _layered(with_extra=False, with_low=True)
        assert _observed(pdms) == _observed(_layered(False, True))
        assert _derived_state(pdms) == _derived_state(_layered(False, True))

        # add_peer_mapping + add_storage_description (a new provider joins).
        _add_extra(pdms)
        assert _nothing_derived(pdms)
        assert _derived_state(pdms) == _derived_state(_layered(True, True))
        assert _observed(pdms) == _observed(_layered(True, True))
        assert "D:Extra" in pdms.catalogue().productive_predicates()

        # remove_peer (the original provider leaves).
        pdms.remove_peer("C")
        assert _nothing_derived(pdms)
        assert _derived_state(pdms) == _derived_state(_layered(True, False))
        assert _observed(pdms) == _observed(_layered(True, False))
        assert "C:Low" not in pdms.catalogue().productive_predicates()

        for text, (_, _, answers) in zip(LAYERED_QUERIES, _observed(pdms)):
            assert answers == certain_answers(pdms, parse_query(text), _layered_data(pdms))
        assert _observed(pdms)[1][2] == {(3, 5), (0, 2)}

    def test_eight_threads_racing_on_first_use(self):
        """Every thread's first reformulation finds the catalogue's derived
        state missing; whoever computes it, all must see the same result."""
        expected_pdms, query = _case("paper-d4-s0")
        expected = [str(r) for r in reformulate(expected_pdms, query).first_rewritings(REWRITING_CAP)]
        expected_state = _derived_state(expected_pdms)

        pdms, query = _case("paper-d4-s0")
        pdms.catalogue()
        assert _nothing_derived(pdms) and _nothing_prepared(pdms)
        barrier = threading.Barrier(8)
        outcomes = [None] * 8

        def work(slot):
            barrier.wait(timeout=30)
            result = reformulate(pdms, query)
            outcomes[slot] = [str(r) for r in result.first_rewritings(REWRITING_CAP)]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [expected] * 8
        assert _derived_state(pdms) == expected_state
