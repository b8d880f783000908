"""Unit tests for repro.pdms.system (PDMS object and PPL normalisation)."""

import gc

import pytest

from repro.datalog import parse_atom, parse_query
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.errors import MappingError, PDMSConfigurationError
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    EqualityMapping,
    InclusionMapping,
    Peer,
    StorageDescription,
    lav_style,
    replication,
)
from repro.pdms import mappings as mappings_module
from repro.workload import GeneratorParameters, generate_workload


def _small_pdms() -> PDMS:
    pdms = PDMS("small")
    a = pdms.add_peer("A")
    a.add_relation("R", ["x", "y"])
    b = pdms.add_peer("B")
    b.add_relation("S", ["x", "y"])
    return pdms


class TestPDMSBasics:
    def test_add_peer_by_name_and_lookup(self):
        pdms = PDMS()
        peer = pdms.add_peer("X")
        assert isinstance(peer, Peer)
        assert pdms.peer("X") is peer
        assert "X" in pdms
        with pytest.raises(PDMSConfigurationError):
            pdms.add_peer("X")
        with pytest.raises(PDMSConfigurationError):
            pdms.peer("Y")

    def test_relation_name_registries(self):
        pdms = _small_pdms()
        pdms.add_storage_description(
            StorageDescription("A", "stored_r", parse_query("V(x, y) :- A:R(x, y)")))
        assert pdms.is_peer_relation("A:R")
        assert not pdms.is_peer_relation("stored_r")
        assert pdms.is_stored_relation("stored_r")
        assert pdms.stored_relation_names() == frozenset({"stored_r"})

    @pytest.mark.parametrize("predicate", [
        "Z:R",       # no peer Z
        "R",         # unqualified, though A declares R
        "stored_r",  # a stored relation name
        "B:R",       # R is A's, not B's
        "A:",
    ])
    def test_is_peer_relation_rejects(self, predicate):
        pdms = _small_pdms()
        pdms.add_storage_description(
            StorageDescription("A", "stored_r", parse_query("V(x, y) :- A:R(x, y)")))
        assert not pdms.is_peer_relation(predicate)

    def test_is_peer_relation_after_remove_peer(self):
        pdms = _small_pdms()
        pdms.remove_peer("A")
        assert not pdms.is_peer_relation("A:R")
        assert pdms.is_peer_relation("B:S")
        pdms.add_peer("A").add_relation("T", ["x"])
        assert pdms.is_peer_relation("A:T") and not pdms.is_peer_relation("A:R")

    def test_is_peer_relation_asks_only_the_named_peer(self, monkeypatch):
        pdms = _small_pdms()

        def enumerated(self):
            raise AssertionError("is_peer_relation listed every peer's relations")

        monkeypatch.setattr(Peer, "peer_relation_names", enumerated)
        monkeypatch.setattr(PDMS, "peer_relation_names", enumerated)
        assert pdms.is_peer_relation("A:R") and pdms.is_peer_relation("B:S")
        assert not pdms.is_peer_relation("A:S")

    def test_storage_description_requires_known_peer(self):
        pdms = _small_pdms()
        with pytest.raises(PDMSConfigurationError):
            pdms.add_storage_description(
                StorageDescription("Z", "s", parse_query("V(x) :- Z:R(x)")))

    def test_storage_description_autodeclares_stored_relation(self):
        pdms = _small_pdms()
        pdms.add_storage_description(
            StorageDescription("A", "s", parse_query("V(x, y) :- A:R(x, y)")))
        assert "s" in pdms.peer("A").stored_relation_names()

    def test_unsupported_mapping_type_rejected(self):
        pdms = _small_pdms()
        with pytest.raises(MappingError):
            pdms.add_peer_mapping("not a mapping")  # type: ignore[arg-type]

    def test_describe_and_repr(self):
        pdms = _small_pdms()
        assert "small" in pdms.describe()
        assert "2 peers" in repr(pdms)


class TestNormalisation:
    def test_definitional_mapping_kept_as_rule(self):
        pdms = _small_pdms()
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:S(x, y)"), name="d1"))
        catalogue = pdms.catalogue()
        assert len(catalogue.rules) == 1
        assert not catalogue.rules[0].synthetic
        assert catalogue.definitional_for("A:R")[0].origin == "d1"

    def test_single_atom_inclusion_needs_no_synthetic_predicate(self):
        pdms = _small_pdms()
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:S(x, y)"), parse_query("R(x, y) :- A:R(x, y)"), name="i1"))
        catalogue = pdms.catalogue()
        assert len(catalogue.rules) == 0
        assert len(catalogue.inclusions) == 1
        inclusion = catalogue.inclusions[0]
        assert inclusion.head_predicate == "B:S"
        assert inclusion.body_predicates() == frozenset({"A:R"})
        assert catalogue.inclusions_mentioning("A:R") == (inclusion,)

    def test_general_inclusion_produces_synthetic_pair(self):
        pdms = _small_pdms()
        pdms.add_peer_mapping(InclusionMapping(
            parse_query("L(x) :- B:S(x, y)"),
            parse_query("R(x) :- A:R(x, z)"), name="proj"))
        catalogue = pdms.catalogue()
        assert len(catalogue.inclusions) == 1
        assert len(catalogue.rules) == 1
        assert catalogue.rules[0].synthetic
        assert catalogue.rules[0].origin == "proj"
        synthetic_predicate = catalogue.inclusions[0].head_predicate
        assert synthetic_predicate.startswith("__ppl_")
        assert catalogue.rules[0].head_predicate == synthetic_predicate

    def test_equality_becomes_two_inclusions_sharing_origin(self):
        pdms = _small_pdms()
        pdms.add_peer_mapping(replication(
            parse_atom("A:R(x, y)"), parse_atom("B:S(x, y)"), name="rep"))
        catalogue = pdms.catalogue()
        assert len(catalogue.inclusions) == 2
        assert {i.origin for i in catalogue.inclusions} == {"rep"}
        heads = {i.head_predicate for i in catalogue.inclusions}
        assert heads == {"A:R", "B:S"}

    def test_storage_description_becomes_stored_inclusion(self):
        pdms = _small_pdms()
        pdms.add_storage_description(
            StorageDescription("A", "s", parse_query("V(x, y) :- A:R(x, y)"), name="st"))
        catalogue = pdms.catalogue()
        assert len(catalogue.inclusions) == 1
        assert catalogue.inclusions[0].stored
        assert catalogue.is_stored("s")

    def test_catalogue_updated_incrementally_on_mapping_add(self):
        pdms = _small_pdms()
        first = pdms.catalogue()
        assert len(first.rules) == 0
        pdms.add_peer_mapping(DefinitionalMapping(parse_query("A:R(x, y) :- B:S(x, y)")))
        second = pdms.catalogue()
        # The normalised catalogue is maintained in place, not rebuilt.
        assert first is second
        assert len(second.rules) == 1
        assert second.definitional_for("A:R")


def _catalogue_fingerprint(catalogue):
    """Order-insensitive content signature of a normalised catalogue."""
    return (
        frozenset((str(r.rule), r.origin, r.synthetic) for r in catalogue.rules),
        frozenset(
            (str(i.view.definition), i.origin, i.stored) for i in catalogue.inclusions
        ),
        catalogue.stored_relations,
        {p: len(rs) for p, rs in catalogue.rules_by_head.items() if rs},
        {p: len(is_) for p, is_ in catalogue.inclusions_by_body_predicate.items() if is_},
    )


class TestIncrementalCatalogue:
    """The incrementally maintained catalogue must equal a fresh rebuild."""

    def _mutations(self, pdms: PDMS):
        yield pdms.catalogue()  # force the initial build, then mutate
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:S(x, y)"), name="m1"))
        yield
        pdms.add_storage_description(StorageDescription(
            "B", "sb", parse_query("V(x, y) :- B:S(x, y)"), name="st1"))
        yield
        c = pdms.add_peer("C")
        c.add_relation("T", ["x", "y"])
        yield
        pdms.add_peer_mapping(InclusionMapping(
            parse_query("L(x) :- C:T(x, y)"),
            parse_query("R(x) :- A:R(x, z)"), name="m2"))
        yield
        pdms.add_peer_mapping(replication(
            parse_atom("C:T(x, y)"), parse_atom("B:S(x, y)"), name="m3"))
        yield
        pdms.add_storage_description(StorageDescription(
            "C", "sc", parse_query("V(x) :- C:T(x, x)"), name="st2"))
        yield
        pdms.remove_peer_mapping("m1")
        yield
        pdms.remove_peer("C")
        yield

    def test_incremental_equals_rebuild_after_every_mutation(self):
        pdms = _small_pdms()
        for _ in self._mutations(pdms):
            incremental = pdms.catalogue()
            rebuilt = pdms._normalise()
            assert _catalogue_fingerprint(incremental) == _catalogue_fingerprint(rebuilt)

    def test_version_bumps_on_every_mutation(self):
        pdms = _small_pdms()
        seen = [pdms.catalogue_version]
        for _ in self._mutations(pdms):
            seen.append(pdms.catalogue_version)
        assert seen == sorted(seen)
        assert len(set(seen[1:])) == len(seen[1:])


class TestPeerRemoval:
    def test_remove_unknown_peer_raises(self):
        pdms = _small_pdms()
        with pytest.raises(PDMSConfigurationError):
            pdms.remove_peer("nope")

    def test_remove_unknown_mapping_raises(self):
        pdms = _small_pdms()
        with pytest.raises(MappingError):
            pdms.remove_peer_mapping("nope")

    def test_remove_peer_drops_its_descriptions(self):
        pdms = _small_pdms()
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:S(x, y)"), name="ab"))
        pdms.add_storage_description(StorageDescription(
            "B", "sb", parse_query("V(x, y) :- B:S(x, y)"), name="store_b"))
        pdms.add_storage_description(StorageDescription(
            "A", "sa", parse_query("V(x, y) :- A:R(x, y)"), name="store_a"))
        change = pdms.remove_peer("B")
        assert "B" not in pdms
        assert change.removed_origins == {"ab", "store_b"}
        assert {d.name for d in pdms.storage_descriptions()} == {"store_a"}
        assert pdms.peer_mappings() == ()
        assert pdms.stored_relation_names() == frozenset({"sa"})

    def test_remove_peer_drops_descriptions_referencing_it(self):
        """A storage description at A querying B's relations dies with B."""
        pdms = _small_pdms()
        pdms.add_storage_description(StorageDescription(
            "A", "cross", parse_query("V(x) :- A:R(x, y), B:S(y, x)"), name="cross_d"))
        change = pdms.remove_peer("B")
        assert "cross_d" in change.removed_origins
        assert pdms.storage_descriptions() == ()

    def test_duplicate_description_names_rejected(self):
        """Names double as catalogue origins; collisions would desync the
        incremental catalogue from the registered descriptions."""
        pdms = _small_pdms()
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:S(x, y)"), name="dup"))
        with pytest.raises(MappingError):
            pdms.add_peer_mapping(DefinitionalMapping(
                parse_query("A:R(y, x) :- B:S(x, y)"), name="dup"))
        with pytest.raises(MappingError):
            pdms.add_storage_description(StorageDescription(
                "B", "sb", parse_query("V(x, y) :- B:S(x, y)"), name="dup"))
        # The name is reusable once its owner is removed.
        pdms.remove_peer_mapping("dup")
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:S(x, y)"), name="dup"))

    def test_remove_peer_undeclares_auto_declared_cross_peer_stored_relation(self):
        """A cross-peer description's auto-declared stored relation must not
        outlive the description as a phantom stored relation."""
        pdms = _small_pdms()
        pdms.add_storage_description(StorageDescription(
            "A", "cross", parse_query("V(x) :- A:R(x, y), B:S(y, x)"), name="cd"))
        assert pdms.is_stored_relation("cross")
        pdms.remove_peer("B")
        assert not pdms.is_stored_relation("cross")
        assert pdms.catalogue().stored_relations == frozenset()

    def test_remove_peer_keeps_explicitly_declared_stored_relations(self):
        pdms = _small_pdms()
        pdms.peer("A").add_stored_relation("explicit", ["x"])
        pdms.add_storage_description(StorageDescription(
            "A", "explicit", parse_query("V(y) :- B:S(y, y)"), name="ed"))
        pdms.remove_peer("B")
        # The description dies with B, but the user-declared relation stays.
        assert pdms.is_stored_relation("explicit")

    def test_stored_relation_declared_on_a_registered_peer_reaches_the_catalogue(self):
        pdms = _small_pdms()
        pdms.add_peer_mapping(lav_style(
            parse_atom("s(x, y)"), parse_query("V(x, y) :- A:R(x, y)"), name="into_s"))
        catalogue = pdms.catalogue()
        assert not catalogue.inclusions[0].stored
        version = pdms.catalogue_version
        pdms.peer("A").add_stored_relation("s", ["x", "y"])
        assert pdms.is_stored_relation("s")
        assert pdms.catalogue() is catalogue and catalogue.is_stored("s")
        # The inclusion headed by ``s`` now ends a path at stored data.
        (flipped,) = catalogue.inclusions
        assert flipped.stored
        assert catalogue.inclusions_mentioning("A:R") == (flipped,)
        assert "A:R" in catalogue.productive_predicates()
        (change,) = pdms.changes_since(version)
        assert change.kind == "declare-stored"
        assert "s" in change.affected_predicates
        pdms.peer("A").remove_stored_relation("s")
        assert not pdms.is_stored_relation("s") and not catalogue.is_stored("s")
        assert not catalogue.inclusions[0].stored
        assert "A:R" not in catalogue.productive_predicates()
        assert pdms.catalogue_version == version + 2

    def test_a_removed_peer_no_longer_reports_its_declarations(self):
        pdms = _small_pdms()
        peer = pdms.peer("B")
        pdms.remove_peer("B")
        version = pdms.catalogue_version
        peer.add_stored_relation("late", ["x"])
        assert pdms.catalogue_version == version
        assert not pdms.is_stored_relation("late")

    def test_change_log_reports_affected_predicates(self):
        pdms = _small_pdms()
        version = pdms.catalogue_version
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:S(x, y)"), name="ab"))
        (change,) = pdms.changes_since(version)
        assert change.kind == "add-mapping"
        assert change.affected_predicates == frozenset({"A:R"})

    def test_inclusion_add_affects_right_hand_side_predicates(self):
        pdms = _small_pdms()
        version = pdms.catalogue_version
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:S(x, y)"), parse_query("R(x, y) :- A:R(x, y)"), name="i"))
        (change,) = pdms.changes_since(version)
        assert change.affected_predicates == frozenset({"A:R"})


class TestOneOwnerPerStoredRelation:
    """A stored relation has one owner (the paper's PPL): a second peer
    declaring it is refused at every catalogue entry point, naming both
    peers, and the refused mutation changes nothing."""

    @staticmethod
    def _owned() -> PDMS:
        """``s`` stored at ``A`` and mapped into ``B:S``; catalogue built."""
        pdms = _small_pdms()
        pdms.add_storage_description(StorageDescription(
            "A", "s", parse_query("V(x, y) :- A:R(x, y)"), name="store_s"))
        pdms.add_peer_mapping(lav_style(
            parse_atom("s(x, y)"), parse_query("V(x, y) :- B:S(x, y)"), name="s_in_b"))
        pdms.catalogue()
        return pdms

    @staticmethod
    def _state(pdms: PDMS) -> tuple:
        return (
            pdms.catalogue_version,
            pdms.stored_relation_names(),
            _catalogue_fingerprint(pdms.catalogue()),
            _catalogue_fingerprint(pdms._normalise()),
            [peer.name for peer in pdms.peers()],
            [d.name for d in pdms.storage_descriptions()],
        )

    def _assert_refused(self, pdms: PDMS, mutate, second: str) -> None:
        before = self._state(pdms)
        with pytest.raises(PDMSConfigurationError) as excinfo:
            mutate()
        message = str(excinfo.value)
        assert "'s'" in message and "'A'" in message and repr(second) in message
        assert self._state(pdms) == before

    def test_add_peer(self):
        pdms = self._owned()
        peer = Peer("C")
        peer.add_stored_relation("t", ["x"])
        peer.add_stored_relation("s", ["x", "y"])
        self._assert_refused(pdms, lambda: pdms.add_peer(peer), "C")
        assert "C" not in pdms and not pdms.is_stored_relation("t")

    def test_add_stored_relation_on_a_registered_peer(self):
        pdms = self._owned()
        peer = pdms.peer("B")
        self._assert_refused(pdms, lambda: peer.add_stored_relation("s", ["x", "y"]), "B")
        assert peer.stored_relation_names() == ()

    def test_an_auto_declaring_storage_description(self):
        pdms = self._owned()
        description = StorageDescription(
            "B", "s", parse_query("V(x, y) :- B:S(x, y)"), name="b_store_s")
        self._assert_refused(
            pdms, lambda: pdms.add_storage_description(description), "B")
        assert pdms.peer("B").stored_relation_names() == ()
        # The refused description claimed no name.
        pdms.add_storage_description(StorageDescription(
            "B", "sb", parse_query("V(x, y) :- B:S(x, y)"), name="b_store_s"))

    def test_the_owner_adds_descriptions_freely_and_a_released_name_is_free(self):
        pdms = self._owned()
        pdms.add_storage_description(StorageDescription(
            "A", "s", parse_query("V(y, x) :- A:R(x, y)"), name="store_s_again"))
        pdms.remove_peer("A")
        assert not pdms.is_stored_relation("s")
        pdms.peer("B").add_stored_relation("s", ["x", "y"])
        assert pdms.is_stored_relation("s")
        assert pdms.catalogue().is_stored("s")


class TestMutationCost:
    """A mutation inspects what it touches, not the whole PDMS: the work
    is counted (peers asked for their relations, mappings and
    descriptions asked for the peers they reference), not timed."""

    @pytest.fixture
    def inspections(self, monkeypatch):
        """``(peers, references)``: the names of the peers asked for their
        relations and the number of ``references_peers`` calls, while
        ``counting[0]`` is true."""
        peers, references, counting = [], [], [False]

        def watch_peer(name):
            original = getattr(Peer, name)

            def watched(self):
                if counting[0]:
                    peers.append(self.name)
                return original(self)
            monkeypatch.setattr(Peer, name, watched)

        def watch_references(cls):
            original = cls.references_peers

            def watched(self):
                if counting[0]:
                    references.append(self.name)
                return original(self)
            monkeypatch.setattr(cls, "references_peers", watched)

        for name in ("stored_relation_names", "stored_relations", "peer_relation_names"):
            watch_peer(name)
        for cls in (
            mappings_module.InclusionMapping, mappings_module.EqualityMapping,
            mappings_module.DefinitionalMapping, mappings_module.StorageDescription,
        ):
            watch_references(cls)
        return peers, references, counting

    @pytest.mark.parametrize("num_peers", [96, 384])
    def test_mutations_inspect_only_what_they_touch(self, num_peers, inspections):
        peers, references, counting = inspections
        workload = generate_workload(GeneratorParameters(num_peers=num_peers, diameter=4, seed=1))
        pdms = workload.pdms
        pdms.catalogue().productive_predicates()
        x, y = Variable("x"), Variable("y")
        top, bottom = workload.strata[0][0], workload.strata[-1][0]

        counting[0] = True
        pdms.add_peer_mapping(lav_style(
            Atom(top, [x, y]), ConjunctiveQuery(Atom("V", [x, y]), [Atom(bottom, [x, y])]),
            name="probe",
        ))
        counting[0] = False
        assert (peers, references) == ([], [])

        leaving = workload.strata[1][0].partition(":")[0]
        referencing = {
            d.name for d in pdms.storage_descriptions()
            if d.peer == leaving or leaving in d.references_peers()
        } | {m.name for m in pdms.peer_mappings() if leaving in m.references_peers()}
        del references[:]
        counting[0] = True
        change = pdms.remove_peer(leaving)
        counting[0] = False
        assert change.removed_origins == referencing
        assert set(peers) == {leaving}
        assert references == []

    def test_a_dropped_pdms_is_freed_by_reference_counting(self):
        """Registered peers reach their PDMS weakly, so dropping a PDMS
        leaves no cycle for the collector (reformulation results are left
        out: their rule-goal trees are cyclic by design)."""
        gc.collect()
        gc.disable()
        try:
            pdms = generate_workload(GeneratorParameters(num_peers=96, diameter=4, seed=2)).pdms
            pdms.catalogue().productive_predicates()
            pdms.remove_peer(pdms.peers()[40].name)
            pdms.changes_since(0)
            del pdms
            assert gc.collect() == 0
        finally:
            gc.enable()
