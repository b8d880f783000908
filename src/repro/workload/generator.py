"""The Section-5 synthetic PDMS workload generator.

The paper's experiments (Figures 3 and 4) run the reformulation algorithm
over randomly generated PDMSs:

    "The parameters to the generator are: (1) the number of peers R in the
    system, and (2) the expected diameter L of the PDMS [...].  We call
    each such level a stratum, and to create the PDMS, we assign a number
    of peers to each stratum.  The generator also controls the ratio of
    definitional versus inclusion peer mappings.  Finally, the right-hand
    sides of the peer mappings are chain queries over a set of relations
    that was selected randomly from the stratum below (for definitional
    mappings) and above (for inclusions)."

This module re-implements that generator from the description.  Peers are
arranged in ``diameter`` strata; every peer declares a few binary peer
relations; every relation of stratum *s* participates in a configurable
number of peer mappings whose "other side" lives in stratum *s+1*:

* with probability ``definitional_ratio`` the mapping is *definitional* —
  the stratum-*s* relation is defined by a chain query over stratum-*s+1*
  relations (GAV direction; several such rules for the same head act as a
  union, which is exactly why higher ratios blow up the branching factor,
  as the paper observes);
* otherwise the mapping is an *inclusion* — a randomly chosen stratum-*s+1*
  relation is contained in a chain query over stratum-*s* relations that
  includes the relation being wired up (LAV direction).

Bottom-stratum relations get storage descriptions binding them to stored
relations, and the benchmark query is a chain query over top-stratum
relations.  Every random choice flows through a seeded
:class:`random.Random`, so data points can be averaged over many runs
reproducibly (the paper averages 100 runs per point).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.atoms import Atom
from ..datalog.queries import ConjunctiveQuery
from ..datalog.terms import Variable
from ..errors import PDMSConfigurationError
from ..pdms.mappings import DefinitionalMapping, InclusionMapping, StorageDescription
from ..pdms.peer import Peer
from ..pdms.system import PDMS


@dataclass(frozen=True)
class GeneratorParameters:
    """Knobs of the synthetic workload generator.

    The defaults correspond to the paper's experimental setup: 96 peers,
    variable diameter, and a definitional-mapping ratio swept over
    {0, 0.10, 0.25, 0.50}.
    """

    #: Total number of peers R in the system (the paper uses 96).
    num_peers: int = 96
    #: Expected diameter L — the number of strata.
    diameter: int = 4
    #: Fraction of peer mappings that are definitional (the paper's "%dd").
    definitional_ratio: float = 0.10
    #: Binary peer relations declared by each peer.
    relations_per_peer: int = 2
    #: Peer mappings generated per relation per stratum boundary (branching).
    mappings_per_relation: int = 2
    #: Number of atoms in each definitional mapping's body chain.
    chain_length: int = 2
    #: Number of atoms in each inclusion mapping's right-hand-side chain.
    #: The paper's description (quoted above) gives these chains no
    #: length; this reconstruction defaults to 1, replication-style
    #: inclusions (one lower-stratum relation contained in one
    #: upper-stratum relation).  Longer inclusion chains are only *usable*
    #: by the reformulation algorithm when a goal's siblings happen to
    #: match the chain (MiniCon must be able to export the join
    #: variables), so values above 1 mostly add mappings that the
    #: algorithm proves irrelevant.
    inclusion_chain_length: int = 1
    #: Number of atoms in the benchmark query (a chain over stratum-0 relations).
    query_length: int = 2
    #: Random seed (each run of an averaged data point uses seed+run_index).
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`PDMSConfigurationError` on nonsensical parameters."""
        if self.num_peers < self.diameter:
            raise PDMSConfigurationError(
                f"cannot spread {self.num_peers} peers over {self.diameter} strata"
            )
        if self.diameter < 1:
            raise PDMSConfigurationError("diameter must be at least 1")
        if not 0.0 <= self.definitional_ratio <= 1.0:
            raise PDMSConfigurationError("definitional_ratio must be within [0, 1]")
        if min(self.relations_per_peer, self.mappings_per_relation, self.chain_length,
               self.query_length) < 1:
            raise PDMSConfigurationError("structural parameters must be at least 1")


@dataclass
class GeneratedWorkload:
    """A generated PDMS together with its benchmark query and bookkeeping."""

    pdms: PDMS
    query: ConjunctiveQuery
    parameters: GeneratorParameters
    #: Qualified peer-relation names per stratum (index 0 = top).
    strata: List[List[str]] = field(default_factory=list)
    #: Names of the stored relations created for the bottom stratum.
    stored_relations: List[str] = field(default_factory=list)

    @property
    def diameter(self) -> int:
        """The diameter (number of strata) of the generated PDMS."""
        return len(self.strata)


def _split_peers(num_peers: int, diameter: int) -> List[int]:
    """Distribute ``num_peers`` over ``diameter`` strata as evenly as possible."""
    base = num_peers // diameter
    remainder = num_peers % diameter
    return [base + (1 if stratum < remainder else 0) for stratum in range(diameter)]


def _chain_query(
    name: str, relations: Sequence[str], rng: random.Random, prefix: str
) -> ConjunctiveQuery:
    """A chain query ``name(x0, xn) :- r1(x0, x1), ..., rn(x(n-1), xn)``."""
    variables = [Variable(f"{prefix}{i}") for i in range(len(relations) + 1)]
    body = [
        Atom(relation, [variables[i], variables[i + 1]])
        for i, relation in enumerate(relations)
    ]
    head = Atom(name, [variables[0], variables[-1]])
    return ConjunctiveQuery(head, body)


def generate_workload(parameters: GeneratorParameters) -> GeneratedWorkload:
    """Generate one random PDMS plus benchmark query per ``parameters``."""
    parameters.validate()
    rng = random.Random(parameters.seed)

    pdms = PDMS(
        name=(
            f"synthetic-R{parameters.num_peers}-L{parameters.diameter}-"
            f"dd{int(parameters.definitional_ratio * 100)}-s{parameters.seed}"
        )
    )

    # 1. Peers and peer relations, stratum by stratum (stratum 0 is the top,
    #    where the query is posed; the bottom stratum holds the data).
    strata: List[List[str]] = []
    peer_counts = _split_peers(parameters.num_peers, parameters.diameter)
    peer_index = 0
    for stratum, count in enumerate(peer_counts):
        relations: List[str] = []
        for _ in range(count):
            peer = pdms.add_peer(Peer(f"P{peer_index}"))
            for rel_index in range(parameters.relations_per_peer):
                schema = peer.add_relation(f"R{stratum}_{peer_index}_{rel_index}", ["a", "b"])
                relations.append(schema.name)
            peer_index += 1
        strata.append(relations)

    # 2. Peer mappings between consecutive strata.
    mapping_counter = 0
    for stratum in range(parameters.diameter - 1):
        upper = strata[stratum]
        lower = strata[stratum + 1]
        for relation in upper:
            for _ in range(parameters.mappings_per_relation):
                mapping_counter += 1
                if rng.random() < parameters.definitional_ratio:
                    # Definitional: the stratum-s relation is defined by a
                    # chain over relations of the stratum below.
                    body_relations = [
                        rng.choice(lower) for _ in range(parameters.chain_length)
                    ]
                    rule = _chain_query(relation, body_relations, rng, prefix="d")
                    pdms.add_peer_mapping(
                        DefinitionalMapping(rule, name=f"def_{mapping_counter}")
                    )
                else:
                    # Inclusion: a stratum-(s+1) relation is contained in a
                    # chain over stratum-s relations that mentions `relation`.
                    lhs_relation = rng.choice(lower)
                    rhs_relations = [relation] + [
                        rng.choice(upper)
                        for _ in range(parameters.inclusion_chain_length - 1)
                    ]
                    rng.shuffle(rhs_relations)
                    left = _chain_query(lhs_relation, [lhs_relation], rng, prefix="l")
                    right = _chain_query("__rhs__", rhs_relations, rng, prefix="u")
                    pdms.add_peer_mapping(
                        InclusionMapping(
                            ConjunctiveQuery(left.head, left.body),
                            right,
                            name=f"incl_{mapping_counter}",
                        )
                    )

    # 3. Storage descriptions for the bottom stratum: one stored relation per
    #    bottom peer relation, containing (a subset of) that relation.
    stored_relations: List[str] = []
    for index, relation in enumerate(strata[-1]):
        peer_name = relation.partition(":")[0]
        stored_name = f"S{index}"
        query = _chain_query(stored_name, [relation], rng, prefix="s")
        pdms.add_storage_description(
            StorageDescription(peer_name, stored_name, query, exact=False,
                               name=f"store_{index}")
        )
        stored_relations.append(stored_name)

    # 4. The benchmark query: a chain over top-stratum relations.
    query_relations = [rng.choice(strata[0]) for _ in range(parameters.query_length)]
    query = _chain_query("Q", query_relations, rng, prefix="q")

    return GeneratedWorkload(
        pdms=pdms,
        query=query,
        parameters=parameters,
        strata=strata,
        stored_relations=stored_relations,
    )


def generate_runs(
    parameters: GeneratorParameters, runs: int
) -> List[GeneratedWorkload]:
    """Generate ``runs`` workloads differing only in the random seed.

    The paper averages each data point over 100 runs; callers typically
    average tree sizes / timings over the returned list.
    """
    import dataclasses

    workloads = []
    for run_index in range(runs):
        run_parameters = dataclasses.replace(parameters, seed=parameters.seed + run_index)
        workloads.append(generate_workload(run_parameters))
    return workloads
