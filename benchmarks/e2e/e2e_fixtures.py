"""Inputs of the end-to-end benchmark: topologies, data, satellites, deployments.

What is fixed and what the seed drives
--------------------------------------
The mapping topologies (the Section-5 generator's seeds) and the query
templates are part of the benchmark definition, like a TPC schema and its
query templates: the cost of a query is dominated by how many rewritings
its topology admits (48 … 1120 across generator seeds), so drawing a new
topology per run would make two runs incomparable.  ``--seed`` drives
everything a deployment would see change from day to day: the stored
tuples, the satellites' tuples, the written rows and the order of every
op stream.

Only the public package boundary of ``repro`` is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.database import Instance
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    Peer,
    QueryService,
    ServiceCluster,
    StorageDescription,
    answer_query,
    certain_answers,
    combine_peer_instances,
    lav_style,
)
from repro.workload import GeneratorParameters, generate_workload

from e2e_stats import MIN_MEDIAN_SAMPLES, MIN_P95_SAMPLES

#: The engine under test, always passed explicitly (never from the
#: environment).  ``REFERENCE_ENGINE`` is only ever used for checking.
ENGINE = "columnar"
CLUSTER_ENGINE = "distributed"
REFERENCE_ENGINE = "backtracking"

#: The paper's experimental set-up (Section 5): 10 % definitional mappings.
DEFINITIONAL_RATIO = 0.10
#: ``paper_reformulate``: diameters 4/5/6 x the scale's generator seeds.
PAPER_DIAMETERS = (4, 5, 6)
#: The one PDMS the three data workloads share.
MIX_DIAMETER = 4
MIX_TOPOLOGY_SEED = 0
#: This pool seed gives 48 ... 280 rewritings per query: a mix whose
#: spread comes from the queries, not from jitter, and light enough that
#: every op can be repeated several times in a run.
QUERY_POOL_SEED = 7
#: Rows per satellite, and per write unless that is over a tenth of a
#: stored relation (a write that doubles a 10-row relation makes the
#: answer, and so the next read, depend on the seed more than on the code).
WRITE_ROWS = 10


@dataclass(frozen=True)
class Scale:
    """Sizes that are frozen for measurement and shrunk only by ``--smoke``."""

    num_peers: int = 96
    topology_seeds: Tuple[int, ...] = tuple(range(10))
    #: Distinct 2-atom chain queries over top-stratum relations.
    pool_size: int = 12
    #: Cap on a workload's rows per stored relation.
    max_rows: int = 1_000_000
    #: Every round (cycle, stream lap) is run at least this often.
    min_repeats: int = 2
    #: Smallest number of timings a median / a p95 is reported from.
    min_median: int = MIN_MEDIAN_SAMPLES
    min_p95: int = MIN_P95_SAMPLES
    #: Traced run: rows per kernel table, rows of the one big scanned
    #: relation, repeats of each bare RPC.
    kernel_rows: int = 100_000
    big_scan_rows: int = 50_000
    rpc_repeats: int = 200


FULL = Scale()
SMOKE = Scale(
    num_peers=24, topology_seeds=(0,), pool_size=4, max_rows=50, min_repeats=1, min_median=1, min_p95=8,
    kernel_rows=2_000, big_scan_rows=1_000, rpc_repeats=5,
)


def topology(scale: Scale, diameter: int, topology_seed: int) -> GeneratorParameters:
    return GeneratorParameters(
        num_peers=scale.num_peers,
        diameter=diameter,
        definitional_ratio=DEFINITIONAL_RATIO,
        seed=topology_seed,
    )


def chain_query(relations: Sequence[str]) -> ConjunctiveQuery:
    """``Q(x0, xn) :- r1(x0, x1), ..., rn(x(n-1), xn)``."""
    variables = [Variable(f"q{i}") for i in range(len(relations) + 1)]
    body = [
        Atom(relation, [variables[i], variables[i + 1]])
        for i, relation in enumerate(relations)
    ]
    return ConjunctiveQuery(Atom("Q", [variables[0], variables[-1]]), body)


def query_pool(top_stratum: Sequence[str], size: int) -> Tuple[ConjunctiveQuery, ...]:
    rng = random.Random(QUERY_POOL_SEED)
    chosen: List[Tuple[str, str]] = []
    while len(chosen) < size:
        pair = (rng.choice(top_stratum), rng.choice(top_stratum))
        if pair not in chosen:
            chosen.append(pair)
    return tuple(chain_query(pair) for pair in chosen)


def random_rows(rng: random.Random, count: int, domain: int) -> List[Tuple[int, int]]:
    return [(rng.randrange(domain), rng.randrange(domain)) for _ in range(count)]


@dataclass(frozen=True)
class Satellite:
    """An ad-hoc provider peer: ``SAT:X ⊆ base relation`` plus stored rows."""

    peer_name: str
    relation: str
    mapping: object
    description: StorageDescription
    instance: Instance

    def peer(self) -> Peer:
        peer = Peer(self.peer_name)
        peer.add_relation(self.relation.partition(":")[2], ["a", "b"])
        return peer


def make_satellite(index: int, base_relation: str, rows) -> Satellite:
    peer_name = f"SAT{index}"
    relation = f"{peer_name}:X"
    a, b = Variable("a"), Variable("b")
    stored = f"sat_store_{index}"
    instance = Instance()
    instance.add_all(stored, rows)
    return Satellite(
        peer_name=peer_name,
        relation=relation,
        mapping=lav_style(
            Atom(relation, [a, b]),
            ConjunctiveQuery(Atom("R", [a, b]), [Atom(base_relation, [a, b])]),
            name=f"sat_incl_{index}",
        ),
        description=StorageDescription(
            peer_name,
            stored,
            ConjunctiveQuery(Atom(stored, [a, b]), [Atom(relation, [a, b])]),
            exact=False,
            name=f"sat_desc_{index}",
        ),
        instance=instance,
    )


@dataclass
class Site:
    """One PDMS with its queries and, when it carries data, its live tuples.

    ``pdms`` is a catalogue nobody mutates: the pure ``reformulate`` calls
    and the write-relation analysis use it.  Every deployment generates
    its own copy from ``params``.  ``data`` holds the live per-peer
    instances; all deployments of the site serve these same objects, the
    way several front ends of one system would.
    """

    params: GeneratorParameters
    pdms: PDMS
    queries: Tuple[ConjunctiveQuery, ...]
    domain: int = 0
    write_rows: int = WRITE_ROWS
    data: Dict[str, Instance] = field(default_factory=dict)
    owners: Dict[str, Instance] = field(default_factory=dict)
    #: One satellite per query, wired to the query's first relation so
    #: that its join or leave invalidates that query's reformulation.
    satellites: Tuple[Satellite, ...] = ()

    @property
    def has_data(self) -> bool:
        return bool(self.data)


def build_site(
    params: GeneratorParameters,
    rng: Optional[random.Random],
    rows: int = 0,
    domain: int = 0,
    pool_size: int = 0,
) -> Site:
    """Generate the PDMS; with ``rng`` also its tuples and satellites.

    ``pool_size`` 0 keeps the generator's own benchmark query.
    """
    workload = generate_workload(params)
    queries = (
        query_pool(workload.strata[0], pool_size) if pool_size else (workload.query,)
    )
    site = Site(
        params=params, pdms=workload.pdms, queries=queries, domain=domain,
        write_rows=min(WRITE_ROWS, max(1, rows // 10)),
    )
    if rng is None:
        return site
    for peer in workload.pdms.peers():
        stored = peer.stored_relations()
        if not stored:
            continue
        instance = Instance()
        for relation in stored:
            instance.add_all(relation.name, random_rows(rng, rows, domain))
            site.owners[relation.name] = instance
        site.data[peer.name] = instance
    site.satellites = tuple(
        make_satellite(
            index, query.body[0].predicate, random_rows(rng, WRITE_ROWS, domain)
        )
        for index, query in enumerate(queries)
    )
    return site


# ---------------------------------------------------------------------------
# Deployments: how a client reaches one site
# ---------------------------------------------------------------------------


class ServiceDeployment:
    """An in-process :class:`QueryService` over the site's live instances."""

    def __init__(self, site: Site, fragment_cache_bytes: Optional[int] = None):
        self.site = site
        self.pdms = generate_workload(site.params).pdms
        self.service = QueryService(
            self.pdms,
            engine=ENGINE,
            data=site.data,
            fragment_cache_bytes=fragment_cache_bytes,
        )
        self.joined: Dict[str, Satellite] = {}

    def answer(self, query: ConjunctiveQuery):
        """``(rows, complete)``; an in-process answer is always complete."""
        return self.service.answer(query), True

    def write(self, relation: str, rows) -> None:
        self.site.owners[relation].add_all(relation, rows)

    def drop_scans(self) -> None:
        self.service.fragment_cache.clear()

    def join(self, satellite: Satellite) -> None:
        self.service.add_peer(satellite.peer())
        self.service.add_peer_mapping(satellite.mapping)
        self.service.add_storage_description(satellite.description)
        self.service.set_peer_data(satellite.peer_name, satellite.instance)
        self.joined[satellite.peer_name] = satellite

    def leave(self, satellite: Satellite) -> None:
        self.service.remove_peer(satellite.peer_name)
        del self.joined[satellite.peer_name]

    def live_data(self) -> Dict[str, Instance]:
        data = dict(self.site.data)
        data.update((name, sat.instance) for name, sat in self.joined.items())
        return data

    def close(self) -> None:
        """Nothing to release: no thread, socket or pool is held."""


class ClusterDeployment(ServiceDeployment):
    """A :class:`ServiceCluster` over a transport serving the same instances.

    A transport's peer set is fixed at construction, so no peer joins or
    leaves a cluster here; churn is the in-process workloads' op.
    """

    def __init__(
        self,
        site: Site,
        fragment_cache_bytes: Optional[int] = None,
        transport_factory: Callable[[Mapping[str, Instance]], object] = AsyncSocketTransport,
    ):
        self.site = site
        self.pdms = generate_workload(site.params).pdms
        self.joined = {}
        self.transport = transport_factory(dict(site.data))
        try:
            self.cluster = ServiceCluster(
                self.pdms,
                transport=self.transport,
                engine=CLUSTER_ENGINE,
                fragment_cache_bytes=fragment_cache_bytes,
            )
        except BaseException:
            self.transport.close()
            raise
        self.service = self.cluster.service

    def answer(self, query: ConjunctiveQuery):
        answer = self.cluster.answer(query)
        return answer.rows, answer.complete

    def write(self, relation: str, rows) -> None:
        self.cluster.insert(relation, rows)

    def drop_scans(self) -> None:
        self.cluster.source.drop_memo()
        self.service.fragment_cache.clear()

    def close(self) -> None:
        self.cluster.close()


def reference_answer(pdms: PDMS, query: ConjunctiveQuery, data: Mapping[str, Instance]):
    """From-scratch answer with the reference engine over per-peer ``data``."""
    return answer_query(pdms, query, data, engine=REFERENCE_ENGINE)


def chase_answer(pdms: PDMS, query: ConjunctiveQuery, data: Mapping[str, Instance]):
    """The certain answers by the chase: an oracle that shares no code
    with reformulation (affordable on the paper workload's 10-row data)."""
    return certain_answers(pdms, query, combine_peer_instances(data))
