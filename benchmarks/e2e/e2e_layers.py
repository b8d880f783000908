"""The traced run: where a query's time goes, layer by layer.

Nothing under ``src/`` is touched.  The spans are the benchmark's own:
instead of ``service.answer`` the traced run calls the public entry point
of each layer, one after another, and times each call
(``name, start, end, parent, op id``); a layer's self time is its span
minus what its child spans cover.  Counts come from the public
snapshots.  A short untraced pass of the same ops in the same process
gives the medians the staged sums are compared with; the difference is
what staging and tracing cost or miss.

Every workload gets the full account over *its* inputs: the three
in-process workloads are also put behind a loopback and a socket cluster
here, which is what splits a cluster read into engine, runtime and wire.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.database import ColumnTable, Instance
from repro.datalog import WILDCARD
from repro.obs import Tracer, set_tracer
from repro.pdms import (
    AsyncSocketTransport,
    LoopbackTransport,
    canonicalize_query,
    compile_reformulation,
    ensure_plan,
    evaluate_plan,
    evaluate_reformulation,
    federate_if_per_peer,
    fragment_cache_from_env,
    reformulate,
)
from repro.pdms.distributed import encode_pattern
from repro.workload import generate_workload

import e2e_fixtures as fx
import e2e_workloads as wl
from e2e_stats import Span, median, p95, self_time_by_name, self_times

#: Span kinds of the program's own tracer whose self time is reported.
OBS_KINDS = (
    "query.reformulate", "plan.compile", "plan.execute", "fragment.cache",
    "fragment.eval", "source.refresh", "scatter.wave", "scan.attempt",
    "rpc.serve.scan_since",
)
#: Queries the two engines are compared on (backtracking is slow).
ENGINE_SAMPLE = 4


class SpanLog:
    """Benchmark-owned spans, kept in memory until the run ends.

    One client, so one op is open at a time: spans opened on the main
    thread nest by a stack, and a call observed on a pool thread belongs
    to the main thread's innermost open span, which is waiting for it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.op_id = 0

    def _parent(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    @contextmanager
    def op(self, name: str) -> Iterator[Span]:
        self.op_id += 1
        with self.span(name) as span:
            yield span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(next(self._ids), self._parent(), self.op_id, name, time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            with self._lock:
                self.spans.append(span)

    def observed(self, name: str, start: float, end: float) -> None:
        span = Span(next(self._ids), self._parent(), self.op_id, name, start, end)
        with self._lock:
            self.spans.append(span)


class SpanningTransport:
    """A transport whose every RPC is also recorded as a benchmark span."""

    #: Keeps scans on the blocking path, where a span can bracket them.
    submit_scan = None

    def __init__(self, inner, log: SpanLog):
        self._inner = inner
        self._log = log

    def _spanned(self, name: str, method, *args):
        start = time.perf_counter()
        try:
            return method(*args)
        finally:
            self._log.observed(name, start, time.perf_counter())

    def describe(self, peer):
        return self._spanned("transport.describe", self._inner.describe, peer)

    def scan_batch(self, peer, requests):
        return self._spanned("transport.scan", self._inner.scan_batch, peer, requests)

    def scan_batch_since(self, peer, requests):
        return self._spanned("transport.scan", self._inner.scan_batch_since, peer, requests)

    def insert(self, peer, relation, rows):
        return self._spanned("transport.insert", self._inner.insert, peer, relation, rows)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def timed_us(call, repeats: int) -> Tuple[float, int]:
    """Median latency of ``call`` in microseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6, repeats


class LayerRun:
    """One traced run of one workload."""

    def __init__(self, spec: wl.WorkloadSpec, seed: int, scale: fx.Scale, deadline: float):
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.rng = random.Random(f"e2e:{spec.name}:{seed}:layers")
        self.log = SpanLog()
        self.out: wl.Metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Fixtures and deployments to close when the run ends.
        self._open: List[object] = []
        #: Last staged reformulation and answer per (site, query).
        self.results: Dict[Tuple[int, int], object] = {}
        self.staged_rows: Dict[wl.Target, frozenset] = {}
        #: Durations of the staged cold-answer ops.
        self.staged_cold: List[float] = []

    # -- plumbing ----------------------------------------------------------

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.out[name] = (float(value), unit, samples)

    def put_median(self, name: str, seconds: Sequence[float], unit: str = "ms") -> None:
        scale = {"ms": 1e3, "us": 1e6}[unit]
        self.put(name, median(seconds, self.scale.min_median) * scale, unit, len(seconds))

    def put_us(self, name: str, call) -> None:
        value, samples = timed_us(call, self.scale.rpc_repeats)
        self.put(name, value, "us", samples)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def check_deadline(self) -> None:
        if time.perf_counter() > self.deadline:
            raise wl.WallClockExceeded(f"{self.spec.name}: wall-clock guard fired (traced)")

    def repeats(self, items: Sequence) -> int:
        """Whole rounds over ``items`` that give a median its sample."""
        return -(-self.scale.min_median // len(items))

    def mini_spec(self) -> wl.WorkloadSpec:
        """The workload's inputs served in-process, every data phase, with
        no reads in the stream (so ``read`` stays the pure warm read)."""
        return replace(
            self.spec, cluster=False, phases=("cold", "reads", "tight", "stream"),
            reads_per_cycle=1, lap={"read": 0, "write": 1, "churn": 2},
        )

    def mini_run(self, fixture: wl.Fixture, min_reads: int = 0) -> wl.WorkloadRun:
        """The untraced cycles and stream on ``fixture``: as few as give
        every median its sample, with at least ``min_reads`` warm reads."""
        targets = sum(len(site.queries) for site in fixture.sites if site.has_data)
        cycles = max(2, self.repeats(range(targets)))
        fixture.spec = replace(
            fixture.spec, reads_per_cycle=max(1, -(-min_reads // (targets * cycles)))
        )
        run = wl.WorkloadRun(
            fixture, self.seed, 1e-6, self.deadline, replace(self.scale, min_repeats=cycles),
            check_references=False,
        )
        run.run()
        self.attempted += run.rec.attempted
        self.failed += run.rec.failed
        self.failures.extend(run.rec.failures[: 10 - len(self.failures)])
        return run

    def cluster(self, site: fx.Site, transport_factory) -> fx.ClusterDeployment:
        """A cluster over ``site``'s live data, closed when the run ends."""
        deployment = fx.ClusterDeployment(site, transport_factory=transport_factory)
        self._open.append(deployment)
        return deployment

    def close(self, closable) -> None:
        self._open.remove(closable)
        closable.close()

    # -- the run -----------------------------------------------------------

    def run(self) -> None:
        try:
            main = wl.build_fixture(self.mini_spec(), self.seed, self.scale)
            self._open.append(main)
            for site in main.sites:
                site.pdms.catalogue  # normalise once, outside the spans
            first = next(site for site in main.sites if site.has_data)
            self.staged_answers(main)
            self.engines(main)
            inprocess = self.mini_run(main, min_reads=self.scale.min_p95)
            self.in_process_layers(main, inprocess)
            self.system_layer(first)
            self.cluster_layers(first, main.deployments[0], inprocess)
            self.transport_layer(first)
            self.columnar_layer()
            self.observability(main, first)
            self.host_layer()
        finally:
            wl.close_all(reversed(self._open))
            self._open.clear()

    # -- reformulation, planning: staged cold answers ----------------------

    def staged_answers(self, fixture: wl.Fixture) -> None:
        log = self.log
        sites = fixture.sites
        pairs = [
            (index, query_index)
            for index, site in enumerate(sites)
            for query_index in range(len(site.queries))
        ]
        data_pairs = [pair for pair in pairs if sites[pair[0]].has_data]
        sources = {
            index: federate_if_per_peer(site.data)
            for index, site in enumerate(sites) if site.has_data
        }
        nodes: Dict[int, int] = dict.fromkeys(fx.PAPER_DIAMETERS, 0)
        rewritings = fragments = references = reused = 0
        warm: List[float] = []
        nocache: List[float] = []
        first_span = len(log.spans)
        for round_index in range(self.repeats(data_pairs)):
            caches = {index: fragment_cache_from_env() for index in sources}
            for site_index, query_index in pairs:
                self.check_deadline()
                site = sites[site_index]
                query = site.queries[query_index]
                self.attempted += 1
                with log.op("op.cold_answer" if site.has_data else "op.reformulate"):
                    with log.span("reformulation.canonicalize"):
                        canonical = canonicalize_query(query)
                    with log.span("reformulation.build"):
                        result = reformulate(site.pdms, canonical.query)
                    with log.span("reformulation.first"):
                        result.first_rewritings(1)
                    with log.span("reformulation.enumerate"):
                        count = len(result.first_rewritings(wl.REWRITING_CAP))
                    if site.has_data:
                        source, cache = sources[site_index], caches[site_index]
                        with log.span("planning.compile"):
                            plan = compile_reformulation(result, source)
                            for _ in plan.fragments():
                                pass
                        with log.span("planning.execute"):
                            rows = evaluate_plan(plan, source, cache=cache, columnar=True)
                self.results[(site_index, query_index)] = result
                if round_index == 0:
                    nodes[site.params.diameter] += result.statistics.total_nodes
                    rewritings += count
                if not site.has_data:
                    continue
                self.staged_rows[wl.Target(site_index, query_index)] = frozenset(rows)
                if round_index == 0:
                    fragments += plan.stats.unique_fragments
                    references += plan.stats.fragment_references
                    reused += plan.stats.reused_references
                start = time.perf_counter()
                evaluate_plan(plan, source, cache=cache, columnar=True)
                warm.append(time.perf_counter() - start)
                start = time.perf_counter()
                evaluate_plan(plan, source, cache=None, columnar=True)
                nocache.append(time.perf_counter() - start)

        spans = log.spans[first_span:]
        own = self_time_by_name(spans)
        self.put_median("reformulation.build_ms", own["reformulation.build"])
        self.put_median("reformulation.first_ms", own["reformulation.first"])
        self.put_median("reformulation.enumerate_ms", own["reformulation.enumerate"])
        self.put_median("reformulation.canonicalize_us", own["reformulation.canonicalize"], "us")
        self.put("reformulation.rewritings", rewritings, "count", len(pairs))
        for diameter, total in nodes.items():
            self.put(f"rule_goal_tree.nodes.d{diameter}", total, "count", len(pairs))
        builds = own["reformulation.build"]
        self.put("rule_goal_tree.nodes_per_s",
                 sum(nodes.values()) * self.repeats(data_pairs) / sum(builds), "1/s", len(builds))
        self.put_median("planning.compile_ms", own["planning.compile"])
        self.put("planning.fragments", fragments, "count", len(data_pairs))
        self.put("planning.sharing_ratio", reused / references if references else 0.0,
                 "ratio", len(data_pairs))
        self.put_median("planning.execute_warm_ms", warm)
        self.put_median("planning.execute_nocache_ms", nocache)
        cold_ops = {
            span.op_id: span.duration for span in spans if span.name == "op.cold_answer"
        }
        span_self = self_times(spans)
        reformulation_seconds = sum(
            span_self[span.span_id] for span in spans
            if span.op_id in cold_ops and span.name.startswith("reformulation.")
        )
        self.put("reformulation.share_of_cold",
                 reformulation_seconds / sum(cold_ops.values()), "ratio", len(cold_ops))
        self.staged_cold = list(cold_ops.values())

    # -- execution ---------------------------------------------------------

    def engines(self, fixture: wl.Fixture) -> None:
        """The engine under test and the reference engine, no cache."""
        targets = sorted(self.staged_rows, key=lambda t: (t.site_index, t.query_index))
        self.rng.shuffle(targets)
        seconds = {fx.ENGINE: [], fx.REFERENCE_ENGINE: []}
        for target in targets[:ENGINE_SAMPLE]:
            self.check_deadline()
            result = self.results[(target.site_index, target.query_index)]
            source = federate_if_per_peer(fixture.sites[target.site_index].data)
            for engine, samples in seconds.items():
                self.attempted += 1
                start = time.perf_counter()
                rows = evaluate_reformulation(result, source, engine=engine, cache=None)
                samples.append(time.perf_counter() - start)
                if rows != self.staged_rows[target]:
                    self.fail(f"{engine} disagrees with the staged answer")
        for engine, samples in seconds.items():
            self.put(f"execution.{engine}_ms", statistics.mean(samples) * 1e3, "ms", len(samples))

    # -- service, materialization -----------------------------------------

    def in_process_layers(self, fixture: wl.Fixture, run: wl.WorkloadRun) -> None:
        for target, rows in self.staged_rows.items():
            if run.expected.get(target) != rows:
                self.fail(f"staged answer differs from service.answer for {run.query(target)}")
        # The ops by their end-to-end names, unstaged, as timed on this host.
        for name, kind in wl.LATENCY_METRICS:
            if run.rec.raw(kind):
                self.put_median(name, run.rec.raw(kind))
        reads = run.rec.raw("read")
        self.put("read_p95_ms", p95(reads, self.scale.min_p95) * 1e3, "ms", len(reads))
        staged = median(self.staged_cold, self.scale.min_median)
        unstaged = median(run.rec.raw("cold_answer"), self.scale.min_median)
        self.put("staged.cold_answer_ms", staged * 1e3, "ms", len(self.staged_cold))
        self.put("staged.cold_answer_gap", staged / unstaged - 1.0, "ratio", len(self.staged_cold))
        for regime, counters in run.cache_stats.items():
            probes = counters["hits"] + counters["misses"]
            self.put(f"materialization.hit_rate.{regime}",
                     counters["hits"] / probes if probes else 0.0, "ratio", probes)
            for key in ("admissions", "evictions", "invalidations"):
                self.put(f"materialization.{key}.{regime}", counters[key], "count", probes)
            self.put(f"materialization.bytes.{regime}", counters["bytes"], "bytes", probes)
        hits = misses = invalidations = compiled = 0
        lookups: List[float] = []
        for index, deployment in fixture.deployments.items():
            service = deployment.service
            for query in fixture.sites[index].queries:
                service.reformulate(query)  # make sure the entry is warm
                for _ in range(self.repeats(run.targets)):
                    start = time.perf_counter()
                    service.reformulate(query)
                    lookups.append(time.perf_counter() - start)
            stats = service.stats_snapshot()
            hits += stats.hits
            misses += stats.misses
            invalidations += stats.invalidations
            compiled += stats.plans_compiled
        self.put_median("service.lookup_us", lookups, "us")
        self.put("service.reformulation_hit_rate", hits / (hits + misses), "ratio", hits + misses)
        self.put("service.invalidations", invalidations, "count", hits + misses)
        self.put("service.plans_compiled", compiled, "count", hits + misses)

    # -- system ------------------------------------------------------------

    def system_layer(self, site: fx.Site) -> None:
        """Joins and leaves on a bare PDMS: catalogue work without a service."""
        pdms = generate_workload(site.params).pdms
        pdms.catalogue
        first_span = len(self.log.spans)
        for _ in range(self.repeats(site.satellites)):
            for satellite in site.satellites:
                self.attempted += 1
                with self.log.op("system.join"):
                    pdms.add_peer(satellite.peer())
                    pdms.add_peer_mapping(satellite.mapping)
                    pdms.add_storage_description(satellite.description)
                    pdms.catalogue
                with self.log.op("system.leave"):
                    pdms.remove_peer(satellite.peer_name)
                    pdms.catalogue
        own = self_time_by_name(self.log.spans[first_span:])
        self.put_median("system.join_ms", own["system.join"])
        self.put_median("system.leave_ms", own["system.leave"])

    # -- source, cluster ---------------------------------------------------

    def cluster_probe(self, deployment, site: fx.Site, reference) -> Dict[str, List[float]]:
        """Warm reads and cold-scan reads on one cluster, timed raw;
        answers must equal the in-process ``reference`` deployment's."""
        raw: Dict[str, List[float]] = {"read": [], "read_cold_scan": []}
        expected = {query: reference.answer(query)[0] for query in site.queries}
        for query in site.queries:  # first answers: reformulation, plan, scans
            deployment.answer(query)
        for _ in range(self.repeats(site.queries)):
            for kind in raw:
                for query in site.queries:
                    self.check_deadline()
                    self.attempted += 1
                    if kind == "read_cold_scan":
                        deployment.drop_scans()
                    start = time.perf_counter()
                    rows, complete = deployment.answer(query)
                    raw[kind].append(time.perf_counter() - start)
                    if rows != expected[query] or not complete:
                        self.fail(f"cluster {kind} wrong or incomplete for {query}")
        return raw

    def cluster_layers(self, site: fx.Site, reference, inprocess: wl.WorkloadRun) -> None:
        """The same reads behind a loopback and a socket transport:
        socket - loopback is the wire, loopback - in-process the runtime."""
        loopback = self.cluster(site, LoopbackTransport)
        raw = self.cluster_probe(loopback, site, reference)
        self.put_median("cluster.loopback.read_ms", raw["read"])
        self.put_median("cluster.loopback.read_cold_scan_ms", raw["read_cold_scan"])
        self.close(loopback)

        socket = self.cluster(site, AsyncSocketTransport)
        raw = self.cluster_probe(socket, site, reference)
        self.put_median("cluster.socket.read_ms", raw["read"])
        self.put_median("cluster.socket.read_cold_scan_ms", raw["read_cold_scan"])
        self.source_layer(socket, site)
        self.staged_cold_scans(site, raw["read_cold_scan"])

        # Writes last: they change what every deployment of the site answers.
        writes: List[float] = []
        after: List[float] = []
        targets = [target for target in inprocess.targets if target.site_index == 0]
        for _ in range(self.repeats(targets)):
            for target in targets:
                self.attempted += 1
                relation = inprocess.write_relation[target]
                rows = fx.random_rows(self.rng, site.write_rows, site.domain)
                start = time.perf_counter()
                socket.write(relation, rows)
                writes.append(time.perf_counter() - start)
                start = time.perf_counter()
                answer, complete = socket.answer(inprocess.query(target))
                after.append(time.perf_counter() - start)
                if answer != reference.answer(inprocess.query(target))[0] or not complete:
                    self.fail(f"cluster read after write wrong for {inprocess.query(target)}")
        self.put_median("cluster.socket.write_ms", writes)
        self.put_median("cluster.socket.read_after_write_ms", after)
        self.close(socket)

    def source_layer(self, deployment: fx.ClusterDeployment, site: fx.Site) -> None:
        source, transport = deployment.cluster.source, deployment.transport
        before = source.scatter_stats()
        rpcs = transport.rpc_count
        reads = 0
        for _ in range(self.repeats(site.queries)):
            for query in site.queries:
                deployment.answer(query)
                reads += 1
        after = source.scatter_stats()
        waves = sum(after[key] - before[key] for key in ("pruned_waves", "fanout_waves"))
        self.put("source.rpcs_per_read", (transport.rpc_count - rpcs) / reads, "count", reads)
        self.put("source.waves_per_read", waves / reads, "count", reads)
        for key in ("full_scans", "delta_scans", "full_rows_shipped",
                    "delta_rows_shipped", "retries", "hedges_fired"):
            self.put(f"source.{key}", after[key], "count", transport.rpc_count)
        value, samples = timed_us(source.refresh, self.scale.min_median)
        self.put("source.refresh_ms", value / 1e3, "ms", samples)

    def staged_cold_scans(self, site: fx.Site, unstaged: Sequence[float]) -> None:
        """Cold-scan reads over sockets, layer entry points one by one;
        ``unstaged`` holds the same reads timed through ``cluster.answer``."""
        log = self.log
        deployment = self.cluster(
            site, lambda instances: SpanningTransport(AsyncSocketTransport(instances), log)
        )
        service, source = deployment.service, deployment.cluster.source
        expected = {}
        for query in site.queries:  # reformulation and plan warm, as in the phase
            expected[query], _ = deployment.answer(query)
        first_span = len(log.spans)
        for _ in range(self.repeats(site.queries)):
            for query in site.queries:
                self.check_deadline()
                self.attempted += 1
                deployment.drop_scans()
                with log.op("op.cold_scan"):
                    with log.span("service.lookup"):
                        result = service.reformulate(query)
                    with log.span("planning.ensure_plan"):
                        plan = ensure_plan(result, source)
                    with log.span("execute.distributed"):
                        rows = evaluate_reformulation(
                            result, source, engine=fx.CLUSTER_ENGINE, plan=plan,
                            cache=service.fragment_cache,
                        )
                if rows != expected[query] or not source.complete:
                    self.fail(f"staged cold scan wrong or incomplete for {query}")
        spans = log.spans[first_span:]
        ops = [span.duration for span in spans if span.name == "op.cold_scan"]
        own = self_time_by_name(spans)
        wire = sum(
            seconds for name, per_op in own.items()
            if name.startswith("transport.") for seconds in per_op
        )
        staged = median(ops, self.scale.min_median)
        reference = median(unstaged, self.scale.min_median)
        self.put("staged.cold_scan_ms", staged * 1e3, "ms", len(ops))
        self.put("staged.cold_scan_gap", staged / reference - 1.0, "ratio", len(ops))
        self.put("staged.cold_scan_wire_share", wire / sum(ops), "ratio", len(ops))
        self.close(deployment)

    # -- transport ---------------------------------------------------------

    def transport_layer(self, site: fx.Site) -> None:
        """The four RPCs alone, on a copy of one peer plus one big relation."""
        peer, instance = next(iter(site.data.items()))
        relation = instance.relations()[0]
        big = Instance()
        big.add_all("big", ((i, i % 97) for i in range(self.scale.big_scan_rows)))
        everything = encode_pattern((WILDCARD, WILDCARD))
        rows = fx.random_rows(self.rng, fx.WRITE_ROWS, site.domain)
        for label, factory in (("loopback", LoopbackTransport), ("socket", AsyncSocketTransport)):
            self.check_deadline()
            transport = factory({peer: instance.copy(), "big": big})
            try:
                prefix = f"transport.{label}"
                transport.describe(peer)
                self.put_us(f"{prefix}.describe_us", lambda: transport.describe(peer))
                self.put_us(f"{prefix}.scan_us",
                            lambda: transport.scan_batch(peer, [(relation, everything)]))
                if label == "socket":
                    us, samples = timed_us(
                        lambda: transport.scan_batch("big", [("big", everything)]), 5)
                    self.put(f"{prefix}.scan_mrows_per_s", self.scale.big_scan_rows / us, "Mrows/s", samples)
                self.put_us(f"{prefix}.insert_us",
                            lambda: transport.insert(peer, relation, rows))
            finally:
                transport.close()

    # -- columnar kernels --------------------------------------------------

    def columnar_layer(self) -> None:
        rng = random.Random(f"e2e:kernels:{self.seed}")
        size = self.scale.kernel_rows
        keys = list(range(size))
        rng.shuffle(keys)
        left_rows = [(rng.randrange(5000), rng.randrange(size)) for _ in range(size)]
        right_rows = [(key, rng.randrange(50)) for key in keys]

        def rate(call, rows: int) -> Tuple[float, str, int]:
            us, samples = timed_us(call, 5)
            return rows / us, "Mrows/s", samples

        self.put("columnar.from_rows_mrows_per_s",
                 *rate(lambda: ColumnTable.from_rows(("a", "b"), left_rows), size))
        left = ColumnTable.from_rows(("a", "b"), left_rows)
        right = ColumnTable.from_rows(("b", "c"), right_rows)
        self.put("columnar.join_mrows_per_s",
                 *rate(lambda: left.natural_join(right), 2 * size))
        self.put("columnar.select_mrows_per_s",
                 *rate(lambda: left.fused_select(const_filters=[(0, 7)]), size))
        duplicated = ColumnTable.from_rows(
            ("a", "c"), [(a % 1000, c) for (a, _), (_, c) in zip(left_rows, right_rows)])
        self.put("columnar.distinct_mrows_per_s", *rate(duplicated.distinct, size))

    # -- the program's own tracer -----------------------------------------

    def observability(self, fixture: wl.Fixture, site: fx.Site) -> None:
        """Tracing-on cost on warm in-process reads; self time per span
        kind of the program's tracer on fully cold socket-cluster answers."""
        tracer = Tracer(enabled=True, sample_rate=1.0, max_traces=100_000)
        pairs = [
            (fixture.deployments[index], query)
            for index, site_ in enumerate(fixture.sites) if site_.has_data
            for query in site_.queries
        ]
        seconds = {False: [], True: []}
        try:
            for deployment, query in pairs:
                deployment.answer(query)
            for _ in range(2 * self.repeats(pairs)):
                for tracing in (False, True):
                    set_tracer(tracer if tracing else None)
                    for deployment, query in pairs:
                        start = time.perf_counter()
                        deployment.answer(query)
                        seconds[tracing].append(time.perf_counter() - start)
            self.put("obs.trace_on_ratio",
                     statistics.median(seconds[True]) / statistics.median(seconds[False]),
                     "ratio", len(seconds[True]))

            cluster = self.cluster(site, AsyncSocketTransport)
            tracer = Tracer(enabled=True, sample_rate=1.0, max_traces=100_000)
            set_tracer(tracer)
            for _ in range(self.repeats(site.queries)):
                for query in site.queries:
                    self.check_deadline()
                    self.attempted += 1
                    cluster.service.clear_cache()
                    cluster.drop_scans()
                    cluster.answer(query)
        finally:
            set_tracer(None)
        spans: List[Span] = []
        trace_ids = tracer.trace_ids()
        for op_id, trace_id in enumerate(trace_ids):
            for record in tracer.trace(trace_id):
                start = record["start_ns"] / 1e9
                spans.append(Span(record["span_id"], record["parent_id"], op_id,
                                  record["name"], start, start + record["duration_us"] / 1e6))
        own = self_time_by_name(spans)
        for kind in OBS_KINDS:
            self.put(f"obs.self_ms.{kind}",
                     sum(own.get(kind, ())) / max(1, len(trace_ids)) * 1e3, "ms", len(trace_ids))

    # -- host --------------------------------------------------------------

    def host_layer(self) -> None:
        self.put("host.cpu_count", os.cpu_count() or 0, "count", 1)
        self.put("proc.peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.log.spans], handle)
