"""The four workloads: seeded request sequences and how each tier runs them.

A workload is a fixed-length request sequence plus the system it runs
against. The sequence is a chain of blocks, and every block is the same
multiset of requests: key popularity is zipfian, the key of rank ``r``
appearing about ``1/r`` as often as the first, by fixed multiplicities
rather than random draws. ``--seed`` shuffles each block (and writes the
served workloads' ingested text), so seeds change the order of the work,
never its amount. The corpus and configuration never change.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from pathlib import Path
from typing import Any, Callable, Sequence
from urllib.parse import quote

from repro.api import schema
from repro.api.registries import DATASETS
from repro.api.session import BatchReport, Session
from repro.datasets.vocab import WIKIPEDIA_SENSES
from repro.errors import ReproError
from repro.store import DocumentStore
from repro.tenancy import TENANT_HEADER, TenantRegistry, TenantSpec
from repro.text.analyzer import Analyzer

from benchmarks.system.client import HttpClient
from benchmarks.system.layers import SelfTimer

#: The ten ambiguous Wikipedia query terms, in popularity-rank order.
TERMS: tuple[str, ...] = tuple(sorted(WIKIPEDIA_SENSES))
ALGORITHMS = ("iskr", "pebc")
#: The corpus never varies with --seed (see module docstring).
CORPUS_SEED = 0
CONFIG = "bench"
TENANT = "bench"

_EXPAND_KEYS = tuple((term, alg) for term in TERMS for alg in ALGORITHMS)


def sequence_digest(sequence: Sequence[Any]) -> str:
    """sha256 of the sequence's canonical JSON (same seed, same digest)."""
    blob = json.dumps(sequence, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _zipf(rng: random.Random, population: Sequence[Any]) -> Any:
    """One draw, item ``i`` (0-based rank) weighted ``1 / (i + 1)``."""
    weights = [1.0 / (rank + 1) for rank in range(len(population))]
    return rng.choices(population, weights=weights)[0]


def _zipf_distinct(rng: random.Random, population: Sequence[Any], k: int) -> list:
    """``k`` distinct zipf draws, in draw order."""
    chosen: list = []
    while len(chosen) < k:
        item = _zipf(rng, population)
        if item not in chosen:
            chosen.append(item)
    return chosen


def _zipf_multiset(items: Sequence[Any], total: int) -> list:
    """``total`` copies spread over ``items`` in proportion to ``1 / rank``.

    Largest-remainder rounding, so the counts sum to ``total`` exactly;
    the least popular items may get none.
    """
    weights = [1.0 / (rank + 1) for rank in range(len(items))]
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [item for item, count in zip(items, counts) for _ in range(count)]


def _blocks(length: int, block: list, rng: random.Random) -> list:
    """``length`` items: repeated copies of ``block``, each shuffled."""
    items: list = []
    while len(items) < length:
        chunk = list(block)
        rng.shuffle(chunk)
        items.extend(chunk)
    return items[:length]


def _and_queries() -> tuple[str, ...]:
    """30 AND queries: each term with its senses' leading words."""
    out = [
        f"{term} {core[rank]}"
        for rank in range(3)
        for term in TERMS
        for _, core in WIKIPEDIA_SENSES[term]
    ]
    return tuple(out[:30])


def _or_queries() -> tuple[str, ...]:
    """30 OR queries of 2-4 zipf-drawn terms (a fixed, unseeded draw)."""
    rng = random.Random("or-queries")
    out: list[str] = []
    while len(out) < 30:
        terms = _zipf_distinct(rng, TERMS, rng.randint(2, 4))
        query = " ".join(sorted(terms))
        if query not in out:
            out.append(query)
    return tuple(out)


def _batches() -> tuple[tuple[str, ...], ...]:
    """16 /batch query lists of 4 zipf-drawn terms (fixed, unseeded)."""
    rng = random.Random("batches")
    out: list[tuple[str, ...]] = []
    while len(out) < 16:
        batch = tuple(_zipf_distinct(rng, TERMS, 4))
        if batch not in out:
            out.append(batch)
    return tuple(out)


AND_QUERIES = _and_queries()
OR_QUERIES = _or_queries()
BATCHES = _batches()


class Workload:
    """What the harness needs from a workload, with the common defaults.

    A subclass sets ``name``, ``length`` (ops in the sequence), ``block``
    (ops per block) and ``sizing_ops_per_s``: the ops per second it ran
    at on the reference machine when the benchmark was defined, which
    turns ``--seconds`` into a fixed number of blocks. It implements
    ``sequence(seed)``, ``setup(workdir)``, ``close()``, ``connect()``
    (the caller's connection, or None), ``prefill(sequence)`` (untimed;
    every distinct op once, checked; returns ``(ops, failures)``) and
    ``execute(client, op)`` returning ``(class, seconds, ok, edge
    seconds or None)``.
    """

    name: str
    length: int
    block: int
    sizing_ops_per_s: float

    def __init__(self) -> None:
        #: Eq. 1 scores of the distinct expansions seen in the prefill.
        self.eq1_scores: list[float] = []

    def trace(self, timer: SelfTimer) -> Callable[[], None]:
        """Install workload-specific wrappers; returns their undo."""
        return lambda: None

    def cache_counts(self) -> tuple[int, int]:
        """Response-cache ``(hits, misses)`` so far."""
        return 0, 0

    def feed_health(self) -> tuple[float, float]:
        """``(max replica feed lag, snapshot fallbacks)``."""
        return 0.0, 0.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process workloads ----------------------------------------------------


class _InProcess(Workload):
    """A :class:`Session` over the wikipedia corpus at 400 docs per sense."""

    def __init__(self) -> None:
        super().__init__()
        self.session: Session | None = None
        self.expected: dict[Any, Any] = {}

    def setup(self, workdir: Path) -> None:
        self.session = (
            Session.builder()
            .dataset("wikipedia", docs_per_sense=400)
            .seed(CORPUS_SEED)
            .config(n_clusters=4, top_k_results=100)
            .build()
        )

    def close(self) -> None:
        self.session = None

    def connect(self) -> None:
        return None


class ExpandCold(_InProcess):
    """Every call pays the whole method: caches are cleared before each."""

    name = "expand_cold"
    length = 2000
    block = len(_EXPAND_KEYS)
    sizing_ops_per_s = 60.0

    def sequence(self, seed: int) -> list:
        block = [["expand", term, alg] for term, alg in _EXPAND_KEYS]
        return _blocks(self.length, block, random.Random(f"{self.name}:{seed}"))

    @staticmethod
    def _signature(report: Any) -> tuple:
        return tuple(eq.terms for eq in report.expanded), report.score

    def prefill(self, sequence: Sequence[Any]) -> tuple[int, list[str]]:
        ops = _distinct(sequence)
        failures = []
        for _, term, alg in ops:
            report = self.session.expand(term, algorithm=alg)
            payload = schema.report_to_dict(report)
            again = schema.report_to_dict(schema.report_from_dict(payload))
            if schema.report_content(again) != schema.report_content(payload):
                failures.append(f"expand {term}/{alg}: schema round trip differs")
            if not report.expanded or not 0.0 < report.score <= 1.0:
                failures.append(f"expand {term}/{alg}: empty or out-of-range report")
            self.expected[(term, alg)] = self._signature(report)
            self.eq1_scores.append(report.score)
        return len(ops), failures

    def execute(self, client: None, op: Sequence[Any]) -> tuple:
        _, term, alg = op
        self.session.clear_caches()
        start = time.perf_counter()
        report = self.session.expand(term, algorithm=alg)
        seconds = time.perf_counter() - start
        ok = self._signature(report) == self.expected[(term, alg)]
        return "expand", seconds, ok, None


class SearchMix(_InProcess):
    """Ranked OR and AND retrieval; the retrieval cache is cleared each call."""

    name = "search_mix"
    length = 5000
    block = 100
    sizing_ops_per_s = 110.0

    def sequence(self, seed: int) -> list:
        # 60% OR, 40% AND: with OR the majority, the pooled median is an
        # OR latency instead of falling in the gap between the two modes.
        block = [["search_or", q] for q in _zipf_multiset(OR_QUERIES, 60)]
        block += [["search_and", q] for q in _zipf_multiset(AND_QUERIES, 40)]
        return _blocks(self.length, block, random.Random(f"{self.name}:{seed}"))

    def _search(self, cls: str, query: str) -> list:
        return self.session.search(query, top_k=10, semantics=cls[len("search_"):])

    def prefill(self, sequence: Sequence[Any]) -> tuple[int, list[str]]:
        ops = _distinct(sequence)
        failures = []
        for cls, query in ops:
            results = self._search(cls, query)
            terms = self.session.engine.parse(query)
            match = all if cls == "search_and" else any
            ranked = sorted(results, key=lambda r: (-r.score, r.position))
            if not 1 <= len(results) <= 10 or ranked != results:
                failures.append(f"{cls} {query!r}: {len(results)} results, bad order")
            elif not all(match(t in r.document.terms for t in terms) for r in results):
                failures.append(f"{cls} {query!r}: a result does not match the query")
            self.expected[query] = [r.position for r in results]
        return len(ops), failures

    def execute(self, client: None, op: Sequence[Any]) -> tuple:
        cls, query = op
        self.session.engine.cache_clear()
        start = time.perf_counter()
        results = self._search(cls, query)
        seconds = time.perf_counter() - start
        return cls, seconds, [r.position for r in results] == self.expected[query], None


# -- served workloads --------------------------------------------------------


#: The 199 reads of every served block, after its leading /ingest:
#: 123 /expand, 30 AND and 30 OR /search, and 16 /batch of 4 terms.
_SERVE_READS = (
    [["expand", term, alg] for term, alg in _zipf_multiset(_EXPAND_KEYS, 123)]
    + [["search_and", q] for q in _zipf_multiset(AND_QUERIES, 30)]
    + [["search_or", q] for q in _zipf_multiset(OR_QUERIES, 30)]
    + [["batch", list(batch)] for batch in BATCHES]
)
_INGEST_DOCS = 5


class _Served(Workload):
    """The store-backed config behind one keep-alive HTTP connection."""

    length = 4000
    block = len(_SERVE_READS) + 1
    #: Whether the server has a tenant registry and every request names
    #: tenant ``bench`` (rate limit set high enough never to shed).
    tenant = True

    def __init__(self) -> None:
        super().__init__()
        self.server: Any = None
        self.corpus: Any = None
        self.reference: Session | None = None
        self._reports: dict[tuple[str, str], dict[str, Any]] = {}

    def sequence(self, seed: int) -> list:
        # serve_mixed and cluster_mixed share one sequence per seed.
        rng = random.Random(f"served:{seed}")
        seq: list = []
        for index in range(self.length // self.block):
            # The ingest leads its block, so every block (and a run, which
            # starts at position 0) begins by invalidating the cache.
            seq.append(["ingest", _ingest_docs(rng, index)])
            seq.extend(_blocks(len(_SERVE_READS), _SERVE_READS, rng))
        return seq

    def setup(self, workdir: Path) -> None:
        self.corpus = DATASETS.create(
            "wikipedia",
            seed=CORPUS_SEED,
            analyzer=Analyzer(use_stemming=False),
            docs_per_sense=40,
        )
        path = workdir / "source.sqlite"
        with DocumentStore(path) as store:
            store.upsert_all(list(self.corpus))
        self.server = self._start(f"{CONFIG}:store={path},k=4")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def connect(self) -> HttpClient:
        headers = {TENANT_HEADER: TENANT} if self.tenant else {}
        return HttpClient(self.server.host, self.server.port, headers)

    # -- requests ------------------------------------------------------------

    @staticmethod
    def _request(op: Sequence[Any]) -> tuple[str, str, Any]:
        cls = op[0]
        if cls == "expand":
            return (
                "GET",
                f"/expand?config={CONFIG}&query={quote(op[1])}"
                f"&algorithm={op[2]}&results=none",
                None,
            )
        if cls in ("search_and", "search_or"):
            return (
                "GET",
                f"/search?config={CONFIG}&query={quote(op[1])}"
                f"&semantics={cls[len('search_'):]}&top_k=10",
                None,
            )
        if cls == "batch":
            return "POST", "/batch", {"config": CONFIG, "queries": op[1]}
        return "POST", "/ingest", {"config": CONFIG, "documents": op[1]}

    @staticmethod
    def _parse(op: Sequence[Any], status: int, data: bytes) -> tuple[dict, float]:
        """Validate one response through the schema readers.

        Returns ``(body, handler seconds)``; raises on anything malformed.
        """
        if status not in (200, 202):
            raise ValueError(f"HTTP {status}: {data[:200]!r}")
        body = json.loads(data)
        cls = op[0]
        if cls == "expand":
            report = schema.report_from_dict(body["report"])
            if report.seed_query != op[1] or body["algorithm"] != op[2]:
                raise ValueError("expand response echoes another request")
            return body, float(body["seconds"])
        if cls in ("search_and", "search_or"):
            results = [schema.search_result_from_dict(r) for r in body["results"]]
            if not 1 <= len(results) <= 10:
                raise ValueError(f"search returned {len(results)} results")
            return body, float(body["seconds"])
        if cls == "batch":
            report = BatchReport.from_dict(body["report"])
            if report.n_failed or [i.query for i in report.items] != list(op[1]):
                raise ValueError("batch has failed or misordered items")
            return body, report.seconds
        if int(body["ingested"]) != len(op[1]):
            raise ValueError(f"ingest accepted {body['ingested']} documents")
        return body, float(body["seconds"])

    def execute(self, client: HttpClient, op: Sequence[Any]) -> tuple:
        method, target, payload = self._request(op)
        start = time.perf_counter()
        status, data = client.request(method, target, payload)
        seconds = time.perf_counter() - start
        try:
            _, handler = self._parse(op, status, data)
        except (ReproError, KeyError, TypeError, ValueError):
            return op[0], seconds, False, None
        return op[0], seconds, True, seconds - handler

    # -- correctness against an in-process memory-backend session ------------

    def _reference_report(self, term: str, alg: str) -> dict[str, Any]:
        key = (term, alg)
        if key not in self._reports:
            report = self.reference.expand(term, algorithm=alg)
            self._reports[key] = json.loads(json.dumps(schema.report_to_dict(report)))
        return self._reports[key]

    @staticmethod
    def _content(report: dict[str, Any]) -> dict[str, Any]:
        return {
            k: v for k, v in schema.report_content(report).items() if k != "results"
        }

    @staticmethod
    def _doc_ids(results: list[dict[str, Any]]) -> list[str]:
        return [r["document"]["doc_id"] for r in results]

    def prefill(self, sequence: Sequence[Any]) -> tuple[int, list[str]]:
        """Every distinct read once, compared with the memory backend."""
        self.reference = (
            Session.builder()
            .corpus(self.corpus)
            .config(n_clusters=4, top_k_results=30)
            .build()
        )
        reads = [op for op in _distinct(sequence) if op[0] != "ingest"]
        failures = []
        client = self.connect()
        try:
            for op in reads:
                method, target, payload = self._request(op)
                status, data = client.request(method, target, payload)
                try:
                    body, _ = self._parse(op, status, data)
                    problem = self._compare(op, body)
                except (ReproError, KeyError, TypeError, ValueError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    failures.append(f"{op[0]} {op[1]!r}: {problem}")
        finally:
            client.close()
        return len(reads), failures

    def _compare(self, op: Sequence[Any], body: dict[str, Any]) -> str | None:
        cls = op[0]
        if cls == "expand":
            expected = self._reference_report(op[1], op[2])
            self.eq1_scores.append(float(body["report"]["score"]))
            if self._content(body["report"]) != self._content(expected):
                return "report differs from the memory-backend session"
        elif cls == "batch":
            for item in body["report"]["items"]:
                # Batch items run the config's default algorithm, iskr.
                expected = self._reference_report(item["query"], "iskr")
                if self._content(item["report"]) != self._content(expected) or (
                    self._doc_ids(item["report"]["results"])
                    != self._doc_ids(expected["results"])
                ):
                    return f"batch item {item['query']!r} differs from the memory backend"
        else:
            semantics = cls[len("search_"):]
            expected = [
                r.document.doc_id
                for r in self.reference.search(op[1], top_k=10, semantics=semantics)
            ]
            if self._doc_ids(body["results"]) != expected:
                return "result ids differ from the memory-backend session"
        return None


class ServeMixed(_Served):
    """Single-node HTTP: ``create_server`` in this process."""

    name = "serve_mixed"
    sizing_ops_per_s = 150.0

    def _start(self, spec: str) -> Any:
        from repro.serve import create_server

        registry = TenantRegistry()
        registry.create(TenantSpec(name=TENANT, qps=1e6))
        server = create_server(
            [spec], port=0, cache_size=1024, workers=2, tenants=registry
        ).start()
        server.service.pool.get(CONFIG)  # the session a first request needs
        return server

    def trace(self, timer: SelfTimer) -> Callable[[], None]:
        cache = self.server.service.cache
        cache.lookup = timer.wrap("serve.cache", cache.lookup)
        return lambda: vars(cache).pop("lookup", None)

    def cache_counts(self) -> tuple[int, int]:
        stats = self.server.service.cache.stats()
        return stats["hits"], stats["misses"]


class ClusterMixed(_Served):
    """The same sequence through a 2-replica ``--follow`` cluster."""

    name = "cluster_mixed"
    sizing_ops_per_s = 100.0
    # The coordinator's scatter/gather /batch forwards only config,
    # algorithm and workers to the replicas, so under a tenant registry
    # every /batch item fails with "tenant required". Until the tenant
    # rides along, this workload runs single-tenant.
    tenant = False

    def _start(self, spec: str) -> Any:
        from repro.serve.cluster import create_cluster

        return create_cluster(
            [spec],
            port=0,
            replicas=2,
            follow=True,
            queue_depth=64,
            cache_size=1024,
            workers=2,
        ).start()

    def _admin(self, path: str) -> dict[str, Any]:
        client = self.connect()
        try:
            status, data = client.request("GET", path)
        finally:
            client.close()
        if status != 200:
            raise ValueError(f"GET {path}: HTTP {status}")
        return json.loads(data)

    def cache_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for replica in self._admin("/metrics")["replicas"].values():
            stats = replica["cache"]["responses"]
            hits += stats["hits"]
            misses += stats["misses"]
        return hits, misses

    def feed_health(self) -> tuple[float, float]:
        lag = fallbacks = 0
        for replica in self._admin("/healthz")["replicas"].values():
            lag = max([lag, *replica.get("feed_lag", {}).values()])
            for stats in replica.get("feed", {}).values():
                fallbacks += stats["snapshot_fallbacks"]
        return float(lag), float(fallbacks)

    def peak_rss_mb(self) -> float:
        total = super().peak_rss_mb()
        for handle in self.server.coordinator.replicas.values():
            if handle.pid is None:
                continue
            status = Path(f"/proc/{handle.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total


def _ingest_docs(rng: random.Random, block: int) -> list[dict[str, str]]:
    """5 documents about one sense of a zipf-drawn term.

    Ids depend only on the block, so a run that wraps around the
    sequence rewrites the same documents instead of growing the corpus.
    """
    docs = []
    for i in range(_INGEST_DOCS):
        term = _zipf(rng, TERMS)
        _, core = rng.choice(WIKIPEDIA_SENSES[term])
        words = " ".join(rng.choice(core) for _ in range(20))
        docs.append({"doc_id": f"ingest-{block}-{i}", "text": f"{term} {words}"})
    return docs


def _distinct(sequence: Sequence[Any]) -> list:
    """The sequence's distinct ops in first-occurrence order."""
    seen: set[str] = set()
    out = []
    for op in sequence:
        key = json.dumps(op)
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ExpandCold, SearchMix, ServeMixed, ClusterMixed)
}
