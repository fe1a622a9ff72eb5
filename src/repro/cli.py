"""Command-line interface: search, expand, and reproduce from a shell.

Subcommands
-----------
search       run a keyword query over a synthetic corpus or a store
expand       generate expanded queries for a seed query
batch        expand many seed queries at once (JSON output)
serve        long-running JSON-over-HTTP expansion service
store        durable document store: init/ingest/delete/compact/snapshot/stats
interleave   §7 future work: alternate clustering and expansion
prf          compare pseudo-relevance-feedback schemes against ISKR
facets       faceted-search comparator over a seed query's results
experiment   run benchmark queries through the evaluation systems
scalability  the Figure-7 sweep
userstudy    the simulated rater panel over selected queries

Every subcommand goes through :class:`repro.api.Session`, so the
``--dataset``/``--scoring``/``--algorithm``/``--backend`` choices are
exactly the registered names in :mod:`repro.api.registries` — including
anything a plugin registers before calling :func:`main`.

Example::

    repro-qec expand --dataset wikipedia --query java --algorithm iskr -k 3
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.api import ALGORITHMS, BACKENDS, DATASETS, SCORERS, Session
from repro.datasets.queries import all_queries, query_by_id
from repro.errors import ReproError
from repro.eval.experiment import ALL_SYSTEMS, ExperimentSuite
from repro.eval.reporting import format_bar_chart, format_grouped_series, format_table
from repro.eval.scalability import run_scalability
from repro.eval.user_study import UserStudySimulator
from repro.snippets import generate_snippet


def _make_session(args: argparse.Namespace) -> Session:
    """One session from the common CLI flags, via the registry-driven builder."""
    builder = (
        Session.builder()
        .retrieval(getattr(args, "scoring", "tfidf"))
        .seed(args.seed)
    )
    backend = getattr(args, "backend", None)
    store_path = getattr(args, "store", None)
    if store_path is not None:
        from repro.errors import ConfigError
        from repro.store import DocumentStore

        if backend not in (None, "memory", "sqlite"):
            raise ConfigError(
                f"--store requires --backend sqlite, got {backend!r}"
            )
        store = DocumentStore(store_path)
        if len(store):
            # A populated store is the corpus (the restart path);
            # --dataset only seeds an empty store.
            builder.corpus(store.corpus())
        elif getattr(args, "dataset", None) is not None:
            builder.dataset(args.dataset)
        else:
            raise ConfigError(
                f"store at {store_path} is empty; pass --dataset to seed "
                f"it, or populate it first with 'repro store ingest'"
            )
        builder.backend("sqlite", store=store)
    else:
        if getattr(args, "dataset", None) is None:
            from repro.errors import ConfigError

            raise ConfigError("--dataset is required (unless --store is given)")
        builder.dataset(args.dataset)
        if backend is not None:
            builder.backend(backend)
    if getattr(args, "algorithm", None) is not None:
        builder.algorithm(args.algorithm)
    config: dict = {}
    if getattr(args, "k", None) is not None:
        config["n_clusters"] = args.k
    if getattr(args, "top", None) is not None:
        config["top_k_results"] = args.top if args.top > 0 else None
    return builder.config(**config).build()


def _cmd_search(args: argparse.Namespace) -> int:
    session = _make_session(args)
    engine = session.engine
    results = session.search(args.query, top_k=args.top)
    query_terms = tuple(engine.parse(args.query))
    rows = []
    for i, r in enumerate(results):
        last = (
            generate_snippet(r.document, query_terms, idf=engine.scorer.idf)[:70]
            if args.snippets
            else r.document.title[:60]
        )
        rows.append([i + 1, r.document.doc_id, f"{r.score:.4f}", last])
    print(
        format_table(
            ["rank", "doc", "score", "snippet" if args.snippets else "title"],
            rows,
            title=(
                f"{len(results)} results for {args.query!r} on "
                f"{args.dataset or f'store {args.store}'}"
            ),
        )
    )
    return 0


def _print_stage_timings(report) -> None:
    total = sum(t.seconds for t in report.stage_timings)
    print("stage timings:")
    for t in report.stage_timings:
        share = t.seconds / total if total > 0 else 0.0
        print(f"  {t.stage:12s} {t.seconds * 1e3:9.3f} ms  {share:6.1%}")
    print(f"  {'total':12s} {total * 1e3:9.3f} ms")


def _cmd_expand(args: argparse.Namespace) -> int:
    session = _make_session(args)
    report = session.expand(args.query)
    if args.show_results:
        from repro.eval.presentation import render_expansion_report

        print(render_expansion_report(report, idf=session.engine.scorer.idf))
        return 0
    if args.json:
        # --trace needs no extra output here: the versioned payload
        # already carries stage_timings (schema v2).
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"query={args.query!r} algorithm={args.algorithm} "
        f"results={report.n_results} clusters={report.n_clusters} "
        f"score={report.score:.3f}"
    )
    for eq in report.expanded:
        print(
            f"  [cluster {eq.cluster_id}, {eq.cluster_size} results, "
            f"F={eq.fmeasure:.3f}] {eq.display()}"
        )
    if args.trace:
        _print_stage_timings(report)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    session = _make_session(args)
    batch = session.expand_many(args.queries, workers=args.workers)
    if args.json:
        print(json.dumps(batch.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"batch: {batch.n_ok} ok, {batch.n_failed} failed, "
        f"{len(batch.items)} queries in {batch.seconds:.2f}s "
        f"({args.workers} workers)"
    )
    for item in batch.items:
        if item.ok:
            print(
                f"  {item.query!r}: score={item.report.score:.3f} "
                f"clusters={item.report.n_clusters} ({item.seconds:.2f}s)"
            )
        else:
            print(f"  {item.query!r}: {item.error_type}: {item.error_message}")
    return 0 if batch.n_failed == 0 else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.devtools import RULES, run_analysis

    if args.rules:
        for rule, (severity, description) in sorted(RULES.items()):
            print(f"{rule} ({severity}): {description}")
        return 0
    result = run_analysis(
        args.paths,
        baseline_path=None if args.no_baseline else args.baseline_file,
        update_baseline=args.baseline,
    )
    if args.json:
        print(result.render_json())
    else:
        print(result.render_text(verbose=args.verbose))
        if args.baseline:
            print(f"baseline written to {args.baseline_file}")
    return result.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import create_server

    try:
        server = create_server(
            args.configs,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            # 0 = never expire; negative values reach the service layer
            # and fail validation there, like every other bad option.
            cache_ttl=None if args.cache_ttl == 0 else args.cache_ttl,
            workers=args.workers,
            tenants=args.tenants,
            tracing=args.tracing,
            trace_capacity=args.trace_buffer,
            slow_threshold=args.slow_threshold,
            log_json=args.log_json,
        )
    except OSError as exc:
        # Bind failures (port in use, privileged port) get the same
        # one-line error + exit 2 as library errors.
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    ttl = f"{args.cache_ttl:g}s" if args.cache_ttl > 0 else "none"
    print(
        f"serving {', '.join(server.service.pool.names())} on {server.url} "
        f"(cache: {args.cache_size} entries, ttl {ttl}; "
        f"{args.workers} workers) — Ctrl-C to stop",
        flush=True,
    )
    # SIGTERM/SIGINT drain in-flight requests and release the store
    # connections before the process exits (graceful shutdown).
    server.install_signal_handlers()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler normally wins
        print("shutting down", flush=True)
    finally:
        server.stop()
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.serve import ServeConfig
    from repro.serve.cluster import ClusterServer, create_coordinator

    try:
        configs = [ServeConfig.parse(spec) for spec in args.configs]
        if args.store:
            # Convenience: point every config with no explicit store at
            # the shared source store (replicas snapshot it privately).
            configs = [
                dataclasses.replace(c, backend="sqlite", store=args.store)
                if c.store is None
                else c
                for c in configs
            ]
        coordinator = create_coordinator(
            configs,
            replicas=args.replicas,
            queue_depth=args.queue_depth,
            retry_after=args.retry_after,
            cache_size=args.cache_size,
            cache_ttl=None if args.cache_ttl == 0 else args.cache_ttl,
            workers=args.workers,
            follow=args.follow,
            feed_poll_interval=args.feed_poll_interval,
            compaction_interval=args.compaction_interval,
            changelog_keep=args.changelog_keep,
            tenants=args.tenants,
            tracing=args.tracing,
            trace_capacity=args.trace_buffer,
            slow_threshold=args.slow_threshold,
            log_json=args.log_json,
        )
        server = ClusterServer(coordinator, host=args.host, port=args.port)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(
        f"hydrating {args.replicas} replica(s) of "
        f"{', '.join(c.name for c in configs)} ...",
        flush=True,
    )
    try:
        coordinator.start()
    except Exception as exc:  # noqa: BLE001 — spawn/hydration failures
        print(f"error: cluster failed to start: {exc}", file=sys.stderr)
        coordinator.stop()
        return 2
    pids = ", ".join(
        f"{name}={handle.pid}" for name, handle in coordinator.replicas.items()
    )
    print(
        f"cluster serving on {server.url} (replicas: {pids}; "
        f"queue depth {args.queue_depth}/replica) — Ctrl-C to stop",
        flush=True,
    )
    server.install_signal_handlers()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler normally wins
        print("shutting down", flush=True)
    finally:
        server.stop()
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Fetch /debug/traces or /debug/slow from a running server."""
    import json as _json
    import urllib.error
    import urllib.parse
    import urllib.request

    base = args.url.rstrip("/")
    if args.obs_command == "slow":
        path, query = "/debug/slow", {"limit": args.limit}
    else:
        path, query = "/debug/traces", {"limit": args.limit}
        if args.min_duration is not None:
            query["min_duration"] = args.min_duration
        if args.status:
            query["status"] = args.status
        if args.tenant:
            query["for_tenant"] = args.tenant
    url = base + path + "?" + urllib.parse.urlencode(query)
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            payload = _json.loads(resp.read())
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(payload, indent=2))
        return 0
    if args.obs_command == "slow":
        entries = payload.get("slow", [])
        print(
            f"slow requests over {payload.get('threshold_seconds')}s: "
            f"{len(entries)} shown, {payload.get('captured', 0)} captured "
            f"of {payload.get('seen', 0)} seen"
        )
        for e in entries:
            tenant = f"  tenant={e['tenant']}" if e.get("tenant") else ""
            print(
                f"  {e.get('trace_id', '?'):<18} "
                f"{float(e.get('duration_seconds') or 0):8.3f}s  "
                f"{e.get('status', '?'):>3}  "
                f"{e.get('path') or e.get('name', '')}{tenant}"
            )
        return 0
    traces = payload.get("traces", [])
    tracing = "on" if payload.get("tracing") else "off"
    print(
        f"traces: {len(traces)} shown ({payload.get('held', 0)} held, "
        f"capacity {payload.get('capacity', 0)}, tracing {tracing})"
    )
    for t in traces:
        flag = "!" if t.get("status") == "error" else " "
        print(
            f"{flag} {t.get('trace_id', '?'):<18} "
            f"{float(t.get('duration_seconds') or 0):8.3f}s  "
            f"{t.get('name', ''):<14} spans={len(t.get('spans', []))}"
        )
        if args.spans:
            for s in t.get("spans", []):
                mark = "!" if s.get("status") == "error" else " "
                attrs = {
                    k: v for k, v in (s.get("attrs") or {}).items()
                    if v is not None
                }
                print(
                    f"    {mark} {s.get('name', ''):<20} "
                    f"{float(s.get('duration_seconds') or 0):8.4f}s  {attrs}"
                )
    return 0


def _cmd_tenant_create(args: argparse.Namespace) -> int:
    from repro.tenancy import TenantRegistry, TenantSpec

    stores = {}
    for item in args.store or []:
        config, sep, path = item.partition("=")
        if not sep or not config or not path:
            print(
                f"error: --store expects CONFIG=PATH, got {item!r}",
                file=sys.stderr,
            )
            return 2
        stores[config] = path
    registry = TenantRegistry(args.tenants)
    spec = registry.create(
        TenantSpec(
            name=args.name,
            configs=tuple(args.configs or ()),
            stores=stores,
            max_documents=args.max_documents,
            max_ingest_batch=args.max_ingest_batch,
            qps=args.qps,
            burst=args.burst,
            max_in_flight=args.max_in_flight,
        )
    )
    configs = ", ".join(spec.configs) if spec.configs else "all configs"
    print(f"created tenant {spec.name!r} ({configs}) in {registry.path}")
    return 0


def _cmd_tenant_list(args: argparse.Namespace) -> int:
    from repro.tenancy import TenantRegistry

    registry = TenantRegistry(args.tenants)
    if args.json:
        print(json.dumps(registry.describe(), indent=2, sort_keys=True))
        return 0
    rows = [
        [
            spec.name,
            ", ".join(spec.configs) or "*",
            spec.max_documents if spec.max_documents is not None else "-",
            f"{spec.qps:g}" if spec.qps is not None else "-",
            spec.max_in_flight if spec.max_in_flight is not None else "-",
        ]
        for spec in registry.specs()
    ]
    print(
        format_table(
            ["tenant", "configs", "max docs", "qps", "in-flight"],
            rows,
            title=f"{len(registry)} tenant(s) in {registry.path}",
        )
    )
    return 0


def _cmd_tenant_show(args: argparse.Namespace) -> int:
    from repro.tenancy import TenantRegistry

    spec = TenantRegistry(args.tenants).get(args.name)
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_tenant_set_quota(args: argparse.Namespace) -> int:
    from repro.tenancy import QUOTA_FIELDS, TenantRegistry

    changes = {
        name: getattr(args, name)
        for name in QUOTA_FIELDS
        if getattr(args, name) is not None
    }
    if not changes:
        print(
            "error: pass at least one quota flag (e.g. --max-documents, --qps)",
            file=sys.stderr,
        )
        return 2
    registry = TenantRegistry(args.tenants)
    spec = registry.update(args.name, **changes)
    print(
        f"updated tenant {spec.name!r}: "
        + ", ".join(f"{k}={v}" for k, v in sorted(changes.items()))
    )
    return 0


def _cmd_tenant_delete(args: argparse.Namespace) -> int:
    from repro.tenancy import TenantRegistry

    registry = TenantRegistry(args.tenants)
    registry.delete(args.name)
    print(f"deleted tenant {args.name!r} from {registry.path}")
    return 0


def _open_store(args: argparse.Namespace):
    from repro.store import DocumentStore

    return DocumentStore(args.store)


def _cmd_store_init(args: argparse.Namespace) -> int:
    store = _open_store(args)
    stats = store.stats()
    print(
        f"store {stats['path']}: schema v{stats['schema_version']}, "
        f"{stats['live_documents']} live documents, "
        f"generation {stats['generation']}"
    )
    return 0


def _iter_jsonl_documents(path: str, analyzer):
    from repro.data.documents import document_from_payload
    from repro.errors import DataError, SchemaError

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: bad JSON: {exc}") from None
            try:
                yield document_from_payload(payload, analyzer=analyzer)
            except (DataError, SchemaError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from repro.api import DATASETS
    from repro.text.analyzer import Analyzer

    store = _open_store(args)
    # The non-stemming analyzer matches the session builder's default,
    # so a store ingested here answers session queries verbatim.
    analyzer = Analyzer(use_stemming=False)
    if args.jsonl is not None:
        documents = list(_iter_jsonl_documents(args.jsonl, analyzer))
    else:
        documents = list(
            DATASETS.create(args.dataset, seed=args.seed, analyzer=analyzer)
        )
    positions = store.upsert_all(documents)
    print(
        f"ingested {len(positions)} documents into {store.path} "
        f"(generation {store.generation}, {store.num_live} live)"
    )
    return 0


def _cmd_store_delete(args: argparse.Namespace) -> int:
    store = _open_store(args)
    positions = store.delete_all(args.doc_ids)
    print(
        f"tombstoned {len(positions)} documents in {store.path} "
        f"({store.num_live} live remain); run 'repro store compact' "
        f"to reclaim space"
    )
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    store = _open_store(args)
    before = store.stats()["file_bytes"]
    dropped = store.compact()
    after = store.stats()["file_bytes"]
    print(
        f"compacted {store.path}: dropped {dropped['postings_dropped']} "
        f"postings and {dropped['terms_dropped']} terms, "
        f"{before} -> {after} bytes"
    )
    return 0


def _cmd_store_snapshot(args: argparse.Namespace) -> int:
    store = _open_store(args)
    dest = store.snapshot(args.dest)
    print(f"snapshot of {store.path} (generation {store.generation}) -> {dest}")
    return 0


def _cmd_store_tail(args: argparse.Namespace) -> int:
    import os
    import time as _time

    from repro.feed import Changefeed

    if not os.path.exists(args.store):
        print(f"error: no document store at {args.store}", file=sys.stderr)
        return 2
    feed = Changefeed(args.store)
    since = args.since
    printed = 0
    try:
        while True:
            batch = feed.read_since(
                since, limit=args.limit, consumer=args.consumer
            )
            if batch.gap:
                print(
                    f"gap: generations {since + 1}..{batch.floor} were "
                    f"truncated by compaction; resuming from the floor "
                    f"(a replica would re-hydrate from a snapshot here)",
                    file=sys.stderr,
                )
                since = batch.floor
                continue
            for entry in batch:
                if args.json:
                    print(json.dumps(entry.to_dict(), sort_keys=True))
                else:
                    ids = ", ".join(entry.doc_ids[:5])
                    if len(entry.doc_ids) > 5:
                        ids += f", ... ({len(entry.doc_ids)} total)"
                    detail = f" [{ids}]" if ids else ""
                    print(f"generation {entry.generation}: {entry.kind}{detail}")
                printed += 1
            since = batch.last_generation
            if batch.exhausted:
                if not args.follow:
                    break
                _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        feed.close()
    if not args.json:
        print(
            f"tailed {printed} records from {args.store} "
            f"(through generation {since})",
            file=sys.stderr,
        )
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    stats = _open_store(args).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    rows = [[key, stats[key]] for key in sorted(stats)]
    print(format_table(["field", "value"], rows, title=f"store {stats['path']}"))
    return 0


def _cmd_interleave(args: argparse.Namespace) -> int:
    session = _make_session(args)
    report = session.expand_interleaved(args.query, max_rounds=args.rounds)
    print(
        f"query={args.query!r} rounds={len(report.rounds)} "
        f"converged={report.converged} initial={report.initial_score:.3f} "
        f"final={report.final_score:.3f} ({report.improvement:+.3f})"
    )
    for rnd in report.rounds:
        marker = " *" if rnd.round_index == report.best_round else ""
        print(
            f"  round {rnd.round_index}: score={rnd.score:.3f} "
            f"moved={rnd.n_moved}{marker}"
        )
    for text in report.queries():
        print(f"  {text}")
    return 0


def _cmd_prf(args: argparse.Namespace) -> int:
    from repro.prf.comparison import compare_suggesters
    from repro.prf.kld import KLDivergencePRF
    from repro.prf.robertson import RobertsonPRF
    from repro.prf.rocchio import RocchioPRF

    session = _make_session(args)
    prf = [
        RocchioPRF(n_feedback=args.feedback, n_queries=args.k),
        KLDivergencePRF(n_feedback=args.feedback, n_queries=args.k),
        RobertsonPRF(n_feedback=args.feedback, n_queries=args.k),
    ]
    top_k = args.top if args.top > 0 else None
    comparisons = compare_suggesters(
        session.engine, args.query, prf, n_clusters=args.k, top_k_results=top_k,
        seed=args.seed,
    )
    rows = [
        [c.system, f"{c.coverage:.3f}", f"{c.diversity:.3f}",
         " | ".join(", ".join(q) for q in c.queries)]
        for c in comparisons
    ]
    print(
        format_table(
            ["system", "coverage", "diversity", "suggestions"],
            rows,
            title=f"PRF vs ISKR for {args.query!r} on {args.dataset}",
        )
    )
    return 0


def _cmd_facets(args: argparse.Namespace) -> int:
    from repro.facets.comparator import FacetedSearchComparator

    session = _make_session(args)
    ctx = session.run_stages(args.query, until="tasks")
    out = FacetedSearchComparator().suggest(
        ctx.seed_terms, ctx.universe, [t.cluster_mask for t in ctx.tasks]
    )
    if out.is_empty:
        print(f"no facets extractable from the results of {args.query!r}")
        return 0
    print(
        f"best facet: {out.facet_key}  Eq.1={out.score:.3f} "
        f"coverage={out.coverage:.3f}"
    )
    for query, f in zip(out.queries, out.fmeasures):
        print(f"  [F={f:.3f}] {', '.join(query)}")
    return 0


def _resolve_queries(qids: list[str]):
    if not qids:
        return all_queries()
    return tuple(query_by_id(qid) for qid in qids)


def _cmd_experiment(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(seed=args.seed)
    queries = _resolve_queries(args.queries)
    systems = tuple(args.systems) if args.systems else ALL_SYSTEMS
    experiments = suite.run_all(systems=systems, queries=queries)
    labels = [e.query.qid for e in experiments]
    score_series = {
        s: [
            e.runs[s].score if e.runs[s].score is not None else float("nan")
            for e in experiments
        ]
        for s in systems
        if any(e.runs[s].score is not None for e in experiments)
    }
    if score_series:
        print(format_grouped_series(labels, score_series, title="Eq. 1 scores"))
    time_series = {s: [e.runs[s].seconds for e in experiments] for s in systems}
    print()
    print(format_grouped_series(labels, time_series, title="expansion time (s)"))
    if args.show_queries:
        for e in experiments:
            print(f"\n{e.query.qid} ({e.query.text!r}):")
            for s in systems:
                for text in e.runs[s].display_queries():
                    print(f"  {s:10s} {text}")
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    points = run_scalability(
        sizes=tuple(args.sizes), seed=args.seed, backend=args.backend
    )
    rows = [[p.n_results, p.iskr_seconds, p.pebc_seconds] for p in points]
    print(
        format_table(
            ["results", "ISKR (s)", "PEBC (s)"],
            rows,
            title=f"scalability (clustering + expansion, {args.backend} backend)",
        )
    )
    return 0


def _cmd_userstudy(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(seed=args.seed)
    queries = _resolve_queries(args.queries)
    experiments = suite.run_all(queries=queries)
    study = UserStudySimulator(n_users=args.users, seed=args.seed).evaluate(
        experiments
    )
    print(
        format_bar_chart(
            sorted(study.individual_scores.items()),
            max_value=5.0,
            title="individual query scores (1-5)",
        )
    )
    print()
    print(
        format_bar_chart(
            sorted(study.collective_scores.items()),
            max_value=5.0,
            title="collective query scores (1-5)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qec",
        description="Query Expansion Based on Clustered Results (VLDB 2011) — reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    # "xml" needs a documents mapping no CLI flag can supply; every other
    # registered dataset (including plugin ones) is constructible here.
    datasets = tuple(n for n in DATASETS.names() if n != "xml")
    scorers = SCORERS.names()
    algorithms = ALGORITHMS.names()
    backends = BACKENDS.names()

    def add_backend_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend", choices=backends, default="memory",
            help="index storage backend (default: memory)",
        )

    def add_store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", metavar="PATH", default=None,
            help="SQLite document store path (implies --backend sqlite; a "
                 "populated store replaces --dataset, an empty one is "
                 "seeded from it)",
        )

    p = sub.add_parser("search", help="run a keyword query")
    p.add_argument("--dataset", choices=datasets)
    p.add_argument("--query", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--scoring", choices=scorers, default="tfidf")
    add_backend_flags(p)
    add_store_flag(p)
    p.add_argument(
        "--snippets", action="store_true",
        help="show query-biased snippets instead of titles",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("expand", help="generate expanded queries")
    p.add_argument("--dataset", choices=datasets)
    p.add_argument("--query", required=True)
    p.add_argument("--algorithm", choices=algorithms, default="iskr")
    p.add_argument("-k", type=int, default=3, help="cluster granularity")
    p.add_argument(
        "--top", type=int, default=30,
        help="results to expand over (0 = all results)",
    )
    p.add_argument("--scoring", choices=scorers, default="tfidf")
    add_backend_flags(p)
    add_store_flag(p)
    output = p.add_mutually_exclusive_group()
    output.add_argument(
        "--show-results", action="store_true",
        help="render each cluster's top results with query-biased snippets",
    )
    output.add_argument(
        "--json", action="store_true",
        help="emit the versioned JSON report instead of text",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="print per-stage wall-clock timings (always present in --json)",
    )
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("batch", help="expand many seed queries at once")
    p.add_argument("--dataset", choices=datasets, required=True)
    p.add_argument("--queries", nargs="+", required=True, help="seed queries")
    p.add_argument("--algorithm", choices=algorithms, default="iskr")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--scoring", choices=scorers, default="tfidf")
    add_backend_flags(p)
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    p.add_argument(
        "--json", action="store_true",
        help="emit the versioned JSON batch report instead of text",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve", help="run the JSON-over-HTTP expansion service"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 = OS-assigned, printed at startup)",
    )
    p.add_argument(
        "--configs", nargs="+", metavar="SPEC",
        default=["default:dataset=wikipedia"],
        help="named session configs, each 'name:key=value,...' "
             "(keys: dataset, algorithm, clusterer, scoring, backend, "
             "k, top, semantics, seed, store)",
    )
    p.add_argument(
        "--cache-size", type=int, default=1024,
        help="response cache capacity in entries (default: 1024)",
    )
    p.add_argument(
        "--cache-ttl", type=float, default=0.0,
        help="response cache TTL in seconds (0 = entries never expire)",
    )
    p.add_argument(
        "--workers", type=int, default=4,
        help="max concurrently computed (cache-missing) requests",
    )
    p.add_argument(
        "--tenants", metavar="PATH", default=None,
        help="tenants JSON file (see 'repro tenant'); switches the "
             "service to multi-tenant mode — data routes then require "
             "?tenant= or the X-Repro-Tenant header",
    )

    def add_obs_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--tracing", action=argparse.BooleanOptionalAction, default=True,
            help="per-request tracing: X-Repro-Trace propagation, "
                 "/debug/traces, the slow-request log (--no-tracing "
                 "turns the request root span off; see 'repro obs')",
        )
        sp.add_argument(
            "--trace-buffer", type=int, default=256, metavar="N",
            help="finished traces held for /debug/traces (default: 256)",
        )
        sp.add_argument(
            "--slow-threshold", type=float, default=0.25, metavar="SECS",
            help="requests at least this long enter the always-on slow "
                 "log at /debug/slow (default: 0.25)",
        )
        sp.add_argument(
            "--log-json", action="store_true",
            help="emit one structured JSON line per request (and per "
                 "shed decision) on stderr",
        )

    add_obs_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cluster",
        help="multi-process replicated serving (consistent-hash routing, "
             "snapshot hydration, admission control)",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)
    cp = cluster_sub.add_parser(
        "serve", help="run a coordinator fronting N replica processes"
    )
    cp.add_argument("--host", default="127.0.0.1", help="bind address")
    cp.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 = OS-assigned, printed at startup)",
    )
    cp.add_argument(
        "--replicas", type=int, default=2,
        help="replica worker processes (default: 2)",
    )
    cp.add_argument(
        "--configs", nargs="+", metavar="SPEC",
        default=["default:dataset=wikipedia"],
        help="named session configs, each 'name:key=value,...' "
             "(same keys as 'repro serve')",
    )
    cp.add_argument(
        "--store", metavar="PATH", default=None,
        help="source document store; configs without an explicit store "
             "are pointed at it (each replica hydrates from a private "
             "snapshot, and re-hydrates from a fresh one on restart)",
    )
    cp.add_argument(
        "--queue-depth", type=int, default=16,
        help="per-replica in-flight bound; beyond it requests are shed "
             "with 429 + Retry-After (default: 16)",
    )
    cp.add_argument(
        "--retry-after", type=float, default=1.0,
        help="seconds advertised in shed responses (default: 1.0)",
    )
    cp.add_argument(
        "--cache-size", type=int, default=1024,
        help="per-replica response cache capacity (default: 1024)",
    )
    cp.add_argument(
        "--cache-ttl", type=float, default=0.0,
        help="per-replica response cache TTL (0 = never expire)",
    )
    cp.add_argument(
        "--workers", type=int, default=4,
        help="per-replica max concurrently computed requests",
    )
    cp.add_argument(
        "--follow", action=argparse.BooleanOptionalAction, default=False,
        help="replicas tail the source store's changefeed and converge "
             "on live /ingest incrementally; also starts background "
             "compaction of the source store (default: off — replicas "
             "serve their hydration snapshot until restarted)",
    )
    cp.add_argument(
        "--feed-poll-interval", type=float, default=0.25, metavar="SECS",
        help="replica changefeed poll interval with --follow (default: 0.25)",
    )
    cp.add_argument(
        "--compaction-interval", type=float, default=5.0, metavar="SECS",
        help="background compaction check period with --follow (default: 5)",
    )
    cp.add_argument(
        "--changelog-keep", type=int, default=64, metavar="N",
        help="trailing changelog records always retained by background "
             "truncation with --follow (default: 64)",
    )
    cp.add_argument(
        "--tenants", metavar="PATH", default=None,
        help="tenants JSON file (see 'repro tenant'); the coordinator "
             "enforces per-tenant rate limits, quotas, and config "
             "allow-lists at the cluster's edge",
    )
    add_obs_flags(cp)
    cp.set_defaults(func=_cmd_cluster_serve)

    p = sub.add_parser(
        "obs",
        help="inspect a running server's observability endpoints: "
             "recent traces (/debug/traces) and the slow-request log "
             "(/debug/slow)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    def add_obs_common(op: argparse.ArgumentParser) -> None:
        op.add_argument(
            "--url", default="http://127.0.0.1:8080",
            help="server base URL — serve or cluster tier "
                 "(default: http://127.0.0.1:8080)",
        )
        op.add_argument(
            "--limit", type=int, default=20,
            help="max entries to show (default: 20)",
        )
        op.add_argument(
            "--timeout", type=float, default=10.0, metavar="SECS",
            help="HTTP timeout (default: 10)",
        )
        op.add_argument(
            "--json", action="store_true",
            help="print the raw JSON payload instead of the summary",
        )

    op = obs_sub.add_parser(
        "traces", help="recent finished traces, newest first"
    )
    add_obs_common(op)
    op.add_argument(
        "--min-duration", type=float, default=None, metavar="SECS",
        help="only traces at least this long",
    )
    op.add_argument(
        "--status", default=None, choices=("ok", "error"),
        help="filter by root span status",
    )
    op.add_argument("--tenant", default=None, help="filter by tenant name")
    op.add_argument(
        "--spans", action="store_true",
        help="also print each trace's spans",
    )
    op.set_defaults(func=_cmd_obs)

    op = obs_sub.add_parser(
        "slow", help="the always-on slow-request log"
    )
    add_obs_common(op)
    op.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "tenant",
        help="manage the multi-tenant registry: create, list, show, "
             "set-quota, delete",
    )
    tenant_sub = p.add_subparsers(dest="tenant_command", required=True)

    def add_tenants_path(tp: argparse.ArgumentParser) -> None:
        tp.add_argument(
            "--tenants", metavar="PATH", required=True,
            help="tenants JSON file (created if missing)",
        )

    def add_quota_flags(tp: argparse.ArgumentParser) -> None:
        tp.add_argument(
            "--max-documents", type=int, default=None, metavar="N",
            help="storage quota: max live documents in the tenant's scope",
        )
        tp.add_argument(
            "--max-ingest-batch", type=int, default=None, metavar="N",
            help="max documents accepted in one /ingest batch",
        )
        tp.add_argument(
            "--qps", type=float, default=None,
            help="token-bucket refill rate (requests/second)",
        )
        tp.add_argument(
            "--burst", type=int, default=None, metavar="N",
            help="token-bucket capacity (default: ceil(qps))",
        )
        tp.add_argument(
            "--max-in-flight", type=int, default=None, metavar="N",
            help="bounded concurrent requests; beyond it requests are "
                 "shed with 429 + Retry-After",
        )

    tp = tenant_sub.add_parser("create", help="register a new tenant")
    add_tenants_path(tp)
    tp.add_argument("name", help="tenant name ([a-z0-9][a-z0-9_-]*)")
    tp.add_argument(
        "--configs", nargs="*", default=None, metavar="NAME",
        help="serving configs this tenant may address (default: all)",
    )
    tp.add_argument(
        "--store", action="append", default=None, metavar="CONFIG=PATH",
        help="private store path for one config (repeatable); gives the "
             "tenant its own ingest/changefeed namespace",
    )
    add_quota_flags(tp)
    tp.set_defaults(func=_cmd_tenant_create)

    tp = tenant_sub.add_parser("list", help="list registered tenants")
    add_tenants_path(tp)
    tp.add_argument("--json", action="store_true", help="emit JSON")
    tp.set_defaults(func=_cmd_tenant_list)

    tp = tenant_sub.add_parser("show", help="show one tenant's spec as JSON")
    add_tenants_path(tp)
    tp.add_argument("name")
    tp.set_defaults(func=_cmd_tenant_show)

    tp = tenant_sub.add_parser(
        "set-quota", help="replace quota/rate-limit fields of a tenant"
    )
    add_tenants_path(tp)
    tp.add_argument("name")
    add_quota_flags(tp)
    tp.set_defaults(func=_cmd_tenant_set_quota)

    tp = tenant_sub.add_parser("delete", help="remove a tenant")
    add_tenants_path(tp)
    tp.add_argument("name")
    tp.set_defaults(func=_cmd_tenant_delete)

    p = sub.add_parser(
        "store", help="durable document store: init, ingest, delete, "
                      "compact, snapshot, stats"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)

    def add_store_path(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--store", metavar="PATH", required=True,
            help="SQLite store file (created if missing)",
        )

    sp = store_sub.add_parser("init", help="create (or verify) a store file")
    add_store_path(sp)
    sp.set_defaults(func=_cmd_store_init)

    sp = store_sub.add_parser(
        "ingest", help="bulk-upsert documents from a dataset or a JSONL file"
    )
    add_store_path(sp)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=datasets)
    source.add_argument(
        "--jsonl", metavar="FILE",
        help="one document per line: {'doc_id','text'[,'title']} or the "
             "schema form {'doc_id','terms',...}",
    )
    sp.set_defaults(func=_cmd_store_ingest)

    sp = store_sub.add_parser("delete", help="tombstone documents by doc_id")
    add_store_path(sp)
    sp.add_argument("doc_ids", nargs="+", metavar="DOC_ID")
    sp.set_defaults(func=_cmd_store_delete)

    sp = store_sub.add_parser(
        "compact", help="drop tombstoned postings and VACUUM the file"
    )
    add_store_path(sp)
    sp.set_defaults(func=_cmd_store_compact)

    sp = store_sub.add_parser(
        "snapshot", help="write a consistent copy via the backup API"
    )
    add_store_path(sp)
    sp.add_argument("--dest", metavar="PATH", required=True)
    sp.set_defaults(func=_cmd_store_snapshot)

    sp = store_sub.add_parser("stats", help="store statistics")
    add_store_path(sp)
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.set_defaults(func=_cmd_store_stats)

    sp = store_sub.add_parser(
        "tail", help="read the store's replication log (changefeed)"
    )
    add_store_path(sp)
    sp.add_argument(
        "--since", type=int, default=0, metavar="GEN",
        help="start after this generation (default: 0 = from the floor)",
    )
    sp.add_argument(
        "--limit", type=int, default=256, metavar="N",
        help="records per read batch (default: 256)",
    )
    sp.add_argument(
        "--follow", action="store_true",
        help="keep polling for new records instead of exiting when caught up",
    )
    sp.add_argument(
        "--interval", type=float, default=1.0, metavar="SECS",
        help="poll interval with --follow (default: 1.0)",
    )
    sp.add_argument(
        "--consumer", metavar="NAME", default=None,
        help="register reads under this consumer name so background "
             "compaction keeps the log this tailer still needs",
    )
    sp.add_argument(
        "--json", action="store_true",
        help="one JSON log record per line (doc payloads included)",
    )
    sp.set_defaults(func=_cmd_store_tail)

    p = sub.add_parser(
        "interleave", help="alternate clustering and expansion (§7 future work)"
    )
    p.add_argument("--dataset", choices=datasets, required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--algorithm", choices=algorithms, default="iskr")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--scoring", choices=scorers, default="tfidf")
    add_backend_flags(p)
    p.set_defaults(func=_cmd_interleave)

    p = sub.add_parser("prf", help="compare PRF schemes against ISKR")
    p.add_argument("--dataset", choices=datasets, required=True)
    p.add_argument("--query", required=True)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--feedback", type=int, default=10)
    p.add_argument("--scoring", choices=scorers, default="tfidf")
    add_backend_flags(p)
    p.set_defaults(func=_cmd_prf)

    p = sub.add_parser("facets", help="faceted-search comparator")
    p.add_argument("--dataset", choices=datasets, required=True)
    p.add_argument("--query", required=True)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--top", type=int, default=0)
    p.add_argument("--scoring", choices=scorers, default="tfidf")
    add_backend_flags(p)
    p.set_defaults(func=_cmd_facets)

    p = sub.add_parser("experiment", help="run benchmark queries through the systems")
    p.add_argument("--queries", nargs="*", default=[], help="query ids (default: all 20)")
    p.add_argument(
        "--systems", nargs="*", default=[], choices=list(ALL_SYSTEMS),
        help="systems to run (default: all)",
    )
    p.add_argument("--show-queries", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("scalability", help="Figure-7 sweep")
    add_backend_flags(p)
    p.add_argument("--sizes", nargs="+", type=int, default=[100, 200, 300, 400, 500])
    p.set_defaults(func=_cmd_scalability)

    p = sub.add_parser("userstudy", help="simulated rater panel")
    p.add_argument("--queries", nargs="*", default=[])
    p.add_argument("--users", type=int, default=45)
    p.set_defaults(func=_cmd_userstudy)

    p = sub.add_parser(
        "analyze",
        help="static analysis: lock discipline, guarded attributes, "
        "registry conformance, schema sync",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"], help="files/dirs to analyze"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--baseline",
        action="store_true",
        help="accept current findings into the baseline file and exit 0",
    )
    p.add_argument(
        "--baseline-file",
        default="analyze_baseline.json",
        help="baseline path (default: analyze_baseline.json)",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file even if present",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also list waived and baselined findings",
    )
    p.add_argument("--rules", action="store_true", help="print the rule catalog")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
