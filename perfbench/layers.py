"""podag's layers for the traced run: what is wrapped and what is derived.

Every public function and every public method of a public class in the
``stats``, ``screening``, ``search``, ``graph``, ``baselines``, ``sem``
and ``evaluation`` modules is wrapped where it is bound: a function in
every ``podag`` namespace that imported it, a method on its class.  A
span is named ``<module>.<qualified name>`` and belongs to the layer of
its module.  ``cli`` runs in no workload and is left alone.

The O(1) accessors in :data:`UNTRACED` are left unwrapped: ``pc_plus``
calls ``PartialOrdering.layer_of`` several times per candidate separator
and the screening loops call the set accessors per node, so a wrapper
there would cost more than the call and swamp the layer times.  Their
time stays in the self time of the span that calls them.

:func:`per_layer_metrics` turns a :class:`spans.ThreadLog` snapshot into
the per-layer metrics: those declared in ``BENCHMARK.json`` plus the
``oracle-p20`` ones (d-separation, population covariance, rho_min_star).
"""

from __future__ import annotations

import importlib
import inspect
import sys

LAYERS = ("stats", "screening", "search", "graph", "baselines", "sem", "evaluation")

UNTRACED = frozenset(
    {
        "graph.Dag.parents",
        "graph.Dag.children",
        "graph.Dag.adjacent",
        "graph.Dag.has_edge",
        "graph.Dag.is_adjacent",
        "graph.Dag.topological_order",
        "graph.Pdag.is_adjacent",
        "graph.PartialOrdering.n_layers",
        "graph.PartialOrdering.layer_of",
        "graph.PartialOrdering.has_overrides",
        "graph.PartialOrdering.before_set",
        "graph.PartialOrdering.after_set",
        "graph.PartialOrdering.peer_set",
        "graph.PartialOrdering.orders_before",
        "graph.SepsetMap.get",
        "graph.SepsetMap.record",
    }
)

FITS = {"search.learn": "learn", "baselines.pc": "pc", "baselines.pc_plus": "pc_plus"}
DISPATCHERS = frozenset({"evaluation.run_benchmark", "evaluation.faithfulness_report"})
QUERIES = frozenset({"stats.CiEngine.query", "stats.RecordingEngine.query"})
KERNELS = ("stats.partial_correlation", "stats.block_partial_correlations")
ORIENT = ("graph.orient_v_structures", "graph.apply_meek_rules")


def _on_query(log, args, kwargs, verdict, elapsed):
    if log.inside(QUERIES):
        return  # an inner engine answering for a wrapper engine
    phase = getattr(args[0], "phase", None) if log.fit == "learn" else None
    counts = log.counts
    counts["queries"] += 1
    counts[("queries", log.fit)] += 1
    counts[("query_s", log.fit, phase)] += elapsed
    counts[("query_n", log.fit, phase)] += 1
    counts[("query_indep", log.fit, phase)] += bool(verdict.independent)


def _on_decide(log, args, kwargs, result, elapsed):
    # An engine calls its kernel only on a memo miss.
    if log.stack and log.stack[-1].name in QUERIES:
        log.counts["memo_misses"] += 1


def _on_pcor(log, args, kwargs, result, elapsed):
    _on_decide(log, args, kwargs, result, elapsed)
    s = args[3] if len(args) > 3 else kwargs["s"]
    log.hist["cond_size"][len(set(s))] += 1


def _on_learn(log, args, kwargs, result, elapsed):
    screen = result.screen
    for j in screen.nodes():
        log.counts["screen_nodes"] += 1
        log.counts["screen_cross"] += len(screen[j].cross)
        log.counts["screen_cmb"] += len(screen[j].cmb)


def _on_lasso(log, args, kwargs, fit, elapsed):
    log.counts["lasso_sweeps"] += fit.iterations


def _on_rho_min(log, args, kwargs, result, elapsed):
    tuples = list(args[1] if len(args) > 1 else kwargs["tuples"])
    log.counts["rho_tuples"] += len(tuples)
    log.counts["rho_unique"] += len({(min(i, j), max(i, j), frozenset(s)) for i, j, s in tuples})


HOOKS = {
    "stats.CiEngine.query": _on_query,
    "stats.RecordingEngine.query": _on_query,
    "stats.partial_correlation": _on_pcor,
    "stats.fisher_z_test": _on_decide,
    "graph.Dag.is_dsep": _on_decide,
    "search.learn": _on_learn,
    "screening.lasso_fit": _on_lasso,
    "evaluation.rho_min_star": _on_rho_min,
}


def _public(name):
    return not name.startswith("_")


def podag_targets(tracer):
    """Register podag's public functions and methods on ``tracer``.

    Also gives ``CiEngine`` a ``phase`` attribute while installed, so
    that ``learn`` tags the queries of every engine with its stage
    ("screen", "search" or "orient"), as it already does for
    ``RecordingEngine``.
    """
    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "podag" or n.startswith("podag.")]
    for layer in LAYERS:
        module = importlib.import_module(f"podag.{layer}")
        for attr, obj in sorted(vars(module).items()):
            if not _public(attr):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                owners = [ns for ns in namespaces if vars(ns).get(attr) is obj]
                _register(tracer, owners, attr, f"{layer}.{attr}", layer)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for method, fn in sorted(vars(obj).items()):
                    if _public(method) and inspect.isfunction(fn):
                        _register(tracer, [obj], method, f"{layer}.{attr}.{method}", layer)
    stats = importlib.import_module("podag.stats")
    tracer.set_attribute(stats.CiEngine, "phase", None)


def _register(tracer, owners, attr, name, layer):
    if name in UNTRACED:
        return
    tracer.wrap(
        owners,
        attr,
        name,
        layer,
        fit=FITS.get(name),
        dispatcher=name in DISPATCHERS,
        hook=HOOKS.get(name),
    )


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_from_hist(hist, q):
    total = sum(hist.values())
    if not total:
        return 0
    rank = q * total
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return value
    return max(hist)


def per_layer_metrics(log, wall_s, threads):
    """Per-layer metrics from a merged trace log.

    Counts and plain ``_s`` times are per fit of the estimator they
    belong to (``learn`` for ``screening`` and ``search``, ``pc`` and
    ``pc_plus`` for ``baselines``, all fits otherwise); ``_us`` values
    are mean microseconds per call; ``sem.generate_s`` and
    ``sem.sample_s`` are mean seconds per generated input.
    """

    def span(name, fit=Ellipsis):
        calls = total = own = 0.0
        for (span_fit, span_name), (c, t, s) in log.spans.items():
            if span_name == name and (fit is Ellipsis or span_fit == fit):
                calls += c
                total += t
                own += s
        return calls, total, own

    def per_call_s(name):
        calls, total, _ = span(name)
        return _ratio(total, calls)

    counts = log.counts
    n_learn = span("search.learn")[0]
    n_pc = span("baselines.pc")[0]
    n_pcplus = span("baselines.pc_plus")[0]
    fits = n_learn + n_pc + n_pcplus
    learn_s = span("search.learn")[1]

    queries = counts["queries"]
    unique = counts["memo_misses"]
    query_self = sum(span(name)[2] for name in QUERIES)

    def phase(name, fit, tag):
        return counts[(name, fit, tag)]

    loop_n, posthoc_n = phase("query_n", "learn", "search"), phase("query_n", "learn", "orient")
    loop_s, posthoc_s = phase("query_s", "learn", "search"), phase("query_s", "learn", "orient")
    screening_s = log.layer_time[("learn", "screening")]
    learn_orient_s = sum(span(name, "learn")[1] for name in ORIENT)
    orient_s = sum(span(name)[1] for name in ORIENT)
    # Queries tagged "screen" run inside screening spans, already in screening_s.
    search_self = learn_s - screening_s - loop_s - posthoc_s - learn_orient_s

    fz_calls, fz_total, fz_self = span("stats.fisher_z_test")
    pcor_calls = span("stats.partial_correlation")[0]
    singular = sum(
        n for (name, err), n in log.errors.items() if name in KERNELS and err == "SingularityError"
    )
    hist = log.hist["cond_size"]

    metrics = {
        "stats.cov_calls": (_ratio(span("stats.sample_covariance")[0], fits), "count"),
        "stats.cov_s": (_ratio(span("stats.sample_covariance")[1], fits), "s"),
        "stats.block_calls": (_ratio(span("stats.block_partial_correlations")[0], fits), "count"),
        "stats.block_us": (per_call_s("stats.block_partial_correlations") * 1e6, "us"),
        "stats.fisherz_calls": (_ratio(fz_calls, fits), "count"),
        "stats.fisherz_us": (_ratio(fz_total, fz_calls) * 1e6, "us"),
        "stats.fisherz_overhead_us": (_ratio(fz_self, fz_calls) * 1e6, "us"),
        "stats.pcor_calls": (_ratio(pcor_calls, fits), "count"),
        "stats.pcor_us": (per_call_s("stats.partial_correlation") * 1e6, "us"),
        "stats.cond_size_p50": (_percentile_from_hist(hist, 0.5), "count"),
        "stats.cond_size_max": (max(hist) if hist else 0, "count"),
        "stats.queries": (_ratio(queries, fits), "count"),
        "stats.unique_queries": (_ratio(unique, fits), "count"),
        "stats.memo_hit_ratio": (_ratio(queries - unique, queries), "ratio"),
        "stats.query_self_us": (_ratio(query_self, queries) * 1e6, "us"),
        "stats.singular": (_ratio(singular, fits), "count"),
        "screening.s": (_ratio(screening_s, n_learn), "s"),
        "screening.share": (_ratio(screening_s, learn_s), "ratio"),
        "screening.cross_mean": (_ratio(counts["screen_cross"], counts["screen_nodes"]), "count"),
        "screening.cmb_mean": (_ratio(counts["screen_cmb"], counts["screen_nodes"]), "count"),
        "screening.sis_s": (_ratio(span("screening.screen_sis")[1], n_learn), "s"),
        "screening.lasso_s": (_ratio(span("screening.screen_lasso")[1], n_learn), "s"),
        "screening.lasso_sweeps": (_ratio(counts["lasso_sweeps"], n_learn), "count"),
        "search.loop_queries": (_ratio(loop_n, n_learn), "count"),
        "search.loop_s": (_ratio(loop_s, n_learn), "s"),
        "search.loop_indep_ratio": (_ratio(phase("query_indep", "learn", "search"), loop_n), "ratio"),
        "search.posthoc_queries": (_ratio(posthoc_n, n_learn), "count"),
        "search.posthoc_s": (_ratio(posthoc_s, n_learn), "s"),
        "search.posthoc_share": (_ratio(posthoc_n, queries), "ratio"),
        "search.posthoc_indep_ratio": (
            _ratio(phase("query_indep", "learn", "orient"), posthoc_n),
            "ratio",
        ),
        "search.self_s": (_ratio(search_self, n_learn), "s"),
        "search.fit_s": (_ratio(learn_s, n_learn), "s"),
        "search.covered_ratio": (
            _ratio(screening_s + loop_s + posthoc_s + learn_orient_s, learn_s),
            "ratio",
        ),
        "graph.dsep_calls": (_ratio(span("graph.Dag.is_dsep")[0], fits), "count"),
        "graph.dsep_us": (per_call_s("graph.Dag.is_dsep") * 1e6, "us"),
        "graph.orient_s": (_ratio(orient_s, fits), "s"),
        "baselines.pc_s": (_ratio(span("baselines.pc")[1], n_pc), "s"),
        "baselines.pc_queries": (_ratio(counts[("queries", "pc")], n_pc), "count"),
        "baselines.pcplus_s": (_ratio(span("baselines.pc_plus")[1], n_pcplus), "s"),
        "baselines.pcplus_queries": (_ratio(counts[("queries", "pc_plus")], n_pcplus), "count"),
        "sem.generate_s": (per_call_s("sem.generate_layered_dag"), "s"),
        "sem.sample_s": (per_call_s("sem.sample"), "s"),
        "sem.popcov_calls": (_ratio(span("sem.population_covariance")[0], fits), "count"),
        "sem.popcov_s": (_ratio(span("sem.population_covariance")[1], fits), "s"),
        "evaluation.metrics_s": (_ratio(span("evaluation.edge_metrics")[1], fits), "s"),
        "evaluation.rho_min_s": (_ratio(span("evaluation.rho_min_star")[1], fits), "s"),
        "evaluation.rho_tuples": (_ratio(counts["rho_tuples"], fits), "count"),
        "evaluation.rho_unique_ratio": (_ratio(counts["rho_unique"], counts["rho_tuples"]), "ratio"),
        "evaluation.pool_busy": (_ratio(log.busy, wall_s * threads), "ratio"),
        "trace.fits": (fits, "count"),
    }
    return metrics
