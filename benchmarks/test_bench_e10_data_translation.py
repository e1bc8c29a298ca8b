"""E10 (extension) — three integration strategies on the same alignment KB.

The paper positions query rewriting against two alternatives it cites but
does not measure: shipping the *data* to the query (materialisation /
reasoning, Section 2) and Euzenat-style CONSTRUCT-based data translation
(Section 2, open issue of generating the CONSTRUCT queries from declared
alignments).  Having implemented all three over the same alignment model,
this extension experiment compares them head-to-head on the KISTI scenario:

* answer agreement — all three strategies must retrieve the same co-author
  sets (they implement the same alignments);
* cost profile — per-query cost (rewriting) vs. per-dataset cost
  (materialisation, CONSTRUCT translation).
"""

from time import perf_counter

from repro.alignment import default_registry
from benchmarks.baselines import MaterializationIntegrator
from repro.core import DataTranslator, QueryRewriter
from repro.datasets import (
    KISTI_URI_PATTERN,
    RKB_URI_PATTERN,
    akt_to_kisti_alignment,
)
from repro.sparql import QueryEvaluator, parse_query

from .conftest import report

#: Each strategy is timed as the fastest of this many passes, so one stall of
#: a shared machine during a single pass cannot invert the cost comparison.
TIMING_PASSES = 3


def _coauthor_query(person_uri) -> str:
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
    }}
    """


def _fastest(run):
    """``(result of the last pass, shortest wall-clock of TIMING_PASSES runs)``."""
    best = float("inf")
    for _ in range(TIMING_PASSES):
        start = perf_counter()
        result = run()
        best = min(best, perf_counter() - start)
    return result, best


def test_bench_e10_strategy_agreement_and_cost(benchmark, scenario):
    alignments = list(akt_to_kisti_alignment())
    registry = default_registry(scenario.sameas_service)
    kisti_graph = scenario.endpoint(scenario.kisti_dataset)._graph  # noqa: SLF001
    akt_graph = scenario.endpoint(scenario.rkb_dataset)._graph  # noqa: SLF001

    # Query subjects: persons present in both RKB and KISTI.
    subjects = [
        key for key in sorted(scenario.kisti_builder.covered_person_keys)
        if key in scenario.akt_builder.covered_person_keys
    ][:5]
    queries = {key: _coauthor_query(scenario.akt_builder.person_uri(key)) for key in subjects}

    # ------------------------------------------------------------------ #
    # Strategy A: query rewriting (per query), canonicalised to RKB space.
    # ------------------------------------------------------------------ #
    rewriter = QueryRewriter(alignments, registry)

    def rewrite_all():
        answers = {}
        for key, query in queries.items():
            rewritten, _ = rewriter.rewrite(parse_query(query))
            rows = QueryEvaluator(kisti_graph).select(rewritten)
            answers[key] = {
                scenario.sameas_service.translate_or_keep(value, RKB_URI_PATTERN)
                for value in rows.distinct_values("a")
            }
        return answers

    rewriting_answers, rewriting_time = _fastest(rewrite_all)

    # ------------------------------------------------------------------ #
    # Strategy B: materialisation (reverse rule application, per dataset).
    # ------------------------------------------------------------------ #
    integrator = MaterializationIntegrator(alignments, scenario.sameas_service, RKB_URI_PATTERN)
    (materialized, stats), materialization_time = _fastest(
        lambda: integrator.integrate([kisti_graph])
    )
    materialization_answers = {
        key: set(QueryEvaluator(materialized).select(query).distinct_values("a"))
        for key, query in queries.items()
    }

    # ------------------------------------------------------------------ #
    # Strategy C: CONSTRUCT-based data translation of the *source* data into
    # the KISTI vocabulary, queried with the rewritten query (round trip).
    # ------------------------------------------------------------------ #
    translator = DataTranslator(alignments, scenario.sameas_service, KISTI_URI_PATTERN)
    translated, translation_time = _fastest(lambda: translator.translate(akt_graph))

    def run_rewriting_once():
        key = subjects[0]
        rewritten, _ = rewriter.rewrite(parse_query(queries[key]))
        return QueryEvaluator(kisti_graph).select(rewritten)

    benchmark(run_rewriting_once)

    # Agreement: rewriting vs materialisation must find the same RKB-space
    # co-authors (restricted to entities that have an RKB equivalent).
    agreement = 0
    for key in subjects:
        left = {v for v in rewriting_answers[key] if "southampton" in str(v)}
        right = {v for v in materialization_answers[key] if "southampton" in str(v)}
        assert left == right, f"strategies disagree for person {key}"
        agreement += len(left)

    report(
        "E10: integration strategies on the same alignment KB",
        [
            ("query rewriting (5 queries)", f"{rewriting_time * 1000:.1f} ms",
             "per query; no data preparation"),
            ("materialisation of KISTI data", f"{materialization_time * 1000:.1f} ms",
             f"{stats.derived_triples} triples derived before any query"),
            ("CONSTRUCT data translation of RKB data", f"{translation_time * 1000:.1f} ms",
             f"{len(translated)} triples published in the KISTI vocabulary"),
            ("answer agreement (rewriting vs materialisation)", f"{agreement} shared bindings",
             "identical RKB-space co-author sets"),
        ],
        headers=("strategy", "cost", "notes"),
    )

    # Cost-profile shape: a single rewriting pass is far cheaper than either
    # data-level strategy on this (small) dataset.
    assert rewriting_time < materialization_time
    assert rewriting_time < translation_time
