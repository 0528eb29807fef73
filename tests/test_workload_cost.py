"""A host-independent guard on the cost of naming a page.

A drawn page is one ``random()``, one ``bisect_right`` over the Zipf
CDF and one index into a draw table built once per workload; every
other page is one index into its relation's page tuple. None of that
is a Python call, so what a stream makes per page is only its
per-transaction calls (``choices``, ``randint``, the ``Transaction``
constructor, the generator resume) spread over the transaction's
pages. Each generator runs under ``sys.settrace`` at two lengths; the
difference of the "call" events over the difference of the pages is
the per-page count, with the stream's set-up cancelled out, in the
idiom of ``tests/test_hit_cost.py``.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.serve.tenants import TenantSpec, TenantState
from repro.workloads import DBT1Workload, DBT2Workload

#: Upper bounds on the Python calls per generated page, just above the
#: counts. 3.11: dbt2 0.307, dbt1 0.620, next_pages 0.500. 3.12 inlines
#: comprehensions (PEP 709), which drops the frame of ``choices``' own
#: comprehension and of the stream's per-transaction ones; measured on
#: 3.13: dbt2 0.226, dbt1 0.495, next_pages 0.250 (the call itself, one
#: per request of 4 pages). One more Python call per Zipf draw (about
#: one draw per two pages) breaks each of them.
MAX_CALLS_PER_PAGE = (
    {"dbt2": 0.32, "dbt1": 0.64, "next_pages": 0.51}
    if sys.version_info < (3, 12) else
    {"dbt2": 0.24, "dbt1": 0.51, "next_pages": 0.26})


def _traced(generate) -> tuple:
    """(calls, pages) of one ``generate()``, which returns its pages."""
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.settrace(tracer)
    try:
        pages = generate()
    finally:
        sys.settrace(None)
    return calls, pages


def _per_page(make_generate, small: int, large: int) -> float:
    few_calls, few_pages = _traced(make_generate(small))
    many_calls, many_pages = _traced(make_generate(large))
    return (many_calls - few_calls) / (many_pages - few_pages)


def _stream_pages(workload):
    def make_generate(transactions):
        def generate():
            stream = workload.transaction_stream(3)
            pages = 0
            for _ in range(transactions):
                pages += len(next(stream).pages)
            return pages
        return generate
    return make_generate


def _tenant_pages(count):
    tenant = TenantState(TenantSpec(3, "tenant03", 128, 0.8, None, 8),
                         hot_pages=16, hot_fraction=0.1, hot_skew=0.6)

    def make_generate(requests):
        def generate():
            rng = random.Random(42)
            for _ in range(requests):
                tenant.next_pages(rng, count)
            return requests * count
        return generate
    return make_generate


@pytest.fixture(scope="module")
def counts():
    return {
        "dbt2": _per_page(_stream_pages(DBT2Workload(seed=42,
                                                     n_warehouses=10)),
                          1_000, 3_000),
        "dbt1": _per_page(_stream_pages(DBT1Workload(seed=42)),
                          1_000, 3_000),
        "next_pages": _per_page(_tenant_pages(4), 2_000, 6_000),
    }


@pytest.mark.parametrize("generator", ["dbt2", "dbt1", "next_pages"])
def test_a_page_costs_no_more_calls_than_before(counts, generator):
    assert counts[generator] <= MAX_CALLS_PER_PAGE[generator], counts
