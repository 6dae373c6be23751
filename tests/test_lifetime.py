"""The package's caches keep a result exactly as long as its metric or its
boundary lives: a dead key frees its results, a live one keeps them."""

import contextlib
import gc
import tracemalloc
import weakref

from schwarzlab import bounds, metrics
from schwarzlab.config import DEFAULT
from schwarzlab.errors import NonIntegrable
from schwarzlab.harmonic import random_smooth_boundary, solved_field
from schwarzlab.metrics import (cosine_metric, exponential_metric, mass,
                                mollify, secant_metric, transform_table)
from schwarzlab.lemmas import psi_family


@contextlib.contextmanager
def _refcounting_only():
    """Free objects by reference counting alone, so a result that outlives
    its key is not hidden by a collection that happens to run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_table_and_curvature_scan_die_with_their_metric():
    with _refcounting_only():
        for make in (cosine_metric, lambda: mollify(psi_family(0.5, 0.5), 0.05)):
            metric = make()
            table = transform_table(metric)
            scan = bounds._curvature_scan(metric, DEFAULT)
            assert mass(metric) == table.r
            dead = [weakref.ref(x) for x in (metric, table, table._coef, scan,
                                             scan.curvature)]
            del metric, table, scan
            assert [ref() for ref in dead] == [None] * len(dead)


def test_divergence_verdict_dies_with_its_metric():
    with _refcounting_only():
        before = metrics._unit_table.cache_info().currsize
        metric = secant_metric()
        for _ in range(2):
            try:
                mass(metric)
            except NonIntegrable:
                pass
            else:
                raise AssertionError("the secant metric has infinite mass")
        # the second verdict came from the cache
        assert metrics._unit_table.cache_info().currsize == before + 1
        dead = weakref.ref(metric)
        del metric
        assert dead() is None
        assert metrics._unit_table.cache_info().currsize == before


def test_solved_field_dies_with_its_boundary_and_keeps_its_metric():
    with _refcounting_only():
        metric = exponential_metric(1.0)
        boundary = random_smooth_boundary(3)
        field = solved_field(metric, boundary, DEFAULT)
        assert solved_field(metric, boundary, DEFAULT) is field
        value = field.value_many(0.3 + 0.2j)
        dead = [weakref.ref(x) for x in (boundary, field)]
        del boundary
        # the field still evaluates without its boundary
        assert field.value_many(0.3 + 0.2j) == value
        kept = weakref.ref(metric)
        del metric
        assert kept() is not None, "a live field keeps its metric"
        del field
        assert [ref() for ref in dead] == [None, None]
        assert kept() is None


def test_a_kept_metric_gets_the_identical_table_back():
    metric = cosine_metric()
    table = transform_table(metric)
    hits = transform_table.cache_info().hits
    # more metrics than any fixed-size cache of the parent held
    for _ in range(20):
        transform_table(cosine_metric())
    assert transform_table(metric) is table
    assert transform_table.cache_info().hits == hits + 1


def test_tables_of_dead_metrics_are_freed():
    table = transform_table(cosine_metric())
    size = table._nodes.nbytes + table._coef.nbytes + table._h_nodes.nbytes
    del table
    tracemalloc.start()
    try:
        for _ in range(40):
            transform_table(cosine_metric())
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2 * size, (current, size)
