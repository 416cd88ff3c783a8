"""Every input validator raises :class:`InvalidInputError`.

The structured type subclasses both ``ReproError`` and ``ValueError``,
so callers can catch the library's base class and pre-existing
``except ValueError`` sites keep working.  One parametrized test walks
every front that rejects malformed input.
"""

from __future__ import annotations

import math

import pytest

from repro import BatchedMSF, ClusterMSF, DynamicMSF
from repro.core.degree import DegreeReducer
from repro.core.model import check_endpoints, check_weight
from repro.core.sparsify import SparsifiedMSF
from repro.resilience.errors import InvalidInputError, ReproError
from repro.serve.batch import coalesce


def _dup_sparsified():
    tree = SparsifiedMSF(8)
    tree.insert_edge(0, 1, 1.0, eid=5)
    tree.insert_edge(2, 3, 1.0, eid=5)


def _dup_sparsified_batch():
    SparsifiedMSF(8).apply_batch([("ins", 5, 0, 1, 1.0),
                                  ("ins", 5, 2, 3, 1.0)])


def _dup_degree():
    red = DegreeReducer(8)
    red.insert_edge(0, 1, 1.0, eid=5)
    red.insert_edge(2, 3, 1.0, eid=5)


def _nonpositive_degree():
    DegreeReducer(8).insert_edge(0, 1, 1.0, eid=0)


def _cluster_submit():
    front = ClusterMSF(8, pool_size=2, processes=False)
    try:
        front.insert_edge(0, 1, math.nan)
    finally:
        front.close()


FRONTS = {
    "check_endpoints": lambda: check_endpoints(0, 9, 8),
    "check_endpoints-bool": lambda: check_endpoints(True, 1, 8),
    "check_weight": lambda: check_weight(math.inf),
    "check_weight-str": lambda: check_weight("1.5"),
    "facade": lambda: DynamicMSF(8).insert_edge(0, 8, 1.0),
    "facade-sparsified": lambda: DynamicMSF(8, sparsify=True).insert_edge(
        0, 1, math.nan),
    "batched-submit": lambda: BatchedMSF(8).insert_edge(-1, 1, 1.0),
    "cluster-submit": _cluster_submit,
    "sparsified-duplicate-id": _dup_sparsified,
    "sparsified-batch-duplicate-id": _dup_sparsified_batch,
    "degree-duplicate-id": _dup_degree,
    "degree-nonpositive-id": _nonpositive_degree,
    "coalesce-duplicate-insert": lambda: coalesce(
        [("ins", 1, 0, 1, 1.0), ("ins", 1, 2, 3, 4.0)]),
}


@pytest.mark.parametrize("front", sorted(FRONTS))
def test_invalid_input_raises_the_structured_type(front):
    with pytest.raises(InvalidInputError) as info:
        FRONTS[front]()
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, ValueError)
