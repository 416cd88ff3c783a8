"""Coalescing semantics: annihilation, dedupe, canonical order, errors."""

import pytest

from repro.resilience.errors import InvalidInputError
from repro.serve.batch import CoalescedBatch, coalesce


def test_plain_batch_survives_in_canonical_order():
    batch = coalesce([
        ("ins", 7, 0, 1, 5.0),
        ("del", 3),
        ("ins", 2, 1, 2, 1.0),
        ("del", 9),
    ], known={3, 9})
    assert batch.deletes == (3, 9)                     # ascending
    assert batch.inserts == ((2, 1, 2, 1.0), (7, 0, 1, 5.0))
    assert batch.cancelled == 0 and batch.deduped == 0
    assert len(batch) == 4
    assert batch.submitted == 4
    # canonical stream: deletes first, then inserts, each ascending eid
    assert batch.ops() == [("del", 3), ("del", 9),
                           ("ins", 2, 1, 2, 1.0), ("ins", 7, 0, 1, 5.0)]


def test_insert_delete_pair_annihilates():
    batch = coalesce([
        ("ins", 5, 0, 1, 2.0),
        ("ins", 6, 1, 2, 3.0),
        ("del", 5),
    ])
    assert batch.inserts == ((6, 1, 2, 3.0),)
    assert batch.deletes == ()
    assert batch.cancelled == 1
    assert len(batch) == 1
    assert batch.submitted == 3                        # 1 + 2*cancelled


def test_duplicate_delete_dedupes():
    batch = coalesce([("del", 4), ("del", 4), ("del", 4)], known={4})
    assert batch.deletes == (4,)
    assert batch.deduped == 2
    assert batch.submitted == 3


def test_annihilation_then_unknown_delete_raises():
    # once ins/del annihilate, a THIRD op on the id is an unknown delete
    with pytest.raises(KeyError):
        coalesce([("ins", 1, 0, 1, 1.0), ("del", 1), ("del", 1)])


def test_delete_of_unknown_id_raises():
    with pytest.raises(KeyError):
        coalesce([("del", 42)], known={1, 2})


def test_duplicate_insert_raises():
    with pytest.raises(InvalidInputError):
        coalesce([("ins", 1, 0, 1, 1.0), ("ins", 1, 2, 3, 4.0)])
    with pytest.raises(InvalidInputError):              # already live
        coalesce([("ins", 1, 0, 1, 1.0)], known={1})


def test_unknown_tag_raises():
    with pytest.raises(ValueError):
        coalesce([("conn", 0, 1)])


def test_order_independence_of_surviving_ops():
    """Permuting independent ops yields the identical canonical batch."""
    a = coalesce([("ins", 3, 0, 1, 1.0), ("del", 8), ("ins", 1, 2, 3, 2.0)],
                 known={8})
    b = coalesce([("del", 8), ("ins", 1, 2, 3, 2.0), ("ins", 3, 0, 1, 1.0)],
                 known={8})
    assert a == b
    assert isinstance(a, CoalescedBatch)


def test_empty_batch():
    batch = coalesce([])
    assert len(batch) == 0 and batch.ops() == []
