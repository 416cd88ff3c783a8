"""repro.serve -- the batched-update / epoch-read serving layer.

Turns the reproduction's dynamic-MSF engines into a read-heavy serving
stack (see README "Serving layer"):

* :class:`BatchedMSF` -- facade-compatible front over one engine, the
  sparsification tree, that coalesces update batches deterministically
  and serves reads from the tree's root engine's Euler lists, through
  one read view per epoch;
* :class:`LevelExecutor` -- runs a batch's sparsification-tree
  propagation plans serially, in submission order (Section 5.3's
  per-level parallelism is modelled by cost accounting, not threads);
* :func:`coalesce` / :class:`CoalescedBatch` -- canonical batch algebra
  (insert+delete annihilation, dedupe, stable ordering);
* :class:`ConnectivitySnapshot` -- that read view: an O(1), uncharged
  Euler-list identity test per query.
"""

from .batch import CoalescedBatch, coalesce
from .batched import BatchedMSF
from .clustered import ClusterMSF
from .executor import LevelExecutor
from .snapshot import ConnectivitySnapshot

__all__ = [
    "BatchedMSF",
    "CoalescedBatch",
    "ClusterMSF",
    "ConnectivitySnapshot",
    "LevelExecutor",
    "coalesce",
]
