"""repro.serve -- the batched-update / snapshot-read serving layer.

Turns the reproduction's dynamic-MSF engines into a read-heavy serving
stack (see README "Serving layer"):

* :class:`BatchedMSF` -- facade-compatible front that coalesces update
  batches deterministically and serves reads from an epoch-versioned
  union-find snapshot;
* :class:`LevelExecutor` -- runs a batch's sparsification-tree
  propagation plans serially, in submission order (Section 5.3's
  per-level parallelism is modelled by cost accounting, not threads);
* :func:`coalesce` / :class:`CoalescedBatch` -- canonical batch algebra
  (insert+delete annihilation, dedupe, stable ordering);
* :class:`ConnectivitySnapshot` -- the O(alpha(n))-per-query read path.
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
