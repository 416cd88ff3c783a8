"""The batch executor for per-level sparsification work.

The paper's Section 5.3 observes that the sparsification tree's
per-level engine updates "can be executed independently on each level":
every tree node owns disjoint structures.  This reproduction models that
parallelism by cost accounting -- ``SparsifiedMSF.parallel_cost_of_last_update``
composes the per-level marks each plan records -- not by host threads,
which could never overlap the GIL-holding engine steps.  Host
parallelism lives in :class:`repro.serve.ClusterMSF`'s worker processes.

:class:`LevelExecutor` therefore runs a batch's *plans* (objects with a
``run_serial()`` method; the tree hands it one ``core.sparsify._OpStep``
per op, which runs that op's station walks) one after another in
submission order, so every tree node sees the batch's updates exactly
as the serial update path would feed them.  It stays a class of its own as the
seam through which a serving front hands a batch to the tree.
"""

from __future__ import annotations

from typing import Protocol, Sequence

__all__ = ["LevelExecutor", "Plan"]


class Plan(Protocol):
    """Structural interface the executor runs (see module doc)."""

    def run_serial(self) -> None:
        """Run the plan to completion."""
        ...  # pragma: no cover - protocol


class LevelExecutor:
    """Runs plans serially, in submission order.

    A plan that raises stops the batch: the exception reaches the caller
    and later plans do not run.  An executor is stateless between
    :meth:`run` calls.
    """

    def run(self, plans: Sequence[Plan]) -> None:
        for plan in plans:
            plan.run_serial()
