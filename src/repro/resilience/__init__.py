"""Resilience layer: fault injection, structural self-audits, recovery.

Three cooperating pieces (see README "Resilience"):

* :mod:`repro.resilience.faults` -- a seeded, deterministic fault-injection
  registry threaded through the PRAM machine, the replay caches, the
  2-3-tree substrate, the sparsification tree and the serving layer.  Zero cost while disarmed.
* :mod:`repro.resilience.checks` -- tiered invariant checkers
  (``cheap`` / ``structural`` / ``full``) surfaced as ``self_check()`` on
  :class:`repro.DynamicMSF` / :class:`repro.SparsifiedMSF` /
  :class:`repro.BatchedMSF`.
* :mod:`repro.resilience.recover` -- the quarantine-and-rebuild ladder:
  evict-and-re-record for poisoned replay caches, audit-degrade for
  machines, drop-and-rebuild-from-edge-multiset for structurally
  corrupted engines, and batch bisection for the serving layer.
* :mod:`repro.resilience.soak` -- the seeded soak campaign driving all of
  the above against the Kruskal oracle (``benchmarks/bench_soak.py``).

Only :mod:`errors` and :mod:`faults` are imported eagerly -- they are
dependency-free, so low-level modules (``pram.machine``,
``structures.two_three_tree``) can import this package without cycles.
The heavier submodules load lazily on attribute access.
"""

from __future__ import annotations

from . import faults
from .errors import (CorruptionError, InvalidInputError, QuarantineExhausted,
                     ReproError, UnknownEdgeError)

__all__ = [
    "faults",
    "checks",
    "recover",
    "soak",
    "ReproError",
    "CorruptionError",
    "InvalidInputError",
    "UnknownEdgeError",
    "QuarantineExhausted",
]

_LAZY = ("checks", "recover", "soak")


def __getattr__(name: str):
    if name in _LAZY:
        import importlib
        mod = importlib.import_module(f".{name}", __name__)
        globals()[name] = mod
        return mod
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
