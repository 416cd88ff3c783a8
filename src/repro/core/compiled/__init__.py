"""The compiled hot-loop kernel tier (``backend="compiled"``).

At the Jcap ~ 2n/K lane widths the benchmarks produce, the binding
constraint of the scalar backend is the per-*element* python
interpreter cost of its hot loops (vectorizing them with numpy ufuncs
only trades it for dispatch overhead).  This package removes that
constraint by compiling the measured inner loops -- the ``(weight,
eid)`` tuple-min LSDS pulls and column sweeps, the MWR gamma/argmin,
the link-cut splay/access loops (:mod:`.lct`) and the batched charge
accumulator (``ChargeStream``) -- into a small hand-written CPython
extension (``_kernels.c``), built on demand with the system C compiler:

    python -m repro.core.compiled.build

No third-party dependency is involved: the kernels operate on plain
``bytearray`` buffers of float64 ``(weight, eid)`` pairs (see
:mod:`.matrix`) and on the engine's own python objects via the C API,
so the tier composes with either numpy or the ``_nplite`` shim.

The tier serves the sequential engine only.  The parallel engine's
depth and work are simulator quantities no host kernel can move, and
the wall time the tier bought it did not pay for the kernels that
existed only for it, so ``engine="parallel"`` runs on
``backend="scalar"`` alone (see
:func:`repro.core.chunks.check_engine_backend`).

The extension is *optional*: without it, ``backend="compiled"`` raises
:class:`BackendUnavailable` (naming the build command) and the scalar
backend keeps working.  The contract: forests, edge-id streams,
op-counter totals and ``state_fingerprint`` are bit-identical to scalar
-- only wall clock changes (``tests/core/test_backend_differential.py``).
"""

from __future__ import annotations

__all__ = ["HAVE_COMPILED", "kernels", "require", "compiled_version",
           "BUILD_HINT", "CompiledMatrix"]

#: How to materialize the extension (also named by ``BackendUnavailable``).
BUILD_HINT = ("the _kernels extension "
              "(build it: `python -m repro.core.compiled.build`)")

try:
    from . import _kernels as kernels  # type: ignore[attr-defined]
    HAVE_COMPILED = True
except ImportError:  # extension not built (or wrong ABI): degrade cleanly
    kernels = None  # type: ignore[assignment]
    HAVE_COMPILED = False


def compiled_version() -> str:
    """The built extension's self-reported ABI tag, for diagnostics."""
    return kernels.__version__ if kernels is not None else "unavailable"


def require(feature: str = "backend='compiled'") -> None:
    """Raise :class:`BackendUnavailable` unless the extension is importable.

    ``feature`` names the caller for the error message.
    """
    if kernels is None:
        from ...resilience.errors import BackendUnavailable
        raise BackendUnavailable(feature, BUILD_HINT, "compiled")


from .matrix import CompiledMatrix  # noqa: E402
