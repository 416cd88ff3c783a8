#!/usr/bin/env python3
"""Profile the engines' hot paths (the optimize-after-measuring workflow).

Usage:
    python benchmarks/profile_hotspots.py [engine] [n] [steps]
                                          [--sort {cumulative,tottime}]
                                          [--limit N] [-o FILE]
                                          [--json FILE] [--cold]
                                          [--backend {scalar,compiled}]

engine: seq | par | par-fast | sparsify   (default seq, n=1024, steps=300)
``par`` and ``par-fast`` run on ``--backend scalar`` only, as the
parallel engine does.

``par-fast`` profiles the parallel engine with ``audit="fast"`` so the
shape-keyed kernel bypass shows up in the profile instead of the lockstep
simulator; it gets an untimed warm-up pass by default (recording every
kernel shape's ``TracePlan``, then rebuilding on the same machine) so the
profiled loop is the replay steady state -- ``--cold`` attributes the
recording pass instead.  The other engines have no warm-up: a
sparsification tree builds each node engine when it needs one.  Prints
the top functions by the chosen sort key so optimization work targets
the real bottlenecks (for the sequential engine these are the numpy
vector pulls and the chunk rescans -- already the algorithmically-charged
costs).  ``-o FILE`` additionally dumps the raw profile for ``snakeviz``
/ ``pstats`` post-processing.

``--json FILE`` additionally writes a machine-readable attribution record
(top-N rows by ``cumtime`` and ``tottime`` plus per-module ``tottime``
totals, with the native ``_kernels`` extension as its own module) so CI
can archive hotspot attribution next to the BENCH file.

Unknown engine names are rejected *before* any profiling starts, and the
process exits non-zero so shell pipelines fail loudly.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _common import replay

ENGINES = ("seq", "par", "par-fast", "sparsify")

BACKENDS = ("scalar", "compiled")

#: v4: ``tottime_by_module`` keys the native ``_kernels`` built-ins as
#: their own module, and ``start`` is "warm" when the replay warm-up ran.
#: ``charge_streams`` sums the C-side ChargeStream add/drain telemetry
#: over every attached counter.
JSON_SCHEMA = "hotspot-attribution/v4"


def build(engine: str, n: int, machine=None, backend: str = "scalar"):
    if engine == "seq":
        from repro.core.seq_msf import SparseDynamicMSF
        return SparseDynamicMSF(n, backend=backend), True
    if engine == "par":
        from repro.core.par import ParallelDynamicMSF
        return ParallelDynamicMSF(n, backend=backend), True
    if engine == "par-fast":
        from repro.core.par import ParallelDynamicMSF
        if machine is not None:
            # warm rebuild on a recycled machine: the replay/shape caches
            # survive reset_stats(), so the profiled loop below shows the
            # trace-replay steady state rather than the recording pass
            machine.reset_stats()
            return ParallelDynamicMSF(n, machine=machine,
                                      backend=backend), True
        return ParallelDynamicMSF(n, audit="fast", backend=backend), True
    if engine == "sparsify":
        from repro.core.sparsify import SparsifiedMSF
        return SparsifiedMSF(max(n, 2), backend=backend), False
    raise ValueError(f"unknown engine {engine!r}")


def workload(eng, core_style: bool, n: int, steps: int,
             adversarial: bool = False) -> None:
    """Drive ``steps`` churn updates -- or, for the parallel engines, the
    kernel-bound adversarial profile (one long path cut and reconnected
    per round, ~44 updates each at n=512), matching the bench harness's
    ``parallel-core*`` rows.  Churn at degree <= 3 stays on the short-list
    analytic paths and would never launch a kernel, so profiling the
    simulator (or its replay tier) requires the adversarial stream."""
    if adversarial:
        from repro.workloads import adversarial_cuts
        ops = adversarial_cuts(n, rounds=max(1, round(steps / 44)), seed=3)
    else:
        from repro.workloads import churn
        ops = churn(n, steps, seed=11, max_degree=3 if core_style else None)
    replay(eng, ops, core_style)


def _module_of(filename: str, funcname: str) -> str:
    """Human attribution key: python module (or builtin bucket) of a row.

    Built-ins of the compiled extension are keyed ``_kernels``, so the
    native share shows in ``tottime_by_module`` (pstats names a
    built-in by its qualified name, with no file)."""
    if filename.startswith("<") or filename == "~":
        if "repro.core.compiled._kernels" in funcname:
            return "_kernels"
        return "<builtins>"
    return os.path.splitext(os.path.basename(filename))[0]


def attribution(stats: pstats.Stats, limit: int) -> dict:
    """Top-``limit`` rows by cumtime and tottime, plus per-module totals."""
    entries = []
    modules: dict[str, float] = {}
    for (filename, lineno, funcname), row in stats.stats.items():
        _cc, nc, tottime, cumtime, _callers = row
        module = _module_of(filename, funcname)
        entries.append({
            "module": module,
            "function": funcname,
            "file": filename,
            "line": lineno,
            "ncalls": nc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
        modules[module] = modules.get(module, 0.0) + tottime
    by_cum = sorted(entries, key=lambda e: e["cumtime"], reverse=True)
    by_tot = sorted(entries, key=lambda e: e["tottime"], reverse=True)
    return {
        "top_cumtime": by_cum[:limit],
        "top_tottime": by_tot[:limit],
        "tottime_by_module": {
            m: round(t, 6)
            for m, t in sorted(modules.items(), key=lambda kv: -kv[1])
        },
    }


def charge_stream_stats(eng) -> dict | None:
    """Summed ChargeStream telemetry over every attached counter.

    Covers the bare-core engines (one stream on ``eng.ops``) and the
    sparsified facade (one per materialized node engine).  Returns None
    when no stream is attached (scalar backend), so the JSON
    key is present exactly when the compiled charge batching is live.
    """
    streams = []
    s = getattr(getattr(eng, "ops", None), "_stream", None)
    if s is not None:
        streams.append(s)
    nodes = getattr(eng, "nodes", None)
    if nodes:
        for node in nodes.values():
            if not getattr(node, "has_engine", False):
                continue
            core = getattr(node.engine, "core", None)
            s = getattr(getattr(core, "ops", None), "_stream", None)
            if s is not None:
                streams.append(s)
    if not streams:
        return None
    agg = {"streams": len(streams), "adds": 0, "drains": 0, "pending": 0}
    for s in streams:
        st = s.stats()
        agg["adds"] += st["adds"]
        agg["drains"] += st["drains"]
        agg["pending"] += st["pending"]
    agg["adds_per_drain"] = (round(agg["adds"] / agg["drains"], 2)
                             if agg["drains"] else None)
    return agg


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Profile an engine's hot paths under the churn workload.")
    parser.add_argument("engine", nargs="?", default="seq", choices=ENGINES,
                        help="engine to profile (default: seq)")
    parser.add_argument("n", nargs="?", type=int, default=1024,
                        help="vertex-set size (default: 1024)")
    parser.add_argument("steps", nargs="?", type=int, default=300,
                        help="number of updates (default: 300)")
    parser.add_argument("--sort", choices=("cumulative", "tottime"),
                        default="cumulative",
                        help="pstats sort key (default: cumulative)")
    parser.add_argument("--limit", type=int, default=18, metavar="N",
                        help="how many rows to print (default: 18)")
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="also dump the raw profile to FILE")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write a machine-readable hotspot-attribution "
                             "record (top-N cumtime/tottime rows plus "
                             "per-module totals) to FILE")
    parser.add_argument("--cold", action="store_true",
                        help="par-fast: skip the trace-replay warm-up "
                             "pass and profile the recording pass instead")
    parser.add_argument("--backend", choices=BACKENDS, default="scalar",
                        help="execution backend to profile (compiled "
                             "requires the built native extension; the "
                             "parallel engines are scalar-only)")
    args = parser.parse_args(argv)
    if args.engine in ("par", "par-fast") and args.backend != "scalar":
        parser.error(f"{args.engine} runs the parallel engine, which is "
                     f"scalar-only: drop --backend {args.backend}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Validate *everything* that can fail before the profiler starts, so a
    # typo never burns a multi-minute workload first.
    if args.n < 2:
        print(f"error: n must be >= 2, got {args.n}", file=sys.stderr)
        return 2
    if args.steps < 1:
        print(f"error: steps must be >= 1, got {args.steps}", file=sys.stderr)
        return 2
    try:
        eng, core_style = build(args.engine, args.n, backend=args.backend)
    except ValueError as exc:  # unreachable via argparse choices; belt+braces
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:  # BackendUnavailable without numpy
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = "cold"
    adversarial = args.engine in ("par", "par-fast")
    if (not args.cold
            and getattr(getattr(eng, "machine", None), "audit", None) == "fast"):
        # Warm the replay tier (PR 4 parity with the bench harness): drive
        # the workload once untimed so every kernel shape records its
        # TracePlan, then rebuild on the *same* machine --
        # ``reset_stats()`` keeps the value-keyed shape caches, so the
        # profiled loop shows the all-warm replay steady state instead of
        # the recording pass.  ``--cold`` still attributes recording cost.
        workload(eng, core_style, args.n, args.steps,
                 adversarial=adversarial)
        eng, core_style = build(args.engine, args.n, machine=eng.machine,
                                backend=args.backend)
        start = "warm"
    prof = cProfile.Profile()
    prof.enable()
    workload(eng, core_style, args.n, args.steps, adversarial=adversarial)
    prof.disable()
    stats = pstats.Stats(prof)
    stats.sort_stats(args.sort)
    print(f"== {args.engine} engine ({args.backend} backend), n={args.n}, "
          f"{args.steps} updates ({start} start): "
          f"top functions by {args.sort} ==")
    stats.print_stats(args.limit)
    if args.output:
        prof.dump_stats(args.output)
        print(f"raw profile written to {args.output}")
    if args.json:
        try:
            import numpy
            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        record = {
            "schema": JSON_SCHEMA,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "engine": args.engine,
            "backend": args.backend,
            "numpy": numpy_version,
            "n": args.n,
            "steps": args.steps,
            "workload": "adversarial" if adversarial else "churn",
            "start": start,
            **attribution(stats, args.limit),
        }
        streams = charge_stream_stats(eng)
        if streams is not None:
            record["charge_streams"] = streams
        cache_info = getattr(getattr(eng, "machine", None),
                             "cache_info", None)
        if cache_info is not None:
            # replay-tier telemetry (PR 4): lets CI artifacts show cache
            # pressure and warm hit rate next to the attribution rows
            record["pram_cache_info"] = cache_info()
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"hotspot attribution written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
