"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``bench/run.py --out`` record list.  For every end-to-end
metric with a relative or absolute bound (``BENCHMARK.json``'s and the
``EXTRA_METRICS`` of ``metrics.py``) the table shows each set's median
and quartiles, the change of B's median against A's, and a verdict:

* ``unresolved`` -- a set's own spread (quartile distance, over the
  median for a relative bound) exceeds the metric's bound, so the sets
  cannot be told apart;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``ok`` -- otherwise.

Deterministic values must repeat exactly for a seed: the exact extra
metrics of untraced runs and the per-layer counts of traced runs.  Every
run of either set is checked against A's first run of the same workload,
seed and mode, and each mismatch is reported as ``differs``.  Per-layer
times are not compared.  The exit code is 1 when any row is ``worse``,
``unresolved`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    # import this package, not modules of the script's own directory
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.metrics import EXTRA_METRICS, spec  # noqa: E402

#: per-layer units that measure time; every other per-layer metric is a
#: count and repeats exactly for a seed
TIME_UNITS = {"ms", "s", "share", "%", "us", "ops/s"}


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records += data if isinstance(data, list) else [data]
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(records: list[dict]) -> dict[str, dict]:
    """Untraced records: workload -> metric -> values."""
    out: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        if rec["trace"] != 0:
            continue
        metrics = out.setdefault(rec["workload"], {})
        for name, m in {**rec["metrics"], **rec["extra_metrics"]}.items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def bounded_rows(a: dict, b: dict) -> list[list]:
    specs = spec()["end_to_end"] + [m for m in EXTRA_METRICS
                                  if m["kind"] != "exact"]
    rows = []
    for workload in sorted(set(a) & set(b)):
        for m in specs:
            name, bound = m["name"], m["bound"]
            if name not in a[workload] or name not in b[workload]:
                continue   # the metric does not apply to the workload
            relative = m.get("kind", "relative") == "relative"
            qa, qb = quartiles(a[workload][name]), quartiles(b[workload][name])

            def scaled(x: float, base: float) -> float:
                if not relative:
                    return x
                return x / base if base else 0.0

            change = scaled(qb[1] - qa[1], qa[1])
            worse = change if m["better"] == "lower" else -change
            spread = max(scaled(q[2] - q[0], q[1]) for q in (qa, qb))
            verdict = ("unresolved" if spread > bound
                       else "worse" if worse > bound else "ok")
            rows.append([workload, name, *qa, *qb, change, relative, bound,
                         verdict])
    return rows


def exact_rows(a: list[dict], b: list[dict]) -> list[list]:
    """Mismatches of values that must repeat exactly for a seed."""
    exact = {m["name"] for m in EXTRA_METRICS if m["kind"] == "exact"}
    counts = {m["name"] for m in spec()["per_layer"]
              if m["unit"] not in TIME_UNITS}
    first: dict[tuple, dict] = {}
    for rec in a:
        first.setdefault((rec["workload"], rec["seed"], rec["trace"]), rec)
    rows = []
    for label, records in (("A", a), ("B", b)):
        for rec in records:
            ref = first.get((rec["workload"], rec["seed"], rec["trace"]))
            if ref is None or ref is rec:
                continue
            section, names = (("metrics", counts) if rec["trace"]
                              else ("extra_metrics", exact))
            for name in sorted(names & set(rec[section]) & set(ref[section])):
                va = ref[section][name]["value"]
                vb = rec[section][name]["value"]
                if va != vb:
                    rows.append([rec["workload"], rec["seed"], name, va,
                                 label, vb])
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    a, b = load(argv[:cut]), load(argv[cut + 1:])
    status = 0
    print(f"{'workload':<15} {'metric':<24} {'A q1':>11} {'A median':>11} "
          f"{'A q3':>11} {'B q1':>11} {'B median':>11} {'B q3':>11} "
          f"{'change':>9} {'bound':>6}  verdict")
    for (wl, name, a1, am, a3, b1, bm, b3, change, relative, bound,
         verdict) in bounded_rows(by_workload(a), by_workload(b)):
        shown = f"{change:>+9.2%}" if relative else f"{change:>+9.3g}"
        print(f"{wl:<15} {name:<24} {a1:>11.4g} {am:>11.4g} {a3:>11.4g} "
              f"{b1:>11.4g} {bm:>11.4g} {b3:>11.4g} {shown} "
              f"{bound:>6.2f}  {verdict}")
        status |= verdict != "ok"
    for wl, seed, name, va, label, vb in exact_rows(a, b):
        print(f"{wl:<15} seed {seed} {name:<34} differs: A's first run "
              f"{va}, a run of {label} {vb}")
        status = 1
    return 1 if status else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
