"""Run the repository benchmark.

One workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload serve-rw --seed 0 --seconds 10 --trace 0

prints every end-to-end metric that applies to the workload by name with
its unit and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``BENCHMARK.json``
end-to-end metrics).  ``--trace 1`` makes the traced run instead and
prints the per-layer metrics.  Without ``--workload`` every workload
runs, each in a fresh subprocess.  The exit code is non-zero when a
correctness check fails.  Seed 0 is the default; seed 1 is kept back for
checking claims.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # import the repository's sources and this package -- not the
    # script's own directory, where ``trace`` would shadow the stdlib
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

#: durability directories and cluster stores live under here, per process
RUN_ROOT = ROOT / ".bench_run"
#: set-ups per untraced run; ``setup_s`` is their median, and the timed
#: phase runs on the last one
SETUPS = 3
#: a timed phase that runs this many times longer than ``--seconds`` is
#: cut short, so that a much slower program still ends in time
WALL_CAP = 6
#: the percentiles ``commit_latency_tail_us`` chooses from, highest first
TAIL_PERCENTILES = (0.999, 0.99, 0.95, 0.90)
#: the ``OpCounter.breakdown()`` labels the engines charge
CHARGE_LABELS = ("lsds_pull", "occ_scan", "row_clear", "col_mirror",
                 "edge_scan", "id_release", "id_assign", "col_sweep",
                 "root_walk", "mwr_gamma", "mwr_argmin", "mwr_scan", "lct",
                 "entry_update", "occ_insert", "occ_delete", "bt_refresh")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def percentile(sorted_values: list, q: float) -> float:
    """Linearly interpolated ``q`` quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi]
                                - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> tuple[float, int]:
    """The highest of :data:`TAIL_PERCENTILES` that has at least ten of
    ``count`` samples beyond it (the lowest when none has), and how many
    samples lie beyond it."""
    for q in TAIL_PERCENTILES:
        beyond = count - math.ceil(q * count)
        if beyond >= 10:
            break
    return q, beyond


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------------ host


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` directly (a checkout without
    one reports ``unknown``; no parent directory is searched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block() -> dict:
    from repro.core import compiled
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": git_commit(),
            "compiled": compiled.HAVE_COMPILED}


def ensure_compiled() -> None:
    """Build the ``_kernels`` extension before any timing, then make the
    run in a fresh process, so every module sees the extension and the
    compiler does not count in ``peak_rss_mb``.  A run never falls back
    to scalar."""
    from repro.core import compiled
    if compiled.HAVE_COMPILED:
        return
    if os.environ.get("REPRO_BENCH_BUILT"):
        raise SystemExit("the compiled extension was built but does not "
                         "import; refusing to measure without it")
    log("building the compiled extension: python -m "
        "repro.core.compiled.build")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "repro.core.compiled.build"],
                   cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    env = dict(os.environ, REPRO_BENCH_BUILT="1")
    raise SystemExit(subprocess.run([sys.executable, *sys.argv],
                                    env=env).returncode)


# --------------------------------------------------------------- session


class Segment:
    """What one pass of the op loop measured."""

    def __init__(self) -> None:
        self.ops = 0                      # ops consumed
        self.calls = 0                    # of them, calls made
        self.failed = 0                   # ops that raised or were skipped
        self.stop = 0                     # index after the last op driven
        self.wall_ns = 0                  # first call start to last end
        self.latency_ns: list[int] = []   # one per commit
        self.totals: list[int] = []       # charged total after each update


class Session:
    """One target (front or engine) and the benchmark's own view of it:
    the handle each insert returned and the edges it made live."""

    def __init__(self, wl, ops: list, setup_len: int, n: int,
                 directory: Path) -> None:
        self.wl = wl
        self.ops = ops
        self.setup_len = setup_len
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.handles: dict[int, object] = {}   # op index -> handle
        self.live: dict[int, tuple] = {}       # op index -> (u, v, w)
        self.errors: list[str] = []
        self.target = wl.build(n, str(directory))
        self.setup_failed = 0

    def setup(self) -> None:
        self.setup_failed = self.drive(0, self.setup_len).failed
        if self.wl.kind == "front":
            self.target.flush()

    def drive(self, start: int, stop: int, *, seconds: float = None,
              tracer=None, counter=None) -> Segment:
        """Closed loop over ``ops[start:stop]`` with one caller: each
        call starts after the previous one returned.  Stops early once
        ``seconds`` have passed.  ``counter`` (engines) is read after
        every update for per-update charges."""
        ops, handles, live = self.ops, self.handles, self.live
        target = self.target
        insert, delete = target.insert_edge, target.delete_edge
        connected, weight = target.connected, target.msf_weight
        front = self.wl.kind == "front"
        perf = time.perf_counter_ns
        seg = Segment()
        latency = seg.latency_ns
        limit = None if seconds is None else int(seconds * 1e9)
        first = last = perf()
        seg.stop = stop
        for i in range(start, stop):
            op = ops[i]
            tag = op[0]
            seg.ops += 1
            if tag == "del":
                handle = handles.pop(op[1], None)
                if handle is None:   # its insert failed
                    seg.failed += 1
                    continue
            if tracer is not None:
                tracer.op = i
                span = tracer.begin("bench.driver")
            epoch = target.epoch if front else 0
            ok = True
            t0 = perf()
            try:
                if tag == "ins":
                    handle = insert(op[1], op[2], op[3])
                elif tag == "del":
                    delete(handle)
                elif tag == "conn":
                    connected(op[1], op[2])
                else:
                    weight()
            except Exception as exc:  # noqa: BLE001 - counted and reported
                ok = False
                seg.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"op {i} {op!r}: {exc!r}")
            last = perf()
            if tracer is not None:
                tracer.end(span)
            seg.calls += 1
            if (target.epoch != epoch if front
                    else tag == "ins" or tag == "del"):
                latency.append(last - t0)
                if counter is not None:
                    seg.totals.append(counter.grand_total())
            if ok:
                if tag == "ins":
                    handles[i] = handle
                    live[i] = op[1:]
                elif tag == "del":
                    del live[op[1]]
            if limit is not None and last - first >= limit:
                seg.stop = i + 1
                break
        seg.wall_ns = last - first
        return seg

    # ------------------------------------------------------------ checks

    def check_forest(self) -> list[str]:
        """The forest must be Kruskal's over the live edges recorded here."""
        from repro.reference.oracle import kruskal
        target = self.target
        bare = self.wl.name == "pram-cuts"   # handles are Edge objects
        if self.wl.kind == "front":
            target.flush()
        edges = {(h.eid if bare else h): self.live[i]
                 for i, h in self.handles.items()}
        want = kruskal((u, v, w, e) for e, (u, v, w) in edges.items())
        got = ({e.eid for e in target.msf_edges()} if bare
               else target.msf_ids())
        problems = []
        if got != want:
            problems.append(f"forest differs from Kruskal's in "
                            f"{len(got ^ want)} edges")
        want_w = math.fsum(edges[e][2] for e in want)
        got_w = target.msf_weight()
        if not math.isclose(got_w, want_w, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"msf_weight {got_w!r} != Kruskal's {want_w!r}")
        return problems

    def close_and_restore(self, tracer=None) -> tuple[int, list, dict]:
        """Fingerprint, ``close()``, then a timed ``repro.persist.restore``
        (traced when ``tracer`` is given); the restored front must have
        the same fingerprint.  Returns (restore ns, problems, stats of the
        durability directory)."""
        import repro.persist as persist
        from repro.resilience.checks import state_fingerprint
        front = self.target
        front.flush()
        expected = state_fingerprint(front)
        directory = front.durability.directory
        records, applied = front.epoch, front.stats["ops_applied"]
        front.close()
        stats = durable_stats(directory, records, applied)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            restored, report = persist.restore(directory, pool_size=2,
                                               snapshot_every=16)
            wall = time.perf_counter_ns() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = [f"restore finding: {f}" for f in report["findings"]]
        if state_fingerprint(restored) != expected:
            problems.append("restored fingerprint differs from the live "
                            "front's")
        restored.close()
        return wall, problems, stats

    def close(self) -> None:
        close = getattr(self.target, "close", None)
        if close is not None:
            close()


def durable_stats(directory: str, records: int, applied: int) -> dict:
    sizes = {name: os.path.getsize(os.path.join(directory, name))
             for name in os.listdir(directory)}
    snaps = [size for name, size in sizes.items()
             if name.startswith("snap-") and name.endswith(".json")]
    return {"durable_bytes_per_op": ratio(sum(sizes.values()), applied),
            "wal.bytes_per_record": ratio(sizes.get("wal.db", 0), records),
            "snapshot.count": len(snaps),
            "snapshot.bytes": sum(snaps)}


def new_session(wl, ops, setup_len, n, run_dir: Path,
                tag: str) -> tuple[Session, float]:
    """Construct and set up one target; returns it and the seconds."""
    gc.collect()
    t0 = time.perf_counter()
    session = Session(wl, ops, setup_len, n, run_dir / tag)
    session.setup()
    return session, time.perf_counter() - t0


def setup_only(wl, ops, setup_len, n, run_dir: Path, tag: str) -> float:
    """The seconds of one set-up; the target is closed and dropped."""
    session, seconds = new_session(wl, ops, setup_len, n, run_dir, tag)
    session.close()
    return seconds


# ------------------------------------------------------------------ runs


class Pass:
    """One set-up, the timed ops, the checks and, on ``ingest-durable``,
    the close and timed restore: what :func:`measure` returns."""

    def __init__(self, setup_s: float, seg: Segment, restore_ns: int,
                 measured: dict, details: dict, problems: list,
                 errors: list, rss_mb: float) -> None:
        self.setup_s = setup_s
        self.seg = seg
        #: the serving-time metrics, the ``EXTRA_METRICS`` and every
        #: per-layer count, by name (0 where a layer is unused)
        self.measured = measured
        #: the tail's percentile and sample counts, for the record
        self.details = details
        self.problems = problems
        self.errors = errors
        self.rss_mb = rss_mb
        self.wall_ns = seg.wall_ns + restore_ns

    def extra(self, workload: str) -> dict:
        """The ``EXTRA_METRICS`` that apply to ``workload``."""
        from bench.metrics import EXTRA_METRICS, applies
        return {m["name"]: self.measured[m["name"]]
                for m in EXTRA_METRICS if applies(m, workload)}


def measure(wl, ops, setup_len, stop, n, run_dir, *, seconds: float,
            tag: str, tracer=None) -> Pass:
    """Set up a fresh target and drive ``ops[setup_len:stop]`` on it,
    traced when ``tracer`` is given."""
    session, setup_s = new_session(wl, ops, setup_len, n, run_dir, tag)
    target = session.target
    counter = (target.ops if tracer is not None and wl.kind == "engine"
               else None)
    before = layer_counts(wl, target)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        seg = session.drive(setup_len, stop, seconds=WALL_CAP * seconds,
                            tracer=tracer, counter=counter)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = layer_counts(wl, target)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = session.check_forest()
    if session.setup_failed:
        problems.append(f"{session.setup_failed} set-up ops failed")
    if wl.kind == "front":   # a rejected op counts as failed
        seg.failed += target.stats["ops_rejected"] - before["ops_rejected"]
    restore_ns, durable = 0, {}
    if wl.name == "ingest-durable":
        restore_ns, more, durable = session.close_and_restore(tracer)
        problems += more
    session.close()
    # the cluster's workers have been joined by now: add the peak of the
    # largest one (no other workload starts a process)
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    latency = sorted(seg.latency_ns)
    tail, beyond = tail_percentile(len(latency))
    measured = layer_values(wl, target, before, after, seg,
                            tracer.counts if tracer is not None else {})
    measured.update(
        durable, restore_s=restore_ns / 1e9,
        throughput_ops_s=ratio(seg.calls, seg.wall_ns / 1e9),
        commit_latency_p50_us=percentile(latency, 0.5) / 1e3,
        commit_latency_tail_us=percentile(latency, tail) / 1e3,
        error_rate=1.0 if problems else ratio(seg.failed, seg.ops))
    details = {
        "tail_percentile": f"p{tail * 100:g}",
        "tail_samples_beyond": beyond,
        "commits": len(latency), "timed_s": seg.wall_ns / 1e9,
        "latency_us": {f"p{q * 100:g}": percentile(latency, q) / 1e3
                       for q in (0.5, *reversed(TAIL_PERCENTILES))},
        "cut_short": seg.stop < stop}
    return Pass(setup_s, seg, restore_ns, measured, details, problems,
                session.errors, rss_kb / 1024)


def run_untraced(wl, args, n, run_dir) -> dict:
    """``SETUPS`` set-ups, then the timed phase on the last one."""
    ops, setup_len = wl.make_ops(args.seed, n, wl.steps(args.seconds),
                                 args.scale)
    setups = [setup_only(wl, ops, setup_len, n, run_dir, f"setup-{k}")
              for k in range(SETUPS - 1)]
    p = measure(wl, ops, setup_len, len(ops), n, run_dir,
                seconds=args.seconds, tag="timed")
    setups.append(p.setup_s)
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": p.rss_mb}
    details = dict(p.details, setups_s=setups, errors=p.errors)
    return finish(wl, args, values, p.extra(wl.name), details, p.seg.ops,
                  p.seg.failed, p.problems)


def run_traced(wl, args, n, run_dir) -> dict:
    """The timed ops twice, each on a fresh set-up: untraced, then
    traced.  Their wall-time ratio is the tracing overhead, and the
    wall-clock metrics come from the untraced pass.  The traced pass
    replays exactly the ops the untraced one ran."""
    from bench.metrics import WALL_CLOCK
    from bench.trace import SPAN_NAMES, Tracer, summarize
    ops, setup_len = wl.make_ops(args.seed, n, wl.steps(args.seconds),
                                 args.scale)
    plain = measure(wl, ops, setup_len, len(ops), n, run_dir,
                    seconds=args.seconds, tag="plain")
    gc.collect()
    tracer = Tracer()
    traced = measure(wl, ops, setup_len, plain.seg.stop, n, run_dir,
                     seconds=args.seconds, tag="traced", tracer=tracer)
    wall = traced.wall_ns
    values = {}
    for name, row in summarize(tracer.spans, wall).items():
        for key, value in row.items():
            values[f"{name}.{key}"] = value
    attributed = sum(values[f"{name}.self_ms"] for name in SPAN_NAMES) * 1e6
    values["trace.unattributed_pct"] = 100 * ratio(wall - attributed, wall)
    values["trace.overhead_pct"] = 100 * (ratio(wall, plain.wall_ns) - 1)
    reads = values["serve.snapshot_read.calls"]
    values["serve.snapshot_reuse_ratio"] = (
        1 - ratio(values["serve.snapshot_build.calls"], reads)
        if reads else 0)
    values.update(traced.measured)
    values.update((name, plain.measured[name]) for name in WALL_CLOCK)
    del values["error_rate"]   # the result line's failed / attempted
    if args.spans:
        from bench.trace import spans_json
        Path(args.spans).write_text(json.dumps(spans_json(tracer.spans)))
    details = dict(plain.details, segment_calls=traced.seg.calls,
                   walls_s=[plain.wall_ns / 1e9, wall / 1e9],
                   spans=len(tracer.spans),
                   errors=plain.errors + traced.errors)
    return finish(wl, args, values, {}, details,
                  plain.seg.ops + traced.seg.ops,
                  plain.seg.failed + traced.seg.failed,
                  plain.problems + traced.problems)


def layer_counts(wl, target) -> dict:
    """Counter readings; per-layer counts are differences of two."""
    if wl.kind == "front":
        out = dict(target.stats)
        if wl.name == "cluster-mix":
            coord = target._coord.stats
            out["cluster.batches"] = coord["batches"]
            out["cluster.ops_routed"] = coord["ops_routed"]
        return out
    out = {"total": target.ops.grand_total(),
           "breakdown": target.ops.breakdown()}
    if wl.name == "pram-cuts":
        machine = target.machine
        out.update(updates=len(target.update_stats),
                   fast_hits=machine.fast_hits,
                   fast_misses=machine.fast_misses)
    return out


def layer_values(wl, target, before, after, seg, tracer_counts) -> dict:
    """Per-layer counts of one pass (0 where a layer is unused).  The
    per-update maximum needs ``seg.totals``, which only a traced pass
    records."""
    d = {k: v - before[k] for k, v in after.items() if isinstance(v, int)}
    values = dict.fromkeys(
        ["serve.cancel_ratio", "serve.ops_per_batch",
         "sparsify.stations_per_plan", "cluster.ops_per_batch",
         "charged_ops_per_update", "core.charged_max_per_update",
         "pram_depth_per_update", "pram_work_per_update",
         "pram.depth_max_per_update", "pram.work_max_per_update",
         "pram.plan_hit_ratio", "durable_bytes_per_op",
         "wal.bytes_per_record", "snapshot.count", "snapshot.bytes"]
        + [f"core.charged.{label}" for label in CHARGE_LABELS], 0)
    if wl.kind == "front":
        values["serve.cancel_ratio"] = ratio(d["ops_cancelled"],
                                             d["ops_submitted"])
        values["serve.ops_per_batch"] = ratio(d["ops_applied"], d["batches"])
        values["sparsify.stations_per_plan"] = ratio(
            tracer_counts.get("sparsify.stations", 0),
            tracer_counts.get("sparsify.plans", 0))
        if wl.name == "cluster-mix":
            values["cluster.ops_per_batch"] = ratio(d["cluster.ops_routed"],
                                                    d["cluster.batches"])
        return values
    updates = len(seg.latency_ns)
    steps = [b - a for a, b in zip([before["total"], *seg.totals],
                                   seg.totals)]
    values["charged_ops_per_update"] = ratio(d["total"], updates)
    values["core.charged_max_per_update"] = max(steps, default=0)
    for label in CHARGE_LABELS:
        values[f"core.charged.{label}"] = ratio(
            after["breakdown"].get(label, 0)
            - before["breakdown"].get(label, 0), updates)
    if wl.name == "pram-cuts":
        window = target.update_stats[before["updates"]:after["updates"]]
        values["pram_depth_per_update"] = ratio(
            sum(s.depth for s in window), len(window))
        values["pram_work_per_update"] = ratio(
            sum(s.work for s in window), len(window))
        values["pram.depth_max_per_update"] = max(
            (s.depth for s in window), default=0)
        values["pram.work_max_per_update"] = max(
            (s.work for s in window), default=0)
        values["pram.plan_hit_ratio"] = ratio(
            d["fast_hits"], d["fast_hits"] + d["fast_misses"])
    return values


# ---------------------------------------------------------------- output


def finish(wl, args, values, extra_values, details, attempted, failed,
           problems) -> dict:
    """Check ``values`` against ``BENCHMARK.json``, print them and the
    extra metrics, and return the run record."""
    from bench.metrics import EXTRA_METRICS, spec
    section = "per_layer" if args.trace else "end_to_end"
    declared = spec()[section]
    undeclared = set(values) - {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json "
                           f"{section}: {sorted(undeclared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    extra = {m["name"]: {"value": extra_values[m["name"]],
                         "unit": m["unit"]}
             for m in EXTRA_METRICS if m["name"] in extra_values}
    host = host_block()
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} host={json.dumps(host)}")
    for name, m in {**metrics, **extra}.items():
        note = ""
        if name == "commit_latency_tail_us":
            note = (f"  ({details['tail_percentile']}, "
                    f"{details['tail_samples_beyond']} of "
                    f"{details['commits']} commits beyond)")
        print(f"{name:<34} {m['value']:>16.6f} {m['unit']}{note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "trace": args.trace, "host": host,
            "correct": not problems, "attempted": attempted,
            "failed": attempted if problems else failed,
            "metrics": metrics, "extra_metrics": extra,
            "details": details, "problems": problems}


def remove_empty_run_root() -> None:
    try:
        RUN_ROOT.rmdir()
    except OSError:   # absent, or another run still uses it
        pass


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess."""
    from bench.workloads import WORKLOADS
    records, status = [], 0
    RUN_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_ROOT) as tmp:
        for name in WORKLOADS:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--scale", str(args.scale),
                   "--out", str(out)]
            status |= subprocess.run(cmd).returncode
            if out.exists():
                records += json.loads(out.read_text())
    remove_empty_run_root()
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1))
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the timed phase "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph-size factor, for smoke runs")
    parser.add_argument("--out", help="write the run records (JSON) here")
    parser.add_argument("--spans", help="traced run: write its spans "
                        "(JSON) here")
    args = parser.parse_args(argv)
    try:
        from bench.metrics import spec
        from bench.workloads import WORKLOADS, scaled_n
    except ImportError as exc:
        log(f"cannot import the program under test: {exc!r}")
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    ensure_compiled()
    wl = WORKLOADS[args.workload]
    run_dir = RUN_ROOT / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # keep every temporary file the program makes inside the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir)
    try:
        run = run_traced if args.trace else run_untraced
        record = run(wl, args, scaled_n(wl, args.scale), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        remove_empty_run_root()
    if args.out:
        Path(args.out).write_text(json.dumps([record], indent=1))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
