"""Shared helpers for the experiment and regression harnesses.

Every experiment module exposes ``run_experiment(fast=False) -> str`` (the
rendered table(s) + verdicts) and at least one pytest-benchmark test;
``run_experiments.py`` calls the former to regenerate EXPERIMENTS.md data.

Every wall-clock figure in ``benchmarks/`` is sampled by :func:`rounds`,
and every engine-level op stream is driven by :func:`replay`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.tables import render_table

__all__ = ["PerUpdate", "drive_core_measured", "drive_parallel_measured",
           "replay", "cheap_check", "rounds", "MAX_ROUNDS",
           "summary_row", "render_table", "banner"]

#: hard cap on the rounds one :func:`rounds` call may run
MAX_ROUNDS = 12


def rounds(arms: dict[str, Callable[[], float]], *, min_rounds: int,
           budget_s: float) -> list[dict[str, float]]:
    """Sample timed arms in rotating order; one dict of seconds per round.

    Each arm is a zero-argument callable that runs once and returns the
    seconds it measured.  A round runs every arm once, and the arm order
    rotates by one from round to round, so slow host drift does not land
    on one arm.  Sampling stops once at least ``min_rounds`` rounds and
    ``budget_s`` seconds of arm time are done, or at :data:`MAX_ROUNDS`.
    The caller picks the statistic: the minimum for single-arm timings,
    the median of per-round ratios for paired arms.
    """
    names = list(arms)
    out: list[dict[str, float]] = []
    spent = 0.0
    while len(out) < MAX_ROUNDS and (len(out) < min_rounds
                                     or spent < budget_s):
        k = len(out) % len(names)
        sample = {name: arms[name]() for name in names[k:] + names[:k]}
        spent += sum(sample.values())
        out.append(sample)
    return out


def replay(engine, ops, core_style: bool, *, check_every: int = 0) -> None:
    """Drive one op stream through an engine or a serving front.

    ``core_style`` engines take explicit eids (``10_000 + op index``);
    fronts draw their own.  Read ops (``conn``, ``weight``) are issued as
    queries, a batched front is flushed at the end, and an engine with a
    ``run_ops`` method interprets its own stream.  ``check_every > 0``
    runs a cheap self-check every that many ops and once at the end.
    """
    run_ops = getattr(engine, "run_ops", None)
    if run_ops is not None:
        run_ops(ops)
        return
    handles = {}
    idx = 0
    for op in ops:
        tag = op[0]
        if tag == "ins":
            _t, u, v, w = op
            if core_style:
                handles[idx] = engine.insert_edge(u, v, w, eid=10_000 + idx)
            else:
                handles[idx] = engine.insert_edge(u, v, w)
        elif tag == "del":
            engine.delete_edge(handles.pop(op[1]))
        elif tag == "conn":
            engine.connected(op[1], op[2])
        elif tag == "weight":
            engine.msf_weight()
        idx += 1
        if check_every and idx % check_every == 0:
            cheap_check(engine)
    flush = getattr(engine, "flush", None)
    if flush is not None:
        flush()
    if check_every:
        cheap_check(engine)


def cheap_check(engine) -> None:
    """One cheap-tier self-audit; a dirty engine voids the measurement."""
    if hasattr(engine, "self_check"):
        findings = engine.self_check("cheap")
    else:  # bare core engines
        from repro.resilience import checks
        findings = checks.check_engine(engine, "cheap")
    if findings:
        raise RuntimeError(
            f"cheap self-check found problems mid-benchmark: "
            f"{[str(f) for f in findings[:3]]}")


@dataclass
class PerUpdate:
    """Per-update cost samples of one run."""

    samples: list[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0

    @property
    def p99(self) -> float:
        if not self.samples:
            return 0.0
        s = sorted(self.samples)
        return s[min(len(s) - 1, int(0.99 * len(s)))]

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0


def drive_core_measured(engine, ops, *, eid_base: int = 10_000,
                        want: Optional[Callable] = None) -> PerUpdate:
    """Replay an op stream on a core engine, sampling ops-per-update.

    ``want`` filters which updates are sampled, e.g. only deletions
    (``lambda op: op[0] == "del"``).
    """
    handles = {}
    samples: list[float] = []
    idx = 0
    counter = engine.ops
    for op in ops:
        counter.mark()
        if op[0] == "ins":
            _t, u, v, w = op
            handles[idx] = engine.insert_edge(u, v, w, eid=eid_base + idx)
        else:
            engine.delete_edge(handles.pop(op[1]))
        if want is None or want(op):
            samples.append(counter.since_mark())
        idx += 1
    return PerUpdate(samples)


def drive_parallel_measured(engine, ops):
    """Replay on the parallel engine; returns its KernelStats list."""
    replay(engine, ops, True)
    return engine.update_stats


def summary_row(label, per: PerUpdate) -> list:
    return [label, len(per.samples), round(per.mean, 1), per.p99, per.max]


def banner(title: str, body: str) -> str:
    bar = "#" * max(len(title) + 4, 40)
    return f"{bar}\n# {title}\n{bar}\n{body}\n"
