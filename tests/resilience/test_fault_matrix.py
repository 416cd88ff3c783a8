"""Site x engine fault matrix: detect-or-mask, then bit-identical state.

For every (injection site, engine configuration) pair this suite runs a
short seeded campaign and asserts the resilience layer's end-to-end
contract:

* the campaign finishes ``ok`` -- every injected fault was detected (and
  recovered through the ladder) or provably masked: clean final full
  audit, forest equal to the Kruskal oracle, and a
  :func:`~repro.resilience.checks.state_fingerprint` bit-identical to a
  never-faulted twin replaying the same op stream;
* zero wrong answers survive recovery;
* sites unreachable under a configuration (e.g. ``pram.*`` on sequential
  engines) schedule faults that are reported *unreached*, never injected.
"""

from __future__ import annotations

import pytest

from repro.resilience import faults
from repro.resilience.soak import SITES_BY_CONFIG, run_campaign

#: short campaign parameters per engine kind (parallel pays the lockstep
#: simulator, so its streams are shorter)
_KW = {
    "sequential": dict(n=32, n_ops=200, n_faults=4),
    "parallel": dict(n=20, n_ops=100, n_faults=3),
}
#: sparsified campaigns use fewer vertices, so the stream's live edges
#: pass ``GROW_ABOVE * n`` and the faults land on the grown tree too
_SPARSE = {"sequential": dict(n=12), "parallel": dict(n=7, n_ops=160)}


def _kw(engine: str, sparsify: bool) -> dict:
    return {**_KW[engine], **(_SPARSE[engine] if sparsify else {})}

MATRIX = [
    (engine, sparsify, site)
    for (engine, sparsify), sites in sorted(SITES_BY_CONFIG.items())
    for site in sites
]


@pytest.mark.parametrize(
    "engine,sparsify,site", MATRIX,
    ids=[f"{e}-{'sparse' if s else 'flat'}-{site}"
         for e, s, site in MATRIX])
def test_site_detect_or_mask(engine, sparsify, site):
    report = run_campaign(7, engine=engine, sparsify=sparsify,
                          sites=[site], **_kw(engine, sparsify))
    assert report["ok"], report["final"]
    assert report["wrong_answers"] == 0
    assert report["unexpected_rejections"] == 0
    # each injected fault is accounted for: detected or masked
    assert (report["n_detected"] + report["n_masked"]
            >= report["n_injected"])
    if site.startswith("pram."):
        # a listed pram site must really inject on a parallel engine
        # (cells are launch-scoped, plans need the replay tier), so a
        # site that can never fire fails here instead of passing unreached
        assert site in report["sites_hit"], report["faults"]["log"]
    # masked claims are *proved*, not assumed
    final = report["final"]
    assert final["self_check_full_clean"]
    assert final["msf_match"] and final["weight_match"]
    assert final["twin_fingerprint_match"]


def test_pram_cell_injects_into_tuple_cells():
    """On a small sparsified parallel tree the cells live at the
    scheduled steps hold no finite float or int, only ``(w, eid)`` keys
    and BT_c ``(units, edges)`` aggregates; ``pram.cell`` must still
    inject every fault, and the campaign must stay green."""
    report = run_campaign(7, engine="parallel", sparsify=True, n=6,
                          n_ops=100, sites=["pram.cell"], n_faults=3)
    assert report["n_injected"] == 3, report["faults"]["log"]
    assert report["ok"], report["final"]
    assert report["wrong_answers"] == 0
    assert report["n_detected"] + report["n_masked"] >= 3


@pytest.mark.parametrize("engine,sparsify", [("sequential", True),
                                             ("sequential", False)])
def test_unreachable_pram_sites_never_inject(engine, sparsify):
    """pram.* sites cannot fire on machine-less sequential engines."""
    report = run_campaign(
        3, engine=engine, sparsify=sparsify,
        sites=["pram.cell", "pram.plan"],
        **_kw("sequential", sparsify))
    assert report["ok"]
    assert report["n_injected"] == 0
    assert report["faults"]["unreached"] == report["faults"]["scheduled"]
    assert report["sites_hit"] == []


def test_multi_site_campaign_sequential():
    """All reachable sites armed at once still recovers everything."""
    report = run_campaign(1, engine="sequential", sparsify=True,
                          n=24, n_ops=320, n_faults=6)
    assert report["ok"], report["final"]
    assert report["wrong_answers"] == 0


def test_multi_site_campaign_parallel():
    report = run_campaign(1, engine="parallel", sparsify=False,
                          n=24, n_ops=120, n_faults=5)
    assert report["ok"], report["final"]
    assert report["wrong_answers"] == 0


def test_campaigns_replay_bit_identically():
    """A campaign is a pure function of its seed: replaying a seed gives
    the same injections, detections and final report."""
    kw = dict(engine="sequential", sparsify=True, n=32, n_ops=200,
              n_faults=4)
    a = run_campaign(5, **kw)
    b = run_campaign(5, **kw)
    assert a == b


def test_disarmed_after_campaign():
    run_campaign(0, engine="sequential", sparsify=False, n=24, n_ops=80,
                 n_faults=2)
    assert not faults.armed
    assert faults.active_plan() is None
