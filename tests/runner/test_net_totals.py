"""Network transfer totals: counted in workers, shipped through the pool,
stored in the cache — ``--jobs N`` reports what a serial run reports."""

import json

from repro.campaign import Campaign, WorkerConfig, build_cells
from repro.faults import FaultPlan
from repro.runner import ExperimentRunner, ResultCache

#: One network-simulating driver, one analytic, one table.
IDS = ["fig05", "fig12_13", "table1"]
#: The sampled plan of the campaign smoke job (``--horizon 10 --nodes 2
#: --node-mtbf 2 --nic-mtbf 2 --seed 7``).
PLAN_HORIZON_S = 10.0
PLAN_MTBF_S = 2.0


def test_net_totals_survive_process_pool_fanout():
    pooled = {o.exp_id: o for o in ExperimentRunner(None).run(IDS, jobs=2)}
    fast, total = pooled["fig12_13"].net
    assert fast > 0 and total >= fast
    assert pooled["fig05"].net == (0, 0)
    assert pooled["table1"].net == (0, 0)
    # worker-side counting: the parent process totals must not be the
    # source (they'd be zero), and serial execution must agree exactly
    serial = {o.exp_id: o for o in ExperimentRunner(None).run(IDS, jobs=1)}
    for exp_id in IDS:
        assert serial[exp_id].net == pooled[exp_id].net


def test_cache_hit_reports_stored_net_totals(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = {o.exp_id: o for o in ExperimentRunner(cache).run(IDS, jobs=2)}
    warm = {o.exp_id: o for o in ExperimentRunner(cache).run(IDS)}
    for exp_id in IDS:
        assert warm[exp_id].from_cache
        assert warm[exp_id].net == cold[exp_id].net
    assert warm["fig12_13"].net[0] > 0


def test_entries_predating_net_field_still_load(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    [o] = ExperimentRunner(cache).run(["fig05"])
    path = cache.path_for(o.key)
    data = json.loads(path.read_text())
    data.pop("net", None)
    path.write_text(json.dumps(data))
    entry = cache.get(o.key)
    assert entry is not None and entry.net is None
    [warm] = ExperimentRunner(cache).run(["fig05"])
    assert warm.from_cache and warm.net is None


def test_campaign_warmed_cache_reports_net_totals(tmp_path):
    # Campaign cells execute through the runner, so the entries they
    # store carry the same totals as a fresh ``repro all``, fault-free
    # and under a sampled plan alike.
    plan = FaultPlan.sample(
        PLAN_HORIZON_S, 2,
        node_mtbf_s=PLAN_MTBF_S, nic_mtbf_s=PLAN_MTBF_S, seed=7,
    ).to_dict()
    cache_dir = tmp_path / "cache"
    cells = build_cells(IDS, [("none", None), ("sampled", plan)])
    campaign = Campaign.create(
        "net", cells, WorkerConfig(cache_dir=str(cache_dir)),
        root=tmp_path / "root",
    )
    assert campaign.drain_inline(name="w0").done == len(cells)
    for fault_plan in (None, plan):
        fresh = ExperimentRunner(None, fault_plan=fault_plan).run(IDS)
        warm = ExperimentRunner(
            ResultCache(cache_dir), fault_plan=fault_plan
        ).run(IDS)
        assert all(o.from_cache for o in warm)
        assert [o.net for o in warm] == [o.net for o in fresh]
        assert warm[IDS.index("fig12_13")].net[1] > 0
