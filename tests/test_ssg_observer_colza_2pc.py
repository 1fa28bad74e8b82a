"""Tests for Colza's 2PC-consistent view updates over an SSG group."""

import pytest

from repro import Cluster
from repro.colza import ColzaClient, ColzaError, ColzaProvider
from repro.ssg import SwimConfig, create_group

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)


def make_group(n, seed=91):
    cluster = Cluster(seed=seed)
    margos = [cluster.add_margo(f"m{i}", node=f"n{i}") for i in range(n)]
    groups = create_group("svc", margos, cluster.randomness, swim=SWIM)
    return cluster, margos, groups


# ----------------------------------------------------------------------
# Colza 2PC view updates
# ----------------------------------------------------------------------
def colza_rig(n=4, seed=93):
    cluster, margos, groups = make_group(n, seed=seed)
    providers = [
        ColzaProvider(margo, f"colza{i}", provider_id=1, group=group)
        for i, (margo, group) in enumerate(zip(margos, groups))
    ]
    app = cluster.add_margo("app", node="na")
    pipeline = ColzaClient(app).make_pipeline_handle(
        [m.address for m in margos], provider_id=1
    )
    return cluster, margos, providers, app, pipeline


def test_2pc_view_commit_and_use():
    cluster, margos, providers, app, pipeline = colza_rig()
    new_members = [m.address for m in margos[:2]]  # shrink to 2

    def driver():
        ok = yield from pipeline.update_view(new_members)
        # Staging under the committed view works against those members.
        yield from pipeline.stage(1, [b"x" * 512] * 4)
        result = yield from pipeline.execute(1)
        return ok, result

    ok, result = cluster.run_ult(app, driver())
    assert ok is True
    assert result["members"] == 2
    assert providers[0].committed_view == sorted(new_members)
    assert providers[1].committed_view == sorted(new_members)


def test_2pc_view_is_immune_to_ssg_churn():
    """The committed view overrides the eventually consistent SSG view:
    killing a *non-member* of the committed view does not invalidate
    client hashes (no stale rejections)."""
    cluster, margos, providers, app, pipeline = colza_rig()
    new_members = [m.address for m in margos[:2]]

    def commit():
        yield from pipeline.update_view(new_members)

    cluster.run_ult(app, commit())
    # Kill a member outside the committed view; SSG views churn.
    cluster.faults.kill_process(margos[3].process)
    cluster.run(until=cluster.now + 30.0)
    rejections_before = sum(p.stale_rejections for p in providers[:2])

    def work():
        yield from pipeline.stage(2, [b"y" * 256] * 2)
        return (yield from pipeline.execute(2))

    result = cluster.run_ult(app, work())
    assert result["members"] == 2
    assert sum(p.stale_rejections for p in providers[:2]) == rejections_before


def test_2pc_view_aborts_when_member_not_in_proposal():
    cluster, margos, providers, app, pipeline = colza_rig()

    # Craft a conflict: provider 0 has a pending transaction already.
    providers[0]._pending_view = ("other-tx", [margos[0].address])

    def driver():
        yield from pipeline.update_view([m.address for m in margos[:2]])

    with pytest.raises(ColzaError, match="aborted"):
        cluster.run_ult(app, driver())
    # Nothing committed anywhere.
    assert providers[1].committed_view is None


def test_2pc_view_validation():
    cluster, margos, providers, app, pipeline = colza_rig()

    def driver():
        yield from pipeline.update_view([])

    with pytest.raises(ColzaError, match="at least one member"):
        cluster.run_ult(app, driver())


def test_2pc_commit_unknown_tx_rejected():
    cluster, margos, providers, app, pipeline = colza_rig()
    from repro.margo import RpcFailedError

    def driver():
        yield from app.forward(
            margos[0].address, "colza_commit_view", {"txid": "ghost"},
            provider_id=1, timeout=1.0,
        )

    with pytest.raises(RpcFailedError, match="unknown view transaction"):
        cluster.run_ult(app, driver())
