"""Checkpoint chains through the multi-tenant service: per-tenant chain
managers over the shared cluster/index, global dump-id space, quota and
usage accounting, GC refunds and the chain timeline/metrics surface."""

import pytest

from repro.apps.mutating import MutatingWorkload
from repro.chain import ChainBrokenError, ChainStateError
from repro.core.config import DumpConfig
from repro.svc import (
    CheckpointService,
    GlobalDedupIndex,
    QuotaExceededError,
    TenantQuota,
)
from repro.svc.report import build_report

N = 3
CS = 64

pytestmark = pytest.mark.smoke


def make_service(**kwargs):
    kwargs.setdefault("config", DumpConfig(replication_factor=2, chunk_size=CS))
    return CheckpointService(N, **kwargs)


def make_workload(seed=99):
    return MutatingWorkload(
        seed=seed,
        segment_lengths=(CS * 4, CS + 21, CS // 2),
        chunk_size=CS,
        dirty_frac=0.3,
    )


def grow_chain(service, tenant, workload, deltas=3):
    """Dump a full plus ``deltas`` delta epochs, returning the per-epoch
    workload snapshots for oracle comparison."""
    service.chain_dump(tenant, workload, kind="full")
    snapshots = {0: workload.at_epoch(0)}
    for epoch in range(1, deltas + 1):
        workload.advance(1)
        service.chain_dump(tenant, workload)
        snapshots[epoch] = workload.at_epoch(epoch)
    return snapshots


class TestChainLifecycle:
    def test_chain_dump_restore_round_trip(self):
        service = make_service()
        service.register_tenant("a")
        snapshots = grow_chain(service, "a", make_workload())
        manager = service.chain_of("a")
        assert manager.live_epochs() == [0, 1, 2, 3]
        for epoch, snap in snapshots.items():
            for rank in range(N):
                data, report = service.chain_restore("a", rank, epoch)
                assert data.to_bytes() == snap.build_dataset(
                    rank, N
                ).to_bytes()
                assert report.total_bytes == len(data.to_bytes())

    def test_deltas_ship_less_than_fulls(self):
        service = make_service()
        service.register_tenant("a")
        workload = make_workload()
        full = service.chain_dump("a", workload, kind="full")
        workload.advance(1)
        delta = service.chain_dump("a", workload)
        assert full.kind == "full" and delta.kind == "delta"
        assert not delta.promoted
        assert 0 < delta.changed_chunks < delta.total_chunks
        assert sum(r.dataset_bytes for r in delta.reports) < sum(
            r.dataset_bytes for r in full.reports
        )

    def test_first_chain_dump_promotes_delta_to_full(self):
        service = make_service()
        service.register_tenant("a")
        result = service.chain_dump("a", make_workload())
        assert result.kind == "full"
        assert result.promoted

    def test_restores_survive_gc_and_compaction(self):
        service = make_service()
        service.register_tenant("a")
        workload = make_workload()
        snapshots = grow_chain(service, "a", workload, deltas=4)
        gc = service.chain_gc("a")
        assert gc.epoch == 0
        compacted = service.chain_compact("a")
        assert compacted.compacted
        manager = service.chain_of("a")
        for epoch in manager.live_epochs():
            for rank in range(N):
                data, _report = service.chain_restore("a", rank, epoch)
                assert data.to_bytes() == snapshots[epoch].build_dataset(
                    rank, N
                ).to_bytes()

    def test_gc_of_empty_chain_raises(self):
        service = make_service()
        service.register_tenant("a")
        with pytest.raises(ChainStateError):
            service.chain_gc("a")
        with pytest.raises(ChainStateError):
            service.chain_compact("a")


class TestGlobalIdSpace:
    def test_chain_dumps_share_the_global_dump_id_space(self):
        """Regular dumps and chain dumps interleave without ever reusing
        a dump id, and every chain id is registered to its tenant."""
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        workload = make_workload()
        ticket = service.submit("b", workload)
        service.drain()
        first = service.outcome(ticket)
        chain_ids = [service.chain_dump("a", workload, kind="full").dump_id]
        for _ in range(2):
            workload.advance(1)
            chain_ids.append(service.chain_dump("a", workload).dump_id)
        ticket2 = service.submit("b", workload)
        service.drain()
        second = service.outcome(ticket2)
        all_ids = [first.global_dump_id, *chain_ids, second.global_dump_id]
        assert len(set(all_ids)) == len(all_ids)
        for dump_id in chain_ids:
            assert service._dump_owner[dump_id] == "a"

    def test_compaction_allocates_a_fresh_registered_id(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        outcome = service.chain_compact("a")
        assert outcome.new_dump_id > outcome.old_dump_id
        assert service._dump_owner[outcome.new_dump_id] == "a"
        # the allocator moved past the compaction id
        assert service._next_global > outcome.new_dump_id


class TestQuotaAndUsage:
    def test_chain_dump_usage_is_refunded_on_gc(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        usage = service._state("a").usage
        assert usage.live_dumps == 3
        before = usage.logical_bytes
        assert before > 0
        service.chain_gc("a")
        assert usage.live_dumps == 2
        assert usage.logical_bytes < before

    def test_chain_quota_is_checked_against_full_size(self):
        """Admission uses the full dataset size (a delta may always
        promote), so a quota below one full epoch rejects even deltas."""
        workload = make_workload()
        full_bytes = sum(
            workload.per_rank_bytes(N, rank) for rank in range(N)
        )
        service = make_service()
        service.register_tenant(
            "a", TenantQuota(max_logical_bytes=full_bytes)
        )
        service.chain_dump("a", workload, kind="full")
        workload.advance(1)
        with pytest.raises(QuotaExceededError):
            service.chain_dump("a", workload)
        usage = service._state("a").usage
        assert usage.rejected == 1
        # after pruning the full, the delta (promoted to full) admits
        service.chain_gc("a")
        result = service.chain_dump("a", workload, kind="full")
        assert result.epoch == 1


class TestSharedIndexIsolation:
    def test_other_tenant_gc_never_breaks_a_chain(self):
        """Tenant b dumps content overlapping a's chain, then GCs it;
        the shared refcounted index must keep a's chunks restorable."""
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        snapshots = grow_chain(
            service, "a", make_workload(seed=7), deltas=2
        )
        ticket = service.submit("b", make_workload(seed=7))
        service.drain()
        outcome = service.outcome(ticket)
        service.gc("b", outcome.tenant_dump_id)
        manager = service.chain_of("a")
        for epoch in manager.live_epochs():
            for rank in range(N):
                data, _ = service.chain_restore("a", rank, epoch)
                assert data.to_bytes() == snapshots[epoch].build_dataset(
                    rank, N
                ).to_bytes()

    def test_chain_gc_never_breaks_another_tenants_dump(self):
        service = make_service()
        service.register_tenant("a")
        service.register_tenant("b")
        grow_chain(service, "a", make_workload(seed=7), deltas=1)
        ticket = service.submit("b", make_workload(seed=7))
        service.drain()
        outcome = service.outcome(ticket)
        while service.chain_of("a").live_epochs():
            service.chain_gc("a")
        for rank in range(N):
            service.restore("b", rank, outcome.tenant_dump_id)

    def test_isolation_audit_covers_chain_manifests(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        assert not service.isolation_audit()


def owned_by(tenant, entry):
    """Brute force: does ``tenant`` (or one of its chain epochs) hold a
    live reference to the entry's chunk?"""
    return any(
        refs > 0
        and (owner == tenant or owner.startswith(f"{tenant}/chain:"))
        for owner, refs in entry.refs.items()
    )


def reference_dedup_ratio(service):
    """Brute force: each tenant's footprint is every chunk it or one of
    its ``<tenant>/chain:<epoch>`` owners references."""
    entries = [entry for _fp, entry in service.index.items()]
    unique = sum(entry.size for entry in entries)
    per_tenant = 0
    for tenant in service.tenants():
        per_tenant += sum(
            entry.size for entry in entries if owned_by(tenant, entry)
        )
    return 1.0 - unique / per_tenant if per_tenant else 0.0


class TestCrossTenantRatioWithChains:
    def test_chain_owners_fold_into_their_tenant(self):
        """Chain epochs reference chunks under chain owner names; the
        ratio counts them as their tenant's, so it stays a fraction."""
        service = make_service()
        for name in ("a", "b"):
            service.register_tenant(name)
        grow_chain(service, "a", make_workload(seed=7), deltas=3)
        grow_chain(service, "b", make_workload(seed=7), deltas=1)
        service.submit("b", make_workload(seed=8))
        service.drain()
        ratio = service.cross_tenant_dedup_ratio()
        assert 0.0 <= ratio < 1.0
        assert ratio > 0.0  # b's chain shares a's seed-7 content
        assert ratio == pytest.approx(reference_dedup_ratio(service))
        service.chain_gc("a")
        ratio = service.cross_tenant_dedup_ratio()
        assert 0.0 <= ratio < 1.0
        assert ratio == pytest.approx(reference_dedup_ratio(service))


def mixed_service(attribution):
    """a: a full and 3 deltas; b: a full, 1 delta and a service dump."""
    service = make_service(attribution=attribution)
    for name in ("a", "b"):
        service.register_tenant(name)
    grow_chain(service, "a", make_workload(seed=7), deltas=3)
    grow_chain(service, "b", make_workload(seed=7), deltas=1)
    service.submit("b", make_workload(seed=8))
    service.drain()
    return service


class TestBillingWithChains:
    @pytest.mark.parametrize("policy", ["first-writer", "split"])
    def test_chain_epochs_are_billed_to_their_tenant(self, policy):
        service = mixed_service(policy)
        report = build_report(service)
        entries = [entry for _fp, entry in service.index.items()]
        assert report.unique_bytes == sum(entry.size for entry in entries)
        assert sum(
            t.charged_bytes for t in report.tenants
        ) == pytest.approx(report.unique_bytes)
        for t in report.tenants:
            mine = [e for e in entries if owned_by(t.tenant, e)]
            others = [o for o in service.tenants() if o != t.tenant]
            shared = [
                e for e in mine if any(owned_by(o, e) for o in others)
            ]
            assert t.referenced_bytes == sum(e.size for e in mine) > 0
            assert t.shared_bytes == sum(e.size for e in shared) > 0
            assert t.charged_bytes > 0
        assert report.cross_tenant_shared_bytes == sum(
            e.size for e in entries
            if sum(owned_by(name, e) for name in service.tenants()) > 1
        )
        service.chain_gc("a")
        charged = service.index.charged_bytes(service.tenants(), policy)
        assert sum(charged.values()) == pytest.approx(
            service.index.unique_bytes
        )


class TestAccountingCost:
    def test_requests_never_scan_the_index(self, monkeypatch):
        """Dumps, GC and chain epochs keep the cross-tenant gauge current
        without one pass over the index."""
        calls = []
        items = GlobalDedupIndex.items

        def counted(self):
            calls.append(1)
            return items(self)

        monkeypatch.setattr(GlobalDedupIndex, "items", counted)
        service = make_service()
        for name in ("a", "b"):
            service.register_tenant(name)
        workload = make_workload(seed=7)
        for name in ("a", "b"):
            service.submit(name, workload)
        service.drain()
        service.gc("a", 0)
        grow_chain(service, "a", workload, deltas=2)
        service.chain_gc("a")
        assert calls == []
        ratio = service.cross_tenant_dedup_ratio()
        assert 0.0 < ratio < 1.0
        assert ratio == pytest.approx(reference_dedup_ratio(service))


class TestBrokenChainSurfacing:
    def test_restore_of_pruned_epoch_raises_typed_error(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        pruned = service.chain_gc("a").epoch
        with pytest.raises(ChainStateError):
            service.chain_restore("a", 0, pruned)

    def test_lost_parent_chunks_raise_chain_broken_error(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        manager = service.chain_of("a")
        # destroy every replica of the base full's chunks out-of-band
        base = manager.nodes[0]
        for fps in base.fps:
            for fp in fps:
                for node in service.cluster.nodes:
                    node.chunks.discard(fp)
        with pytest.raises(ChainBrokenError):
            service.chain_restore("a", 0, 2)


class TestObservability:
    def test_chain_ops_land_on_the_timeline(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        service.chain_restore("a", 0, 2)
        service.chain_gc("a")
        ops = [
            s.op for s in service.timeline.samples()
            if s.values.get("chain")
        ]
        assert ops.count("dump") == 3
        assert "restore" in ops
        assert "gc" in ops

    def test_chain_metrics_are_exported(self):
        service = make_service()
        service.register_tenant("a")
        grow_chain(service, "a", make_workload(), deltas=2)
        service.chain_restore("a", 1, 1)
        service.chain_gc("a")
        service.chain_compact("a")
        snap = service.capture_metrics()
        counters = snap["metrics"]["counters"]
        assert counters["svc_chain_dumps_completed"]["max"] == 3
        assert counters["svc_chain_restores_completed"]["max"] == 1
        assert counters["svc_chain_epochs_pruned"]["max"] == 1
        assert counters["svc_chain_epochs_compacted"]["max"] == 1
        gauges = snap["metrics"]["gauges"]
        assert 0.0 < gauges["svc_chain_delta_fraction"]["max"] < 1.0
