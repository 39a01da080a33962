"""Global dedup index: reference counting, attribution policies and the
running cross-tenant totals."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.svc import GlobalDedupIndex


def fp(i):
    return hashlib.sha1(b"chunk-%d" % i).digest()


class TestRefCounting:
    def test_first_record_is_new_later_records_are_hits(self):
        index = GlobalDedupIndex()
        assert index.record("a", fp(0), 100) is True
        assert index.record("b", fp(0), 100) is False
        assert index.record("a", fp(0), 100) is False
        entry = index.get(fp(0))
        assert entry.first_writer == "a"
        assert entry.refs == {"a": 2, "b": 1}
        assert entry.total_refs == 3
        assert entry.tenants == ["a", "b"]

    def test_release_drops_entry_only_at_zero_total(self):
        index = GlobalDedupIndex()
        index.record("a", fp(0), 100)
        index.record("b", fp(0), 100)
        remaining, others = index.release("a", fp(0))
        assert (remaining, others) == (1, True)
        assert index.has(fp(0))
        remaining, others = index.release("b", fp(0))
        assert (remaining, others) == (0, False)
        assert not index.has(fp(0))

    def test_release_of_unknown_chunk_is_harmless(self):
        index = GlobalDedupIndex()
        assert index.release("a", fp(9)) == (0, False)

    def test_sharding_preserves_every_entry(self):
        for shard_count in (1, 2, 8):
            index = GlobalDedupIndex(shard_count=shard_count)
            for i in range(32):
                index.record("a", fp(i), 10)
            assert len(index) == 32
            assert sorted(f for f, _e in index.items()) == sorted(
                fp(i) for i in range(32)
            )


class TestAccounting:
    def make_index(self):
        """a and b share chunk 0; a owns 1 alone; b owns 2 alone."""
        index = GlobalDedupIndex()
        index.record("a", fp(0), 100)
        index.record("b", fp(0), 100)
        index.record("a", fp(1), 30)
        index.record("b", fp(2), 50)
        return index

    def test_footprint_views(self):
        index = self.make_index()
        assert index.unique_bytes == 180
        assert index.referenced_bytes("a") == 130
        assert index.referenced_bytes("b") == 150
        assert index.shared_bytes("a") == 100
        assert index.shared_bytes("b") == 100
        assert index.cross_tenant_shared_bytes == 100

    @pytest.mark.parametrize("policy", ["first-writer", "split"])
    def test_charges_always_sum_to_unique_bytes(self, policy):
        index = self.make_index()
        charged = index.charged_bytes(["a", "b"], policy=policy)
        assert sum(charged.values()) == pytest.approx(index.unique_bytes)

    def test_first_writer_pays_for_shared_chunks(self):
        charged = self.make_index().charged_bytes(
            ["a", "b"], policy="first-writer"
        )
        assert charged == {"a": 130.0, "b": 50.0}

    def test_split_divides_shared_chunks_evenly(self):
        charged = self.make_index().charged_bytes(["a", "b"], policy="split")
        assert charged == {"a": 80.0, "b": 100.0}

    def test_first_writer_bill_falls_to_a_sharer_after_gc(self):
        index = self.make_index()
        index.release("a", fp(0))
        charged = index.charged_bytes(["a", "b"], policy="first-writer")
        assert charged == {"a": 30.0, "b": 150.0}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            self.make_index().charged_bytes(["a"], policy="auction")


def recount(index):
    """Brute force over every entry: ``(unique_bytes, per-tenant bytes,
    dedup ratio)`` with chain-epoch owners folded by hand."""
    unique = per_tenant = 0
    for _fp, entry in index.items():
        tenants = {
            owner.split("/chain:")[0]
            for owner, refs in entry.refs.items() if refs > 0
        }
        unique += entry.size
        per_tenant += entry.size * len(tenants)
    ratio = 1.0 - unique / per_tenant if per_tenant else 0.0
    return unique, per_tenant, ratio


def totals(index):
    per_tenant = index.tenant_bytes
    ratio = 1.0 - index.unique_bytes / per_tenant if per_tenant else 0.0
    return index.unique_bytes, per_tenant, ratio


OWNERS = ["t1", "t1/chain:3", "t1/chain:4", "t2", "t2/chain:0", "t3"]


class TestRunningTotals:
    def test_chain_epochs_fold_into_their_tenant(self):
        index = GlobalDedupIndex()
        index.record("t1", fp(0), 100)
        index.record("t1/chain:3", fp(0), 100)
        index.record("t1/chain:4", fp(0), 100)
        entry = index.get(fp(0))
        assert entry.holders == {"t1": 3}
        assert entry.tenants == ["t1"]
        assert index.tenant_bytes == 100
        assert index.cross_tenant_shared_bytes == 0
        index.record("t2/chain:0", fp(0), 100)
        assert entry.tenants == ["t1", "t2"]
        assert index.tenant_bytes == 200
        assert index.release("t1", fp(0)) == (3, True)
        assert index.release("t2/chain:0", fp(0)) == (2, True)
        assert index.tenant_bytes == 100
        # a tenant's own other epoch is not another tenant
        assert index.release("t1/chain:3", fp(0)) == (1, False)
        assert index.release("t1/chain:4", fp(0)) == (0, False)
        assert (index.unique_bytes, index.tenant_bytes) == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        shard_count=st.sampled_from([1, 8]),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(OWNERS),
                st.integers(0, 11),
            ),
            max_size=80,
        ),
    )
    def test_totals_match_recount_after_every_operation(
        self, shard_count, ops
    ):
        index = GlobalDedupIndex(shard_count=shard_count)
        for is_record, owner, i in ops:
            if is_record:
                index.record(owner, fp(i), 10 + 7 * i)
            else:
                index.release(owner, fp(i))
            assert totals(index) == recount(index)
            assert index.unique_bytes == sum(
                entry.size for _fp, entry in index.items()
            )


class TestConcurrentTotals:
    def test_threads_keep_totals_exact(self):
        """8 threads (more than the cores) record and release overlapping
        fingerprints with a tiny switch interval; a lost update under the
        shard locks would leave the totals off the recount."""
        index = GlobalDedupIndex(shard_count=2)
        owners = ["t%d" % (i % 3) + ("/chain:%d" % i if i % 2 else "")
                  for i in range(8)]
        start = threading.Barrier(len(owners), timeout=60)
        errors = []

        def worker(owner, offset):
            try:
                start.wait()
                held = [fp((offset + j) % 16) for j in range(8)]
                for _ in range(300):
                    # every record/release moves a refcount across 0/1
                    for f in held:
                        index.record(owner, f, 64)
                    for f in held:
                        index.release(owner, f)
                for f in held[::2]:
                    index.record(owner, f, 64)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(owner, 3 * i))
                for i, owner in enumerate(owners)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not errors
        assert totals(index) == recount(index)
        assert index.tenant_bytes > index.unique_bytes > 0
