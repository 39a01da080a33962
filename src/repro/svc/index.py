"""Service-wide fingerprint index: who references which chunk.

The cluster's node stores already dedup payloads; what they cannot answer
is *which tenants* reference a fingerprint — the information the service
needs for fair accounting and for garbage collection that never drops a
chunk another tenant still references.  This index tracks, per
fingerprint: stored payload size, the first tenant to write it, and a
per-owner reference count (one reference per manifest occurrence set of
one dump).

An *owner* is a tenant or one of its chain epochs: the
``<tenant>/chain:<epoch>`` owners of
:meth:`~repro.svc.service.CheckpointService.chain_of` fold into
``<tenant>`` by :func:`tenant_of`, and every accounting view reads the
folded holders, so a tenant's chain epochs never count as sharing with
each other.

Like the chunk stores it is sharded by fingerprint prefix (Khan et al.'s
shared-nothing index layout) with a lock per shard, so concurrent dump
completions only contend within a prefix.  Each shard also keeps the
cross-tenant totals (unique bytes, and bytes summed over each entry's
tenants) up to date under that lock, so the service's dedup ratio reads
them in O(shards) instead of scanning every entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.fingerprint import Fingerprint


def tenant_of(owner: str) -> str:
    """The tenant an index owner bills to: a chain epoch's owner
    ``<tenant>/chain:<epoch>`` folds into ``<tenant>``; any other owner is
    its own tenant."""
    tenant, sep, _epoch = owner.rpartition("/chain:")
    return tenant if sep else owner


@dataclass
class ChunkEntry:
    """Index record for one fingerprint."""

    size: int
    #: tenant (owner folded) that stored the chunk first
    first_writer: str
    #: owner -> live dump references
    refs: Dict[str, int] = field(default_factory=dict)
    #: tenant -> its owners with live references; changes only when an
    #: owner's refcount moves between 0 and 1
    holders: Dict[str, int] = field(default_factory=dict)

    @property
    def total_refs(self) -> int:
        return sum(self.refs.values())

    @property
    def tenants(self) -> List[str]:
        return sorted(self.holders)


class _Shard:
    """One fingerprint-prefix shard: its entries, its lock and its running
    totals (updated only under the lock)."""

    __slots__ = ("entries", "lock", "unique_bytes", "tenant_bytes")

    def __init__(self) -> None:
        self.entries: Dict[Fingerprint, ChunkEntry] = {}
        self.lock = threading.Lock()
        #: sum of entry sizes
        self.unique_bytes = 0
        #: sum of ``size * len(holders)`` over entries
        self.tenant_bytes = 0


class GlobalDedupIndex:
    """Sharded fingerprint -> :class:`ChunkEntry` map."""

    def __init__(self, shard_count: int = 8) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        self._shards = [_Shard() for _ in range(shard_count)]

    def _shard(self, fp: Fingerprint) -> _Shard:
        return self._shards[fp[0] % self.shard_count]

    def record(self, tenant: str, fp: Fingerprint, size: int) -> bool:
        """Add one reference by owner ``tenant`` (a tenant or one of its
        chain epochs); True if the chunk is new to the whole service
        (this owner is its first writer)."""
        shard = self._shard(fp)
        holder = tenant_of(tenant)
        with shard.lock:
            entry = shard.entries.get(fp)
            if entry is None:
                shard.entries[fp] = ChunkEntry(
                    size=size, first_writer=holder,
                    refs={tenant: 1}, holders={holder: 1},
                )
                shard.unique_bytes += size
                shard.tenant_bytes += size
                return True
            have = entry.refs.get(tenant, 0)
            entry.refs[tenant] = have + 1
            if not have:
                owners = entry.holders.get(holder, 0)
                entry.holders[holder] = owners + 1
                if not owners:
                    shard.tenant_bytes += entry.size
            return False

    def release(self, tenant: str, fp: Fingerprint) -> Tuple[int, bool]:
        """Drop one of owner ``tenant``'s references.

        Returns ``(remaining_total_refs, other_tenant_still_refs)``; the
        entry is removed entirely when no references remain, which is the
        caller's signal that the payload may be physically discarded.
        """
        shard = self._shard(fp)
        holder = tenant_of(tenant)
        with shard.lock:
            entry = shard.entries.get(fp)
            if entry is None:
                return (0, False)
            have = entry.refs.get(tenant, 0)
            if have > 1:
                entry.refs[tenant] = have - 1
            elif have == 1:
                del entry.refs[tenant]
                owners = entry.holders[holder]
                if owners > 1:
                    entry.holders[holder] = owners - 1
                else:
                    del entry.holders[holder]
                    shard.tenant_bytes -= entry.size
            remaining = entry.total_refs
            others = any(t != holder for t in entry.holders)
            if remaining == 0:
                del shard.entries[fp]
                shard.unique_bytes -= entry.size
            return (remaining, others)

    def get(self, fp: Fingerprint) -> ChunkEntry:
        return self._shard(fp).entries[fp]

    def has(self, fp: Fingerprint) -> bool:
        return fp in self._shard(fp).entries

    def items(self) -> Iterator[Tuple[Fingerprint, ChunkEntry]]:
        for shard in self._shards:
            yield from shard.entries.items()

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    # -- accounting views --------------------------------------------------------
    @property
    def unique_bytes(self) -> int:
        """Bytes the service stores once, regardless of sharing (O(shards))."""
        return sum(shard.unique_bytes for shard in self._shards)

    @property
    def tenant_bytes(self) -> int:
        """Tenants' dedup'd footprints summed: each chunk counted once per
        tenant referencing it (O(shards))."""
        return sum(shard.tenant_bytes for shard in self._shards)

    def referenced_bytes(self, tenant: str) -> int:
        """Unique bytes ``tenant`` references (its dedup'd footprint)."""
        return sum(
            entry.size
            for _fp, entry in self.items()
            if tenant in entry.holders
        )

    def shared_bytes(self, tenant: str) -> int:
        """Bytes ``tenant`` references that at least one other tenant also
        references — the cross-tenant savings this tenant participates in."""
        return sum(
            entry.size
            for _fp, entry in self.items()
            if tenant in entry.holders and len(entry.holders) > 1
        )

    @property
    def cross_tenant_shared_bytes(self) -> int:
        """Unique bytes referenced by two or more tenants."""
        return sum(
            entry.size
            for _fp, entry in self.items()
            if len(entry.holders) > 1
        )

    def charged_bytes(
        self, tenants: Iterable[str], policy: str = "first-writer"
    ) -> Dict[str, float]:
        """Attribute each chunk's size to tenants under ``policy``.

        ``first-writer`` charges the whole size to whoever wrote the chunk
        first (later sharers ride free); ``split`` divides it evenly among
        current sharers.  Either way the charges sum to the service's
        unique bytes, so the bill always covers the device.
        """
        if policy not in ("first-writer", "split"):
            raise ValueError(
                f"unknown attribution policy {policy!r}; "
                "expected 'first-writer' or 'split'"
            )
        charged: Dict[str, float] = {t: 0.0 for t in tenants}
        for _fp, entry in self.items():
            sharers = entry.tenants
            if not sharers:
                continue
            if policy == "first-writer":
                # The first writer may have GC'd its reference away; the
                # bill then falls to the earliest-sorted current sharer.
                payer = (
                    entry.first_writer
                    if entry.first_writer in entry.holders
                    else sharers[0]
                )
                charged[payer] = charged.get(payer, 0.0) + entry.size
            else:
                share = entry.size / len(sharers)
                for t in sharers:
                    charged[t] = charged.get(t, 0.0) + share
        return charged
