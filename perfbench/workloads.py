"""The benchmark's four closed-loop workloads.

Every workload is driven by one thread that issues the next operation when
the previous one returns.  Inputs are materialised before the timed calls
(:class:`FrozenWorkload`), every restore is byte-compared against its
source, and the two paper workloads check every dump's per-rank sent and
stored bytes against the fingerprint-only simulator (``repro.sim``).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.apps.base import SegmentedWorkload
from repro.apps.hpccg import HPCCG
from repro.apps.mutating import MutatingWorkload
from repro.core import dump as core_dump
from repro.core import collective_restore
from repro.core.config import DumpConfig, Strategy
from repro.core.runner import run_collective
from repro.sim import simulate_dump
from repro.storage.local_store import Cluster
from repro.svc import CheckpointService, TenantWorkload

N_TENANTS = 4


class FrozenWorkload(SegmentedWorkload):
    """A workload whose segments and dirty regions were materialised once.

    The repo's generators rebuild content on every ``rank_segments`` call
    (blake2b streams, solver state); wrapping them keeps that cost out of
    timed calls such as ``CheckpointService.submit`` (which sizes the
    request) and the dump's ``build_dataset``.
    """

    def __init__(self, source: SegmentedWorkload, n_ranks: int) -> None:
        self.name = source.name
        self.n_ranks = n_ranks
        self._segments = [source.rank_segments(r, n_ranks) for r in range(n_ranks)]
        self._dirty = [source.dirty_regions(r, n_ranks) for r in range(n_ranks)]
        self._datasets = [super(FrozenWorkload, self).build_dataset(r, n_ranks)
                          for r in range(n_ranks)]

    def _check(self, n_ranks: int) -> None:
        if n_ranks != self.n_ranks:
            raise ValueError(f"frozen for {self.n_ranks} ranks, asked for {n_ranks}")

    def rank_segments(self, rank, n_ranks):
        self._check(n_ranks)
        return self._segments[rank]

    def dirty_regions(self, rank, n_ranks):
        self._check(n_ranks)
        return self._dirty[rank]

    def build_dataset(self, rank, n_ranks):
        self._check(n_ranks)
        return self._datasets[rank]

    def per_rank_bytes(self, n_ranks, rank=0):
        self._check(n_ranks)
        return self._datasets[rank].nbytes

    def rank_bytes(self, rank: int) -> bytes:
        return self._datasets[rank].to_bytes()


class RandomBytesWorkload(SegmentedWorkload):
    """Seeded random bytes per rank: no chunk repeats anywhere."""

    name = "random"

    def __init__(self, seed: int, nbytes: int) -> None:
        self.seed = seed
        self.nbytes = nbytes

    def rank_segments(self, rank, n_ranks):
        rng = np.random.default_rng([self.seed, rank])
        return [(None, rng.integers(0, 256, self.nbytes, dtype=np.uint8).tobytes())]


def tail(samples: List[float]):
    """(value, percentile, beyond): the highest percentile with at least
    ten samples above it; with fewer than eleven samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


@dataclass
class Recorder:
    """Samples and counters of one closed loop."""

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def op(self, name: str, fn: Callable, *args, **kwargs):
        """Run one timed operation; returns ``(ok, result, seconds)``."""
        if self.tracer is not None:
            self.tracer.op = name
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted and reported
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return False, None, time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        return True, result, time.perf_counter() - t0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An output check: a wrong result counts as a failed operation."""
        if not ok:
            self.fail(message)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


# -- SPMD programs (module level: the process backend forks them) -----------------
def _dump_rank(comm, datasets, config, cluster):
    return core_dump.dump_output(comm, datasets[comm.rank], config, cluster)


def _load_rank(comm, cluster, config):
    return collective_restore.load_input(comm, cluster, config)


def _load_rank_shipped(comm, cluster, config):
    """Process backend: a Dataset holds memoryviews, which cannot cross the
    result pipe, so the rank ships its restored bytes."""
    dataset, report = collective_restore.load_input(comm, cluster, config)
    return dataset.to_bytes(), report


def _record_plan(rec: Recorder, reports) -> None:
    """Reduction and planner outcomes of one dump, from its reports."""
    rec.add("view_entries", reports[0].view_entries)
    rec.add("discarded_frac", sum(r.discarded_chunks for r in reports)
            / max(1, sum(r.local_unique_chunks for r in reports)))


class Workload:
    """One workload: set-up, one loop iteration, and its metrics."""

    name = ""
    n_ranks = 4

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """Untimed: whatever the output checks need."""

    def iteration(self, rec: Recorder) -> None:
        raise NotImplementedError

    def working_set(self) -> int:
        raise NotImplementedError

    def end_to_end(self, rec: Recorder) -> Dict[str, float]:
        raise NotImplementedError

    def derived(self, rec: Recorder) -> Dict[str, float]:
        """Per-layer numbers read from the program's own reports."""
        return {}

    def extra_end_to_end(self, rec: Recorder) -> Dict[str, float]:
        """End-to-end numbers only this workload has (printed, and carried
        into the traced run's per-layer metrics)."""
        return {}


class CollectiveDumpWorkload(Workload):
    """Dump, fail one seed-chosen node, collective restore, verify.

    A fresh cluster per iteration, so every dump does the same work and
    stored bytes are those of one dump.
    """

    backend = "thread"
    cluster_dedup = True

    def _next_victim(self) -> int:
        """Nodes fail in seed-shuffled rounds that cover every node, so the
        restore mix is the same whatever the seed."""
        if not self._victims:
            self._victims = list(range(self.n_ranks))
            self.rng.shuffle(self._victims)
        return self._victims.pop()

    def make_source(self) -> SegmentedWorkload:
        raise NotImplementedError

    def config(self) -> DumpConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.frozen = FrozenWorkload(self.make_source(), self.n_ranks)
        self.datasets = [self.frozen.build_dataset(r, self.n_ranks)
                         for r in range(self.n_ranks)]
        self.cfg = self.config()
        self.logical = sum(ds.nbytes for ds in self.datasets)
        self._victims: List[int] = []

    def prepare_oracle(self) -> None:
        self.expected = [self.frozen.rank_bytes(r) for r in range(self.n_ranks)]
        indices = self.frozen.build_indices(
            self.n_ranks, self.cfg.chunk_size, self.cfg.hash_name
        )
        sim = simulate_dump(indices, self.cfg)
        self.sim_reports = [
            (r.sent_bytes, r.stored_bytes, r.received_bytes) for r in sim.reports
        ]
        if self.cluster_dedup:
            sizes = {}
            for index in indices:
                sizes.update(index.chunk_sizes)
            self.sim_physical = sum(
                sizes[fp] * len(holders) for fp, holders in sim.placements.items()
            )
        else:
            self.sim_physical = sum(r.stored_bytes + r.received_bytes
                                    for r in sim.reports)

    def working_set(self) -> int:
        return self.datasets[0].nbytes

    def iteration(self, rec: Recorder) -> None:
        n = self.n_ranks
        cluster = Cluster(n, dedup=self.cluster_dedup)
        ok, out, seconds = rec.op(
            "dump", run_collective, n, _dump_rank, self.datasets, self.cfg,
            cluster, cluster=cluster, backend=self.backend,
        )
        if not ok:
            return
        reports = out[0]
        rec.add("dump", seconds)
        got = [(r.sent_bytes, r.stored_bytes, r.received_bytes) for r in reports]
        rec.check(got == self.sim_reports,
                  f"dump per-rank (sent, stored, received) {got} != repro.sim {self.sim_reports}")
        physical = cluster.total_physical_bytes
        rec.check(physical == self.sim_physical,
                  f"cluster physical bytes {physical} != repro.sim {self.sim_physical}")
        rec.add("sent_bytes", sum(r.sent_bytes for r in reports))
        rec.add("physical_bytes", physical)
        _record_plan(rec, reports)

        cluster.fail_node(self._next_victim())
        program = _load_rank if self.backend == "thread" else _load_rank_shipped
        ok, out, restore_s = rec.op(
            "restore", run_collective, n, program, cluster, self.cfg,
            cluster=cluster, backend=self.backend,
        )
        if not ok:
            return
        rec.add("restore", restore_s)
        rec.add("request", seconds + restore_s)
        pulled = 0
        for rank, (restored, report) in enumerate(out[0]):
            if not isinstance(restored, bytes):
                restored = restored.to_bytes()
            rec.check(restored == self.expected[rank],
                      f"restore of rank {rank} returned wrong bytes")
            pulled += report.pulled_bytes
        rec.add("remote_frac", pulled / self.logical)

    def end_to_end(self, rec: Recorder) -> Dict[str, float]:
        return {
            **_latency_metrics(rec, self.logical),
            "replicated_bytes_per_byte": rec.median("sent_bytes") / self.logical,
            "stored_bytes_per_byte": rec.median("physical_bytes") / self.logical,
        }

    def extra_end_to_end(self, rec: Recorder) -> Dict[str, float]:
        return _restore_metrics(rec, self.logical)

    def derived(self, rec: Recorder) -> Dict[str, float]:
        return {
            "reduction.view_entries": rec.median("view_entries"),
            "plan.discarded_frac": rec.median("discarded_frac"),
            "restore.remote_frac": rec.median("remote_frac"),
        }


class HpccgColl(CollectiveDumpWorkload):
    name = "hpccg-coll"
    why = ("the paper's workload: HPCCG 32^3 solver state on 4 ranks, coll-dedup, K=3; "
           "natural redundancy makes hash and HMERGE dominate")

    def make_source(self):
        nx = 8 if self.smoke else 32
        return HPCCG(nx=nx, ny=nx, nz=nx)

    def config(self):
        return DumpConfig(replication_factor=3)


class UniqueNodedup(CollectiveDumpWorkload):
    name = "unique-nodedup"
    why = ("8 MiB of seeded random bytes per rank, no-dedup, K=3: bypasses HMERGE, "
           "so exchange and store carry the bytes")
    cluster_dedup = False

    def make_source(self):
        return RandomBytesWorkload(self.seed, (256 << 10) if self.smoke else (8 << 20))

    def config(self):
        return DumpConfig(replication_factor=3, strategy=Strategy.NO_DEDUP)


class ProcessK2(HpccgColl):
    name = "process-k2"
    why = ("HPCCG 32^3 on 2 ranks of the process backend, K=2: the only workload "
           "through fork, delta encode, /dev/shm staging and parent-side merge-back")
    n_ranks = 2
    backend = "process"

    def config(self):
        return DumpConfig(replication_factor=2)


class SvcChainMix(Workload):
    """Each iteration is one round; in it each tenant does a service dump
    (submit + drain), a restore of all its ranks, one chain delta epoch, a
    time-travel restore of the oldest live epoch on all ranks, and GC of
    what is two rounds old."""

    name = "svc-chain-mix"
    why = ("4 tenants on a CheckpointService: small dumps at 50% cross-tenant overlap, "
           "restores, chain deltas, time travel and GC; fixed per-request costs dominate")

    def _sizes(self):
        if self.smoke:
            return 16, (4096 * 16, 4096 * 4 + 1000, 2048)
        return 512, (4096 * 1024, 4096 * 256 + 1000, 2048)

    def _tenant(self, t: int) -> str:
        return f"tenant-{t}"

    def _tenant_workload(self, t: int, round_index: int) -> FrozenWorkload:
        chunks, _ = self._sizes()
        source = TenantWorkload(
            t, overlap=0.5, chunks_per_rank=chunks, chunk_size=4096,
            seed=self.seed, dump_index=round_index,
        )
        return FrozenWorkload(source, self.n_ranks)

    def setup(self) -> None:
        n = self.n_ranks
        _, segment_lengths = self._sizes()
        self.service = CheckpointService(n, config=DumpConfig(), shard_count=8)
        self.mutating = []
        for t in range(N_TENANTS):
            name = self._tenant(t)
            self.service.register_tenant(name)
            workload = MutatingWorkload(
                seed=self.seed * 1000 + t, segment_lengths=segment_lengths,
                chunk_size=4096, dirty_frac=0.05,
            )
            self.mutating.append(workload)
            self.service.chain_dump(name, FrozenWorkload(workload, n), kind="full")
        self.turn = 0
        self.pending = self._tenant_workload(0, 0)
        self.svc_dump_ids: Dict[int, List[int]] = {t: [] for t in range(N_TENANTS)}

    def prepare_oracle(self) -> None:
        self.oracles = [w.at_epoch(0) for w in self.mutating]

    def working_set(self) -> int:
        return sum(self._sizes()[1])

    def _request(self, rec: Recorder, op: str, fn, *args):
        ok, result, seconds = rec.op(op, fn, *args)
        if ok:
            self.turn_seconds += seconds
        return ok, result, seconds

    def iteration(self, rec: Recorder) -> None:
        """One round: every tenant takes its turn, so whole rounds (and the
        cross-tenant sharing within a round) are what a run measures.  A
        turn's service calls together are one request: the calls differ by
        two orders of magnitude, and a median over the mixed calls would
        sit on the boundary between two call types."""
        for _ in range(N_TENANTS):
            failed = rec.failed
            self.turn_seconds = 0.0
            self._turn(rec)
            if rec.failed == failed:
                rec.add("request", self.turn_seconds)

    def _turn(self, rec: Recorder) -> None:
        n = self.n_ranks
        t = self.turn % N_TENANTS
        tenant = self._tenant(t)
        service = self.service
        workload = self.pending
        self.turn += 1

        # 1. service dump
        physical_before = service.cluster.total_physical_bytes

        def submit_and_drain():
            ticket = service.submit(tenant, workload)
            return service.drain(), ticket

        ok, result, seconds = self._request(rec, "dump", submit_and_drain)
        if ok:
            outcomes, ticket = result
            outcome = next(o for o in outcomes if o.ticket == ticket)
            logical = sum(r.dataset_bytes for r in outcome.reports)
            rec.add("dump", seconds)
            rec.add("dump_bytes", logical)
            rec.add("sent_ratio", sum(r.sent_bytes for r in outcome.reports) / logical)
            rec.add("stored_ratio",
                    (service.cluster.total_physical_bytes - physical_before) / logical)
            _record_plan(rec, outcome.reports)
            self.svc_dump_ids[t].append(outcome.tenant_dump_id)

            # 2. restore every rank of that dump
            restore_total = 0.0
            restored = 0
            for rank in range(n):
                ok, out, secs = self._request(
                    rec, "restore", service.restore, tenant, rank,
                    outcome.tenant_dump_id,
                )
                if ok:
                    restore_total += secs
                    restored += 1
                    dataset, report = out
                    rec.check(dataset.to_bytes() == workload.rank_bytes(rank),
                              f"{tenant} restore of rank {rank} returned wrong bytes")
                    rec.add("remote_frac", report.remote_bytes / max(1, report.total_bytes))
            if restored == n:
                rec.add("restore", restore_total)

        # 3. one chain delta epoch, materialised before the timed call
        mutating = self.mutating[t]
        mutating.advance(1)
        epoch_input = FrozenWorkload(mutating, n)
        ok, chain, seconds = self._request(rec, "chain", service.chain_dump, tenant, epoch_input)
        if ok:
            rec.add("chain_epoch", seconds)
            rec.add("delta_chunk_frac", chain.delta_fraction)

        # 4. time-travel restore of the oldest live epoch, all ranks
        manager = service.chain_of(tenant)
        epoch = manager.live_epochs()[0]
        oracle = self.oracles[t]
        oracle.epoch = epoch  # the at_epoch view advances incrementally
        travel_total = 0.0
        travelled = 0
        for rank in range(n):
            ok, out, secs = self._request(
                rec, "time_travel", service.chain_restore, tenant, rank, epoch,
            )
            if ok:
                travel_total += secs
                travelled += 1
                dataset, _report = out
                rec.check(dataset.to_bytes() == oracle.build_dataset(rank, n).to_bytes(),
                          f"{tenant} time travel to epoch {epoch}, rank {rank}: wrong bytes")
        if travelled == n:
            rec.add("time_travel", travel_total)
            rec.add("chain_depth", manager.depth_of(epoch))

        # 5. GC what is two rounds old
        ids = self.svc_dump_ids[t]
        if len(ids) > 2:
            self._request(rec, "gc", service.gc, tenant, ids.pop(0))
        while len(manager.live_epochs()) > 2:
            ok, _out, _s = self._request(rec, "gc", service.chain_gc, tenant)
            if not ok:
                break

        self.pending = self._tenant_workload(self.turn % N_TENANTS, self.turn // N_TENANTS)

    def end_to_end(self, rec: Recorder) -> Dict[str, float]:
        return {
            **_latency_metrics(rec, rec.median("dump_bytes")),
            "replicated_bytes_per_byte": _mean(rec.samples.get("sent_ratio", [])),
            "stored_bytes_per_byte": _mean(rec.samples.get("stored_ratio", [])),
        }

    def extra_end_to_end(self, rec: Recorder) -> Dict[str, float]:
        return {
            **_restore_metrics(rec, rec.median("dump_bytes")),
            "chain_epoch_p50_s": rec.median("chain_epoch"),
            "time_travel_p50_s": rec.median("time_travel"),
        }

    def derived(self, rec: Recorder) -> Dict[str, float]:
        return {
            "reduction.view_entries": rec.median("view_entries"),
            "plan.discarded_frac": rec.median("discarded_frac"),
            "restore.remote_frac": rec.median("remote_frac"),
            "chain.depth": _mean(rec.samples.get("chain_depth", [])),
            "chain.delta_chunk_frac": rec.median("delta_chunk_frac"),
            "svc.cross_tenant_dedup_ratio": self.service.cross_tenant_dedup_ratio(),
        }


def _mbps(nbytes: float, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds else 0.0


def _latency_metrics(rec: Recorder, logical: float) -> Dict[str, float]:
    """Throughput and latency metrics every workload reports; ``logical``
    is the bytes of all ranks that one dump moves."""
    return {
        "dump_mbps": _mbps(logical, rec.median("dump")),
        "dump_tail_s": tail(rec.samples.get("dump", []))[0],
        "request_p50_s": rec.median("request"),
        "request_tail_s": tail(rec.samples.get("request", []))[0],
    }


def _restore_metrics(rec: Recorder, logical: float) -> Dict[str, float]:
    """Restore throughput and tail latency.  Printed, not gated: a 30 ms
    collective restore is dominated by rank hand-offs, and its run-to-run
    spread on a busy 2-core host reached 0.3-0.4 of its median."""
    return {
        "restore_mbps": _mbps(logical, rec.median("restore")),
        "restore_tail_s": tail(rec.samples.get("restore", []))[0],
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {cls.name: cls for cls in (HpccgColl, UniqueNodedup, SvcChainMix, ProcessK2)}
