"""Which entry point belongs to which layer, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer the
benchmark reports on (see README.md for the layer -> end-to-end metric ->
workload table).  Names are patched where their callers look them up: a
module that did ``from x import f`` holds its own reference to ``f``, so
the shim goes on that module's attribute.

:func:`layer_metrics` turns the tracer's records into the ``--trace 1``
metrics.  Times are rank-seconds per loop iteration (summed over every
rank that ran the layer), bytes are per loop iteration, and every
``*.wall_s``/``*.cpu_s`` is *self* time unless the README says otherwise.
"""

from __future__ import annotations

from typing import Dict

from perfbench.tracer import (
    BYTES,
    CALLS,
    COLLECTIVES,
    EXTRA,
    SELF_CPU,
    SELF_WALL,
    WALL,
    Tracer,
    total,
)


def _payload_nbytes(obj) -> int:
    """Cheap size estimate of a collective's payload."""
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return memoryview(obj).nbytes
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(_payload_nbytes(item) for item in obj)
    estimate = getattr(obj, "nbytes_estimate", None)
    if estimate is not None:
        return int(estimate())
    return 0


def _collective_value(args, kwargs, result, prepared):
    return _payload_nbytes(args[1]) if len(args) > 1 else 0


def _hash_prepare_fn(args, kwargs):
    # local_dedup_batched(dataset, fingerprinter, ...)
    return args[1].hashed_bytes, args[0].nbytes


def _hash_prepare_method(args, kwargs):
    # FingerprintCache.fingerprint_dataset(self, dataset, fingerprinter, ...)
    return args[2].hashed_bytes, args[1].nbytes


def _hash_measure_fn(args, kwargs, result, prepared):
    before, offered = prepared
    return args[1].hashed_bytes - before, offered


def _hash_measure_method(args, kwargs, result, prepared):
    before, offered = prepared
    return args[2].hashed_bytes - before, offered


def _store_logical(args, kwargs):
    return args[0].logical_bytes


def _store_written(args, kwargs, result, prepared):
    return args[0].logical_bytes - prepared


def _store_read(args, kwargs, result, prepared):
    return sum(map(len, result))


def _put_bytes(args, kwargs, result, prepared):
    parts = args[1]
    if not isinstance(parts, (list, tuple)):
        return 0
    return sum(memoryview(data).nbytes for _offset, data in parts)


def _result_len(args, kwargs, result, prepared):
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.chain.manager as chain_manager
    import repro.core.collective_restore as collective_restore
    import repro.core.dump as dump
    import repro.core.global_dedup as global_dedup
    import repro.core.restore as restore
    import repro.core.runner as runner
    import repro.simmpi.collectives as collectives
    import repro.storage.delta_codec as delta_codec
    import repro.svc.service as service
    from repro.chain.manager import ChainManager
    from repro.core.fpcache import FingerprintCache
    from repro.simmpi.comm import Communicator
    from repro.simmpi.procworld import ProcessWorld
    from repro.simmpi.window import Window
    from repro.storage.local_store import ChunkStore, Cluster, ShardedChunkStore
    from repro.svc.service import CheckpointService

    shim = tracer.shim
    tracer.install()

    # Whole dump: its self time is what no layer below accounts for.
    shim(dump, "dump_output", "dump")
    shim(service, "dump_output", "dump")

    # core.local_dedup + core.fingerprint
    shim(dump, "local_dedup_batched", "hash",
         measure=_hash_measure_fn, prepare=_hash_prepare_fn)
    shim(FingerprintCache, "fingerprint_dataset", "hash",
         measure=_hash_measure_method, prepare=_hash_prepare_method)

    # core.global_dedup + core.hmerge
    shim(dump, "build_global_view", "reduction")
    shim(global_dedup, "hmerge", "hmerge")

    # simmpi.collectives, barrier and fence
    for name in ("bcast", "reduce", "allreduce", "allgather", "gather",
                 "scatter", "alltoall"):
        shim(collectives, name, COLLECTIVES, measure=_collective_value)
    shim(Communicator, "barrier", COLLECTIVES)
    shim(Window, "fence", COLLECTIVES)

    # core.planner, core.shuffle, core.offsets
    for name in ("build_plan", "rank_shuffle", "identity_shuffle",
                 "inverse_positions", "partners_of", "senders_to",
                 "window_layout"):
        shim(dump, name, "plan")

    # core.wire + simmpi.window
    shim(dump, "encode_records_into", "exchange")
    shim(dump, "decode_region_unique", "exchange")
    shim(Window, "create", "exchange")
    shim(Window, "put_many", "exchange", measure=_put_bytes)
    shim(Window, "local_view", "exchange")
    shim(Window, "free", "exchange")

    # storage.local_store
    for cls in (ChunkStore, ShardedChunkStore):
        shim(cls, "put_many", "store.write",
             measure=_store_written, prepare=_store_logical)
        shim(cls, "put_counted", "store.write",
             measure=_store_written, prepare=_store_logical)
        shim(cls, "get_many", "store.read", measure=_store_read)

    # core.restore_plan + core.collective_restore (+ single-rank restore)
    shim(Cluster, "find_manifest", "restore.plan")
    for module in (collective_restore, restore):
        shim(module, "plan_restore", "restore.plan")
        shim(module, "cut_segments", "restore.reassemble")
    for name in ("encode_restore_request", "decode_restore_request",
                 "encode_restore_reply", "decode_restore_reply"):
        shim(collective_restore, name, "restore.fetch")

    # chain
    for name in ("resolved_fps", "resolved_distinct", "synthetic_manifest"):
        shim(ChainManager, name, "chain.resolve")
    shim(ChainManager, "prune", "chain.prune")

    # svc (run_collective is carved out so svc.index is the service's own
    # bookkeeping, not the dump it waits for)
    shim(CheckpointService, "submit", "svc.admission")
    shim(CheckpointService, "_execute", "svc.index")
    shim(CheckpointService, "gc", "svc.gc")
    shim(service, "run_collective", "run")
    shim(chain_manager, "run_collective", "run")
    shim(runner, "create_world", "world.spawn")

    # core.runner + storage.delta_codec + simmpi.procworld (merge-back)
    shim(delta_codec, "encode_cluster_delta", "mergeback.encode",
         measure=_result_len)
    shim(ProcessWorld, "stage_result_blob", "mergeback.encode")
    shim(delta_codec, "decode_cluster_delta", "mergeback.decode")
    shim(Cluster, "apply_delta", "mergeback.apply")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    records,
    iterations: int,
    roofline: Dict[str, float],
    derived: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from tracer records.

    ``derived`` carries the numbers read from the program's own reports
    (view entries, discarded and remote fractions, chain depth, ...).
    """
    n = max(iterations, 1)

    def per_it(field, **filters):
        return total(records, field, **filters) / n

    def wait(**filters):
        return (
            total(records, SELF_WALL, layer=COLLECTIVES, **filters)
            - total(records, SELF_CPU, layer=COLLECTIVES, **filters)
        ) / n

    hash_bytes = total(records, BYTES, layer="hash")
    hash_offered = total(records, EXTRA, layer="hash")
    hash_cpu = total(records, SELF_CPU, layer="hash")
    hash_mbps = _div(hash_bytes / 1e6, hash_cpu)
    exchange_bytes = total(records, BYTES, layer="exchange")
    exchange_cpu = total(records, SELF_CPU, layer="exchange")

    out = {
        "hash.wall_s": per_it(SELF_WALL, layer="hash"),
        "hash.cpu_s": per_it(SELF_CPU, layer="hash"),
        "hash.mbps": hash_mbps,
        "hash.roofline_frac": _div(hash_mbps, roofline["sha1_mbps"]),
        "hash.cache_hit_frac": 1.0 - _div(hash_bytes, hash_offered) if hash_offered else 0.0,
        "reduction.wall_s": per_it(SELF_WALL, layer="reduction"),
        "reduction.cpu_s": per_it(SELF_CPU, layer="reduction"),
        "reduction.wait_s": wait(enclosing="reduction"),
        "hmerge.wall_s": per_it(SELF_WALL, layer="hmerge"),
        "hmerge.cpu_s": per_it(SELF_CPU, layer="hmerge"),
        "hmerge.calls": per_it(CALLS, layer="hmerge"),
        "collectives.wait_s": wait(),
        "collectives.cpu_s": per_it(SELF_CPU, layer=COLLECTIVES),
        "collectives.calls": per_it(CALLS, layer=COLLECTIVES),
        "collectives.bytes": per_it(BYTES, layer=COLLECTIVES),
        "plan.cpu_s": per_it(SELF_CPU, layer="plan"),
        "exchange.wall_s": per_it(SELF_WALL, layer="exchange"),
        "exchange.cpu_s": per_it(SELF_CPU, layer="exchange"),
        "exchange.wait_s": (
            wait(name="Window.fence", op="dump") + wait(enclosing="exchange")
        ),
        "exchange.bytes": exchange_bytes / n,
        "exchange.memcpy_frac": _div(
            _div(exchange_bytes / 1e6, exchange_cpu), roofline["memcpy_mbps"]
        ),
        "store.write_s": per_it(SELF_WALL, layer="store.write"),
        "store.write_bytes": per_it(BYTES, layer="store.write"),
        "store.read_s": per_it(SELF_WALL, layer="store.read"),
        "store.read_bytes": per_it(BYTES, layer="store.read"),
        "restore.plan_s": per_it(SELF_WALL, layer="restore.plan"),
        "restore.fetch_s": (
            per_it(SELF_WALL, layer="restore.fetch")
            + per_it(SELF_WALL, layer="store.read")
        ),
        "restore.reassemble_s": per_it(SELF_WALL, layer="restore.reassemble"),
        "restore.wait_s": wait(op="restore"),
        "chain.resolve_s": per_it(SELF_WALL, layer="chain.resolve"),
        "chain.prune_s": per_it(WALL, layer="chain.prune"),
        "svc.admission_s": per_it(WALL, layer="svc.admission"),
        "svc.index_s": per_it(SELF_WALL, layer="svc.index"),
        "svc.gc_s": per_it(WALL, layer="svc.gc"),
        "svc.world_spawn_s": per_it(WALL, layer="world.spawn"),
        "mergeback.encode_s": per_it(WALL, layer="mergeback.encode"),
        "mergeback.decode_s": per_it(WALL, layer="mergeback.decode"),
        "mergeback.apply_s": per_it(WALL, layer="mergeback.apply"),
        "mergeback.blob_bytes": per_it(BYTES, layer="mergeback.encode"),
        "dump.unattributed_s": per_it(SELF_WALL, layer="dump"),
    }
    for name in DERIVED:
        out[name] = derived.get(name, 0.0)
    return out


#: per-layer metrics read from the program's reports, not from the shims
#: (0 on the workloads that do not exercise them)
DERIVED = (
    "reduction.view_entries", "plan.discarded_frac", "restore.remote_frac",
    "restore.mbps", "restore.tail_s",
    "chain.depth", "chain.delta_chunk_frac", "chain.epoch_p50_s",
    "chain.time_travel_p50_s", "svc.cross_tenant_dedup_ratio",
    "trace_overhead_frac",
)


#: self-time layers compared by the workload-split check (README.md)
SELF_TIME_LAYERS = (
    "hash", "reduction", "hmerge", "collectives", "plan", "exchange",
    "store.write", "store.read",
)


def self_time_shares(records, op: str = "dump") -> Dict[str, float]:
    """Each layer's share of the summed self wall time inside ``op``."""
    times = {
        layer: total(records, SELF_WALL, layer=layer, op=op)
        for layer in SELF_TIME_LAYERS
    }
    whole = sum(times.values())
    return {layer: _div(t, whole) for layer, t in times.items()}
