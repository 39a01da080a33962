"""Process-parallel SPMD backend with shared-memory one-sided windows.

Every rank is a forked OS process, so the compute-heavy phases of a dump —
SHA-1 fingerprinting, packing, region decode, store commits — run genuinely
in parallel across cores instead of interleaving under the GIL.  The three
shared facilities of the :class:`~repro.simmpi.backend.BaseWorld` contract
map onto ``multiprocessing`` primitives:

* **point-to-point** — one ``multiprocessing.Queue`` inbox per rank; each
  child demultiplexes its inbox into per-``(source, tag)`` deques, which
  preserves the non-overtaking guarantee of the thread backend.  Self-sends
  short-circuit through the local deque (no pickling).
* **barrier** — a ``multiprocessing.Barrier`` created per run and inherited
  through the fork; it raises the same :class:`threading.BrokenBarrierError`
  the communicator already handles.
* **one-sided windows** — every exposure is a file under ``/dev/shm``,
  mapped with ``mmap`` and named deterministically from ``(world uid, run,
  window id, rank)``, so any rank maps a partner's window lazily by name and
  a ``Window.put``/``put_many`` is a true zero-copy cross-process memcpy.  A
  32-byte header (logical size, filled counter, deferred receive
  accounting) rides in front of the payload; access is serialised by a
  striped pool of ``multiprocessing.Lock`` objects shared by all ranks.

Failure semantics match the thread backend: exceptions raised by a rank are
pickled back and re-raised inside a :class:`~repro.simmpi.errors.WorldError`;
a rank whose *process* dies hard (killed, segfault, ``os._exit``) surfaces
as a :class:`~repro.simmpi.errors.RankCrashError` entry rather than a hang,
and stragglers are reported as :class:`~repro.simmpi.errors.DeadlockError`
after the world timeout — the same contract the failure-injection and
degraded-dump machinery is written against.

Segments are plain files rather than the standard library's shared-memory
objects, so no process ever starts or registers with a resource tracker:
owners unlink their own segments and the parent sweeps what a crashed child
left behind.

Fork-only and Linux-only (``/dev/shm``): rank functions, their closures and
the inherited cluster state need no pickling.  Rank results *are* pickled
back to the parent, so programs must return picklable values — every
report/dataclass in this library is.  Forked ranks write to copies of in-memory storage; see
:func:`repro.core.runner.run_collective` for the delta-merge driver that
folds those writes back into the caller's cluster.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import queue
import struct
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from multiprocessing.connection import wait

from repro.simmpi.backend import BaseWorld, resolve_timeout
from repro.simmpi.comm import Communicator
from repro.simmpi.errors import (
    DeadlockError,
    RankCrashError,
    SimMPIError,
    WorldError,
)

#: where segments live (a tmpfs on Linux)
_SHM_DIR = "/dev/shm"
#: slot header: u64 logical nbytes | u64 filled | u64 recv bytes | u64 recv msgs
_HEADER = 32
#: striped cross-process lock pool shared by every window slot
_N_LOCKS = 64
#: extra parent-side budget past the world timeout, so ranks that diagnose
#: their own DeadlockError (their blocking ops time out first) get their
#: report collected before the parent declares them stuck
_COLLECT_SLACK = 2.0
#: how long a dead child's result may lag in the pipe before it counts as
#: a hard crash
_CRASH_GRACE = 0.5


class _Segment:
    """A named file under ``/dev/shm`` mapped with :mod:`mmap`.

    The owner creates it exclusively (``O_EXCL``: a stale file of the same
    name is an error, never silently re-mapped) and unlinks it; peers open
    it by name.  Nothing is registered with a resource tracker: cleanup is
    the owner's :meth:`unlink` plus :class:`ProcessWorld`'s sweeps.
    """

    __slots__ = ("name", "_mmap", "buf")

    def __init__(self, name: str, mm: mmap.mmap) -> None:
        self.name = name
        self._mmap = mm
        self.buf = memoryview(mm)

    @classmethod
    def create(cls, name: str, size: int) -> "_Segment":
        """Create and map a new ``size``-byte segment; :class:`SimMPIError`
        names the segment, size and errno when the OS refuses."""
        path = os.path.join(_SHM_DIR, name)
        fd = -1
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
            os.ftruncate(fd, size)
            mm = mmap.mmap(fd, size)
        except OSError as exc:
            if fd >= 0:
                os.close(fd)
                os.unlink(path)
            raise SimMPIError(
                f"cannot create shared segment {name} ({size} bytes): "
                f"errno {exc.errno} ({exc.strerror})"
            ) from None
        os.close(fd)
        return cls(name, mm)

    @classmethod
    def open(cls, name: str) -> "_Segment":
        """Map an existing segment (raises ``FileNotFoundError``)."""
        fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
        try:
            return cls(name, mmap.mmap(fd, 0))
        finally:
            os.close(fd)

    def close(self) -> None:
        self.buf.release()
        try:
            self._mmap.close()
        except BufferError:
            # A consumer kept a sub-view alive; the mapping is freed when
            # that view dies.
            pass

    def unlink(self) -> None:
        _unlink(self.name)


def _unlink(name: str) -> None:
    try:
        os.unlink(os.path.join(_SHM_DIR, name))
    except FileNotFoundError:
        pass


def _unlink_prefixed(prefix: str) -> None:
    """Unlink every segment whose name starts with ``prefix``."""
    for name in os.listdir(_SHM_DIR):
        if name.startswith(prefix):
            _unlink(name)


class _ShmSlot:
    """One rank's exposed shared-memory region plus its striped lock.

    Layout: ``[u64 nbytes][u64 filled][u64 recv_bytes][u64 recv_msgs]``
    followed by ``nbytes`` of payload (a zero-byte window still maps one
    payload byte, hence the explicit logical size).  ``recv_*`` accumulate
    remote puts for the owner to drain at fence time
    (:meth:`~repro.simmpi.window.Window.fence` -> :meth:`take_received`),
    since a writer cannot reach the owner's trace across address spaces.
    """

    __slots__ = ("_seg", "nbytes", "_lock")

    def __init__(self, seg: _Segment, nbytes: int, lock) -> None:
        self._seg = seg
        self.nbytes = int(nbytes)
        self._lock = lock

    def write(self, staged, remote: bool) -> None:
        buf = self._seg.buf
        with self._lock:
            total = 0
            for offset, payload in staged:
                n = len(payload)
                buf[_HEADER + offset : _HEADER + offset + n] = payload
                total += n
            filled, rbytes, rmsgs = struct.unpack_from("<QQQ", buf, 8)
            filled += total
            if remote:
                rbytes += total
                rmsgs += 1
            struct.pack_into("<QQQ", buf, 8, filled, rbytes, rmsgs)

    def read(self, offset: int, nbytes: int) -> bytes:
        with self._lock:
            return bytes(self._seg.buf[_HEADER + offset : _HEADER + offset + nbytes])

    def snapshot(self) -> bytes:
        with self._lock:
            return bytes(self._seg.buf[_HEADER : _HEADER + self.nbytes])

    @property
    def filled(self) -> int:
        with self._lock:
            return struct.unpack_from("<Q", self._seg.buf, 8)[0]

    def take_received(self) -> Tuple[int, int]:
        with self._lock:
            rbytes, rmsgs = struct.unpack_from("<QQ", self._seg.buf, 16)
            struct.pack_into("<QQ", self._seg.buf, 16, 0, 0)
        return int(rbytes), int(rmsgs)

    def close(self) -> None:
        self._seg.close()


class _RemoteFailure:
    """Transportable wrapper for an exception raised inside a rank process."""

    def __init__(self, exc: BaseException) -> None:
        self.summary = repr(exc)
        self.trailer = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        try:
            self.payload: Optional[bytes] = pickle.dumps(exc)
        except Exception:
            self.payload = None

    def to_exception(self) -> BaseException:
        if self.payload is not None:
            try:
                return pickle.loads(self.payload)
            except Exception:
                pass
        return RankCrashError(
            f"rank raised an untransportable exception: {self.summary}\n"
            f"{self.trailer}"
        )


class ProcessWorld(BaseWorld):
    """Process backend: one forked OS process per rank.

    Drop-in for the thread :class:`~repro.simmpi.world.World` — same
    communicator, collectives and window API — with genuinely parallel rank
    execution.  Differences that leak through the interface:

    * rank results (and messages) must be picklable;
    * ranks see *copies* of objects captured at fork time — shared mutable
      state written by one rank is not visible to others or to the parent
      except through the substrate (messages, windows) or an explicit
      merge such as :func:`repro.core.runner.run_collective`'s cluster
      delta fold;
    * ``comms`` carries parent-side communicator shells holding each
      rank's transported trace after a run.
    """

    backend_name = "process"

    def __init__(self, size: int, timeout: Optional[float] = None) -> None:
        if size < 1:
            raise SimMPIError(f"world size must be >= 1, got {size}")
        self.size = int(size)
        self.timeout = resolve_timeout(timeout)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise SimMPIError(
                "the process backend requires the fork start method (POSIX)"
            ) from None
        if not os.path.isdir(_SHM_DIR):
            raise SimMPIError(
                f"the process backend requires a {_SHM_DIR} directory (Linux)"
            )
        self._locks = [self._ctx.Lock() for _ in range(_N_LOCKS)]
        self._uid = f"{os.getpid():x}x{os.urandom(3).hex()}"
        self._run_seq = 0
        self._blob_seq = 0
        self._comms: List[Optional[Communicator]] = [None] * self.size
        # Per-run shared plumbing (created in run(), inherited by fork).
        self.barrier = None
        self._inboxes: Optional[List[Any]] = None
        # Child-side state (only populated after the fork, in the child).
        self._child_rank: Optional[int] = None
        self._buffered: Dict[Tuple[int, int], deque] = {}
        self._open_slots: Dict[Tuple[int, int], _ShmSlot] = {}
        self._owned_shm: Dict[Tuple[int, int], _Segment] = {}

    # -- identity / inspection ---------------------------------------------------
    def comm_for(self, rank: int) -> Communicator:
        comm = self._comms[rank]
        if comm is None:
            comm = self._comms[rank] = Communicator(self, rank)
        return comm

    @property
    def comms(self) -> List[Optional[Communicator]]:
        """Communicators of the last run (parent side: transported traces)."""
        return self._comms

    # -- point-to-point transport ----------------------------------------------
    def post(self, dest: int, source: int, tag: int, obj: Any) -> None:
        if dest == self._child_rank:
            # Self-send: straight into the local deque, no pickling.
            self._buffered.setdefault((source, tag), deque()).append(obj)
            return
        self._inboxes[dest].put((source, tag, obj))

    def deliver(self, rank: int, source: int, tag: int, timeout: float) -> Any:
        key = (source, tag)
        pending = self._buffered.get(key)
        if pending:
            return pending.popleft()
        inbox = self._inboxes[rank]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise queue.Empty
            src, t, obj = inbox.get(timeout=remaining)  # raises queue.Empty
            if (src, t) == key:
                return obj
            self._buffered.setdefault((src, t), deque()).append(obj)

    def probe_pending(self, rank: int, source: int, tag: int) -> bool:
        inbox = self._inboxes[rank]
        while True:
            try:
                src, t, obj = inbox.get_nowait()
            except queue.Empty:
                break
            self._buffered.setdefault((src, t), deque()).append(obj)
        return bool(self._buffered.get((source, tag)))

    # -- one-sided windows -------------------------------------------------------
    def _shm_name(self, window_id: int, rank: int) -> str:
        sign = "n" if window_id < 0 else "p"
        return f"psm{self._uid}-{self._run_seq}-{sign}{abs(window_id):x}-{rank}"

    def _lock_for(self, window_id: int, rank: int):
        return self._locks[(abs(window_id) * 1000003 + rank) % _N_LOCKS]

    def window_create(self, window_id: int, rank: int, nbytes: int) -> _ShmSlot:
        seg = _Segment.create(
            self._shm_name(window_id, rank), _HEADER + max(1, nbytes)
        )
        struct.pack_into("<QQQQ", seg.buf, 0, nbytes, 0, 0, 0)
        slot = _ShmSlot(seg, nbytes, self._lock_for(window_id, rank))
        self._owned_shm[(window_id, rank)] = seg
        self._open_slots[(window_id, rank)] = slot
        return slot

    def window_slot(self, window_id: int, rank: int) -> _ShmSlot:
        slot = self._open_slots.get((window_id, rank))
        if slot is None:
            try:
                seg = _Segment.open(self._shm_name(window_id, rank))
            except FileNotFoundError:
                raise SimMPIError(
                    f"window {window_id} not exposed by rank {rank} "
                    "(put before collective create completed?)"
                ) from None
            nbytes = struct.unpack_from("<Q", seg.buf, 0)[0]
            slot = _ShmSlot(seg, int(nbytes), self._lock_for(window_id, rank))
            self._open_slots[(window_id, rank)] = slot
        return slot

    def window_free(self, window_id: int, rank: int) -> None:
        # Close every cached handle of this window (own and partners').
        for key in [k for k in self._open_slots if k[0] == window_id]:
            self._open_slots.pop(key).close()
        seg = self._owned_shm.pop((window_id, rank), None)
        if seg is not None:
            seg.unlink()

    # charge_put_received: inherited no-op — remote puts are accounted in the
    # slot header by write(remote=True) and drained at the owner's fence.

    # -- result blobs (zero-copy child -> parent hand-off) -----------------------
    #
    # Large rank results — the packed cluster deltas of the merge-back
    # protocol (see repro.storage.delta_codec) — would otherwise be pickled
    # through the result pipe.  Instead a child stages the blob in a
    # dedicated segment and ships only (name, nbytes); the parent maps the
    # segment after run() and decodes in place.  The segments use the
    # distinct "psr" prefix: the per-run "psm" sweep must NOT reclaim them
    # (the parent reads them *after* run() returns) — they are reclaimed by
    # open_result_blob itself, by sweep_result_blobs() on failure paths,
    # and at the next run() start.

    def _result_blob_prefix(self) -> str:
        return f"psr{self._uid}-"

    def stage_result_blob(self, rank: int, blob) -> Any:
        """Child side: park ``blob`` in a fresh segment; return a small
        transportable handle.  Raises :class:`SimMPIError` if the segment
        cannot be created."""
        nbytes = len(blob)
        self._blob_seq += 1
        name = f"{self._result_blob_prefix()}{self._run_seq}-{rank}-{self._blob_seq}"
        seg = _Segment.create(name, max(1, nbytes))
        seg.buf[:nbytes] = blob
        seg.close()
        return ("shm", name, nbytes)

    @contextlib.contextmanager
    def open_result_blob(self, handle):
        """Parent side: context manager yielding the staged blob's buffer.

        The segment is unlinked on exit — a handle is single-use.
        Consumers must not keep sub-views past the ``with`` block.
        """
        _kind, name, nbytes = handle
        seg = _Segment.open(name)
        view = seg.buf[:nbytes]
        try:
            yield view
        finally:
            try:
                view.release()
            except BufferError:
                pass  # a consumer still holds a view; the mapping dies with it
            seg.close()
            seg.unlink()

    def sweep_result_blobs(self) -> None:
        """Unlink staged result segments that were never consumed (failed
        runs, crashed children).  Called at run() start and by the
        merge-back driver's failure paths."""
        _unlink_prefixed(self._result_blob_prefix())

    # -- execution ---------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Fork one process per rank running ``fn(comm, *args, **kwargs)``.

        Returns rank-ordered results; failures (exceptions, hard process
        deaths, timeouts) are raised as one :class:`WorldError` keyed by
        rank, exactly like the thread backend.
        """
        ctx = self._ctx
        self._run_seq += 1
        # Any result blob still staged now belongs to a previous (failed or
        # unconsumed) run; reclaim before forking fresh children.
        self.sweep_result_blobs()
        self.barrier = ctx.Barrier(self.size)
        self._inboxes = [ctx.Queue() for _ in range(self.size)]
        # One result pipe shared by all ranks: children pickle synchronously
        # (serialisation errors are catchable there), write whole messages
        # under a lock, and nothing is lost in a feeder thread if a child
        # dies right after reporting.
        reader, writer = ctx.Pipe(duplex=False)
        report = (writer, ctx.Lock())
        procs = [
            ctx.Process(
                target=self._child_main,
                args=(rank, report, fn, args, kwargs),
                name=f"simmpi-proc-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.size)
        ]
        for p in procs:
            p.start()

        results: List[Any] = [None] * self.size
        traces: List[Any] = [None] * self.size
        failures: Dict[int, BaseException] = {}
        pending = set(range(self.size))
        dead_since: Dict[int, float] = {}

        def abort_barrier() -> None:
            try:
                self.barrier.abort()
            except Exception:
                pass

        def absorb(record) -> None:
            rank, status, payload, trace = record
            pending.discard(rank)
            dead_since.pop(rank, None)
            traces[rank] = trace
            if status == "ok":
                results[rank] = payload
            else:
                failures[rank] = payload.to_exception()

        def absorb_next(timeout: float) -> bool:
            if not reader.poll(timeout):
                return False
            absorb(pickle.loads(reader.recv_bytes()))
            return True

        deadline = time.monotonic() + self.timeout + _COLLECT_SLACK
        while pending and time.monotonic() < deadline:
            if absorb_next(0):
                continue
            now = time.monotonic()
            for rank in sorted(pending):
                if procs[rank].exitcode is None:
                    continue
                # Dead process: give its (possibly in-flight) report a short
                # grace before declaring a hard crash.
                first_seen = dead_since.setdefault(rank, now)
                if now - first_seen > _CRASH_GRACE:
                    del dead_since[rank]
                    failures[rank] = RankCrashError(
                        f"rank {rank} process exited with code "
                        f"{procs[rank].exitcode} without reporting a result"
                    )
                    pending.discard(rank)
                    abort_barrier()
            # Sleep until a result arrives, a live rank dies, the earliest
            # crash grace runs out or the deadline passes.
            wake = min(
                [deadline] + [t + _CRASH_GRACE for t in dead_since.values()]
            )
            live = [procs[r].sentinel for r in pending if r not in dead_since]
            wait([reader] + live, max(0.0, wake - time.monotonic()) + 0.001)

        if pending:
            # Stragglers past the world budget: release the barrier, grant a
            # short grace to unwind, then report them stuck.
            abort_barrier()
            grace = time.monotonic() + 1.0
            while pending and absorb_next(max(0.0, grace - time.monotonic())):
                pass
            for rank in sorted(pending):
                failures[rank] = DeadlockError(
                    f"rank {rank} did not finish within the world timeout "
                    f"of {self.timeout}s"
                )

        for p in procs:
            p.join(timeout=0.25)
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(timeout=1.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)

        # Parent-side communicator shells carrying the transported traces.
        for rank, trace in enumerate(traces):
            if trace is not None:
                comm = Communicator(self, rank)
                comm.trace = trace
                self._comms[rank] = comm

        self._sweep_leaked_shm()
        reader.close()
        writer.close()
        for inbox in self._inboxes:
            inbox.close()
        self._inboxes = None
        if failures:
            raise WorldError(failures)
        return results

    def _child_main(self, rank, report, fn, args, kwargs) -> None:
        self._child_rank = rank
        self._buffered = {}
        self._open_slots = {}
        self._owned_shm = {}
        self._blob_seq = 0
        comm = self.comm_for(rank)
        status: str = "ok"
        payload: Any = None
        try:
            payload = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - transported via WorldError
            status, payload = "err", _RemoteFailure(exc)
            try:
                self.barrier.abort()  # release peers stuck in the barrier
            except Exception:
                pass
        finally:
            try:
                record = pickle.dumps((rank, status, payload, comm.trace))
            except Exception as exc:  # unpicklable result/trace
                record = pickle.dumps((rank, "err", _RemoteFailure(exc), None))
            writer, lock = report
            with lock:
                writer.send_bytes(record)
            self._release_all_shm()

    def _release_all_shm(self) -> None:
        """Child-side safety net: close attachments, unlink own segments.

        The normal path already freed every window; this covers exception
        exits so segments do not outlive the run.
        """
        for slot in self._open_slots.values():
            slot.close()
        for seg in self._owned_shm.values():
            seg.unlink()
        self._open_slots.clear()
        self._owned_shm.clear()

    def _sweep_leaked_shm(self) -> None:
        """Parent-side safety net: unlink segments of hard-killed children."""
        _unlink_prefixed(f"psm{self._uid}-{self._run_seq}-")
