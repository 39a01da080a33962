"""Timing shims around the public entry points of each layer.

A :class:`Tracer` replaces selected functions and methods of the ``repro``
package with wrappers that record, per call, wall time (``perf_counter``)
and CPU time of the calling thread (``time.thread_time``).  Nothing inside
``src/`` changes: the wrappers are installed with ``setattr`` on the
module or class the caller looks the name up in, and removed again by
:meth:`Tracer.uninstall`.  Untraced runs never install them.

Layers nest.  Each wrapper keeps a per-thread stack of open frames so it
can report *self* time (its duration minus the time of shimmed calls made
inside it, on the same thread) next to *inclusive* time.  A shim called
while a frame of the same layer is already open on the thread is
transparent (no frame, no count), so e.g. the barrier inside
``Window.fence`` is accounted once, as part of the fence.

Every record is keyed by ``(op, layer, name, enclosing)``: ``op`` is what
the benchmark loop is doing (``dump``, ``restore``, ...; set through
:attr:`Tracer.op`), ``name`` the shimmed entry point and ``enclosing`` the
nearest open frame that is not a collective — so collective wait can be
charged to the layer that blocked on it.

Collective layers (``collectives.*``, ``Communicator.barrier``,
``Window.fence``) report *wait* as wall time minus CPU time: the time a
rank spent blocked until its peers arrived (or, on the thread backend,
waiting for the interpreter lock).

Process-backend ranks are forked children.  Their records are written to
an anonymous shared mapping created before the fork each time a root
frame closes in the child, and merged into the parent's table by
:meth:`Tracer.records`.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (op, layer, name, enclosing layer)
Key = Tuple[Optional[str], str, str, Optional[str]]

# Record fields.
CALLS, WALL, SELF_WALL, SELF_CPU, BYTES, EXTRA = range(6)
_N_FIELDS = 6

COLLECTIVES = "collectives"

_CHILD_BUFFER_BYTES = 32 << 20
_HEADER = struct.Struct("<Q")
_LENGTH = struct.Struct("<I")


class Tracer:
    """Installable per-layer timing shims with self/inclusive accounting."""

    def __init__(self) -> None:
        #: what the benchmark loop is doing right now; read by every record
        self.op: Optional[str] = None
        self._stats: Dict[Key, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._in_child = False
        self._child_buf: Optional[mmap.mmap] = None
        self._child_lock = None

    # -- installation ---------------------------------------------------------
    def shim(
        self,
        owner: Any,
        attr: str,
        layer: str,
        measure: Optional[Callable] = None,
        prepare: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` (module function, method or classmethod).

        ``prepare(args, kwargs)`` runs before the call, outside the timed
        region; ``measure(args, kwargs, result, prepared)`` runs after it,
        also untimed, and returns ``bytes`` or ``(bytes, extra)`` to add to
        the record.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, layer, name, measure, prepare))
        else:
            wrapped = self._wrap(raw, layer, name, measure, prepare)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        """Prepare the child-process channel; call once, before any fork."""
        self._child_buf = mmap.mmap(-1, _CHILD_BUFFER_BYTES)
        _HEADER.pack_into(self._child_buf, 0, _HEADER.size)
        self._child_lock = multiprocessing.get_context("fork").Lock()
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def uninstall(self) -> None:
        """Restore every shimmed attribute and release the child channel;
        read :meth:`records` first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        if self._child_buf is not None:
            self._child_buf.close()
            self._child_buf = None

    # -- the wrapper ----------------------------------------------------------
    def _wrap(self, fn, layer, name, measure, prepare):
        tracer = self
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        def shimmed(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            prepared = prepare(args, kwargs) if prepare is not None else None
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            ok = False
            w0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                cpu = thread_time() - c0
                wall = perf_counter() - w0
                stack.pop()
                enclosing = None
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                    for open_frame in reversed(stack):
                        if open_frame[0] != COLLECTIVES:
                            enclosing = open_frame[0]
                            break
                nbytes = extra = 0
                if ok and measure is not None:
                    measured = measure(args, kwargs, result, prepared)
                    if isinstance(measured, tuple):
                        nbytes, extra = measured
                    else:
                        nbytes = measured
                tracer._record(
                    (tracer.op, layer, name, enclosing),
                    wall, wall - frame[1], cpu - frame[2], nbytes, extra,
                )
                if tracer._in_child and not stack:
                    tracer._flush_child()
            return result

        shimmed.__wrapped__ = fn
        shimmed.__name__ = getattr(fn, "__name__", name)
        shimmed.__doc__ = getattr(fn, "__doc__", None)
        return shimmed

    def _record(self, key, wall, self_wall, self_cpu, nbytes, extra) -> None:
        with self._lock:
            rec = self._stats.get(key)
            if rec is None:
                rec = self._stats[key] = [0.0] * _N_FIELDS
            rec[CALLS] += 1
            rec[WALL] += wall
            rec[SELF_WALL] += self_wall
            rec[SELF_CPU] += self_cpu
            rec[BYTES] += nbytes
            rec[EXTRA] += extra

    # -- forked ranks ---------------------------------------------------------
    def _after_fork_in_child(self) -> None:
        if self._child_buf is None:
            return
        self._in_child = True
        self._stats = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _flush_child(self) -> None:
        with self._lock:
            stats, self._stats = self._stats, {}
        if not stats:
            return
        blob = pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL)
        with self._child_lock:
            (used,) = _HEADER.unpack_from(self._child_buf, 0)
            end = used + _LENGTH.size + len(blob)
            if end > len(self._child_buf):
                raise RuntimeError("tracer child buffer is full")
            _LENGTH.pack_into(self._child_buf, used, len(blob))
            self._child_buf[used + _LENGTH.size:end] = blob
            _HEADER.pack_into(self._child_buf, 0, end)

    def _child_records(self) -> List[Dict[Key, List[float]]]:
        if self._child_buf is None:
            return []
        out = []
        with self._child_lock:
            (used,) = _HEADER.unpack_from(self._child_buf, 0)
            pos = _HEADER.size
            while pos < used:
                (length,) = _LENGTH.unpack_from(self._child_buf, pos)
                pos += _LENGTH.size
                # Written by this benchmark's own forked ranks only.
                out.append(pickle.loads(self._child_buf[pos:pos + length]))
                pos += length
        return out

    # -- results --------------------------------------------------------------
    def records(self) -> Dict[Key, List[float]]:
        """Parent and child records merged into one table."""
        with self._lock:
            merged = {key: list(rec) for key, rec in self._stats.items()}
        for stats in self._child_records():
            for key, rec in stats.items():
                into = merged.setdefault(key, [0.0] * _N_FIELDS)
                for i, value in enumerate(rec):
                    into[i] += value
        return merged


def total(
    records: Dict[Key, List[float]],
    field: int,
    layer: Optional[str] = None,
    op: Optional[str] = None,
    name: Optional[str] = None,
    enclosing: Optional[str] = None,
) -> float:
    """Sum of ``field`` over the records matching every given filter."""
    out = 0.0
    for (r_op, r_layer, r_name, r_enclosing), rec in records.items():
        if layer is not None and r_layer != layer:
            continue
        if op is not None and r_op != op:
            continue
        if name is not None and r_name != name:
            continue
        if enclosing is not None and r_enclosing != enclosing:
            continue
        out += rec[field]
    return out
