"""Host roofline probe, run once at benchmark start.

Two single-core ceilings, measured at the workloads' working-set size:

* ``sha1_mbps`` — hashlib SHA-1 over 4 KiB chunks of one buffer, the
  hash layer's ceiling (``hash.roofline_frac``);
* ``memcpy_mbps`` — a numpy copy between two buffers, the exchange
  layer's ceiling (``exchange.memcpy_frac``).

The host's last-level cache is recorded next to them.  When the working
set fits in it, the ratios are cache-resident ceilings, not DRAM ones; the
printed label says which.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import statistics
import subprocess
import time
from typing import Dict, Optional

import numpy as np

CHUNK = 4096


def _llc() -> Optional[str]:
    """Largest cache level as ``lscpu`` reports it (None if unavailable)."""
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for level in ("L3", "L2"):
        match = re.search(rf"^{level} cache:\s*(.+)$", out, re.MULTILINE)
        if match:
            return f"{level} {match.group(1).strip()}"
    return None


def _llc_bytes(llc: Optional[str]) -> Optional[int]:
    if not llc:
        return None
    match = re.search(r"([\d.]+)\s*([KMG])i?B", llc)
    if not match:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[match.group(2)]
    return int(float(match.group(1)) * scale)


def _sha1_mbps(buf: memoryview) -> float:
    sha1 = hashlib.sha1
    t0 = time.perf_counter()
    for i in range(0, len(buf), CHUNK):
        sha1(buf[i:i + CHUNK]).digest()
    return len(buf) / 1e6 / (time.perf_counter() - t0)


def _memcpy_mbps(src: np.ndarray, dst: np.ndarray) -> float:
    t0 = time.perf_counter()
    np.copyto(dst, src)
    return src.nbytes / 1e6 / (time.perf_counter() - t0)


def probe(working_set: int, repeats: int = 5) -> Dict[str, object]:
    """Measure both ceilings on a ``working_set``-byte buffer (median of
    ``repeats``) and describe the host."""
    nbytes = max(CHUNK, working_set - working_set % CHUNK)
    src = np.random.default_rng(0).integers(0, 256, nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    view = memoryview(src).cast("B")
    _sha1_mbps(view)  # warm the pages and the hash code path
    np.copyto(dst, src)
    sha1 = statistics.median(_sha1_mbps(view) for _ in range(repeats))
    memcpy = statistics.median(_memcpy_mbps(src, dst) for _ in range(repeats))
    llc = _llc()
    llc_bytes = _llc_bytes(llc)
    resident = llc_bytes is not None and nbytes * 2 <= llc_bytes
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc or "unknown",
        "working_set_bytes": nbytes,
        "residency": "cache-resident" if resident else "DRAM",
        "sha1_mbps": sha1,
        "memcpy_mbps": memcpy,
    }
