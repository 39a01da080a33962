"""Out-of-band result-blob transport (stage/open/sweep).

The process backend's merge-back protocol ships each rank's packed cluster
delta through a staged segment — a plain ``/dev/shm`` file the child
creates and fills — instead of pickling it through the result pipe; the
parent maps the file, reads it in place and unlinks it (see
``ProcessWorld.open_result_blob``).  These tests drive the protocol the
way :func:`repro.core.runner.run_collective` does: staging happens in
forked children, open/sweep in the parent.
"""

import errno
import glob
import os

import pytest

from repro.simmpi.errors import SimMPIError
from repro.simmpi.procworld import ProcessWorld
from repro.simmpi.world import World


def _stage(comm, payloads):
    blob = payloads[comm.rank]
    return comm.world.stage_result_blob(comm.rank, blob)


def _shm_files(world):
    return glob.glob(os.path.join("/dev/shm", world._result_blob_prefix() + "*"))


class TestThreadDefaults:
    def test_blob_is_its_own_handle(self):
        world = World(2, timeout=30)
        payloads = [b"alpha", b"beta-" * 100]
        handles = world.run(_stage, payloads)
        for rank, handle in enumerate(handles):
            with world.open_result_blob(handle) as buf:
                assert bytes(buf) == payloads[rank]
        world.sweep_result_blobs()  # no-op, must not raise


class TestProcessTransport:
    def test_child_staged_blobs_read_back_and_reclaimed(self):
        world = ProcessWorld(3, timeout=60)
        payloads = [bytes([rank]) * (1000 + rank) for rank in range(3)]
        handles = world.run(_stage, payloads)
        assert _shm_files(world), "blobs should be parked in /dev/shm"
        for rank, handle in enumerate(handles):
            assert handle[0] == "shm"
            with world.open_result_blob(handle) as buf:
                assert bytes(buf) == payloads[rank]
        # Opening is consuming: every staged segment is gone afterwards.
        assert _shm_files(world) == []

    def test_empty_blob(self):
        world = ProcessWorld(2, timeout=60)
        handles = world.run(_stage, [b"", b"x"])
        with world.open_result_blob(handles[0]) as buf:
            assert bytes(buf) == b""
        with world.open_result_blob(handles[1]) as buf:
            assert bytes(buf) == b"x"
        assert _shm_files(world) == []

    def test_sweep_reclaims_unopened_blobs(self):
        """Failure paths (a rank dies after staging) must not leak
        segments: the runner's finally and the next run() both sweep."""
        world = ProcessWorld(2, timeout=60)
        world.run(_stage, [b"left", b"behind"])
        assert len(_shm_files(world)) == 2
        world.sweep_result_blobs()
        assert _shm_files(world) == []

    def test_next_run_sweeps_previous_leftovers(self):
        world = ProcessWorld(2, timeout=60)
        world.run(_stage, [b"a" * 64, b"b" * 64])
        assert len(_shm_files(world)) == 2
        world.run(lambda comm: comm.rank)
        assert _shm_files(world) == []

    def test_failed_create_raises_typed_error(self):
        """A segment that cannot be created is an error naming the
        segment, its size and the errno — never a silent fallback."""
        world = ProcessWorld(2, timeout=60)
        name = f"{world._result_blob_prefix()}{world._run_seq}-0-1"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as f:  # occupy the next staging name
            f.write(b"stale")
        try:
            with pytest.raises(SimMPIError) as err:
                world.stage_result_blob(0, b"x" * 100)
            message = str(err.value)
            assert name in message
            assert "100 bytes" in message
            assert f"errno {errno.EEXIST}" in message
            with open(path, "rb") as f:
                assert f.read() == b"stale"
        finally:
            os.unlink(path)
