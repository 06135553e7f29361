import errno
import os

import numpy as np
import pytest

from gaussocc import head, pipeline, workers
from gaussocc.errors import WorkerError
from gaussocc.pipeline import run_pipeline
from gaussocc.presets import resolve_config

# the grid, class count, anchors and feature width of the small, dense-grid and occ3d benchmark workloads
SHAPES = {
    "small": ((32, 32, 16), 18, 1024, 32),
    "dense-grid": ((256, 256, 32), 18, 25600, 32),
    "occ3d": ((256, 256, 20), 18, 12800, 128),
}
THREADS = (0, 1, 2, 8, 10**9)  # no process is started for any of them
# per requested threads, the workers for 1, 2, 3 and 4 usable cores, as the three per-stage rules that
# ``count`` replaced (the splat's, the eval's and the front end's) gave them
BY_CORES = [[1, 1, 1, 1], [1, 1, 1, 1], [1, 2, 2, 2], [1, 2, 3, 4], [1, 2, 3, 4]]
ONE = [[1, 1, 1, 1]] * len(THREADS)
EXPECTED = {
    ("small", "splat"): BY_CORES, ("small", "eval"): ONE, ("small", "front-end"): ONE,
    ("dense-grid", "splat"): BY_CORES, ("dense-grid", "eval"): BY_CORES, ("dense-grid", "front-end"): BY_CORES,
    ("occ3d", "splat"): BY_CORES, ("occ3d", "eval"): BY_CORES, ("occ3d", "front-end"): BY_CORES,
}


def pieces(stage, threads, dims, c_total, anchors, width):
    """What each stage passes ``count`` as its pieces."""
    if stage == "splat":
        return -(-dims[0] // head.TILE[0])
    if stage == "eval":
        return pipeline._eval_pieces(dims, c_total)
    return -(-anchors // 8) if head._plane_workers(threads, anchors, width) > 1 else 1


class TestCount:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("workload, stage", sorted(EXPECTED))
    def test_table(self, monkeypatch, workload, stage):
        got = []
        for threads in THREADS:
            row = []
            for cores in (1, 2, 3, 4):
                monkeypatch.setattr(workers, "usable_cores", lambda: cores)
                row.append(workers.count(threads, pieces(stage, threads, *SHAPES[workload])))
            got.append(row)
        assert got == EXPECTED[workload, stage]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("workload, want", [("small", (3, 1, 1)), ("dense-grid", (3, 3, 3)), ("occ3d", (3, 3, 3))])
    def test_manifest_counts(self, tmp_path, monkeypatch, workload, want):
        # the splat's, the eval's and the front end's worker counts, as the three per-stage rules gave them;
        # the workload's grid, anchors and width, with planes and cameras no count reads shrunk
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        monkeypatch.setenv("GOC_THREADS", "8")
        dims, _, anchors, width = SHAPES[workload]
        run = {"preset": "occ3d" if workload == "occ3d" else "synthetic", "gaussian_count": anchors,
               "grid_dims": dims, "feature_width": width, "plane_shape": (8, 12), "camera_shape": (16, 24),
               "cameras": 1, "out": str(tmp_path)}
        if workload == "dense-grid":
            run.update(grid_origin=(-51.2, -51.2, -2.0), grid_voxel=(0.4, 0.4, 0.25), truncation_sigmas=3.0)
        manifest = run_pipeline(resolve_config(run)).manifest
        assert (manifest["threads"], manifest["eval_workers"], manifest["front_end_workers"]) == want

    def test_worker_count_clamped(self, monkeypatch):
        def splat_count(threads, x_dim):  # the splat's pieces are its tile columns along x
            return workers.count(threads, -(-x_dim // head.TILE[0]))

        monkeypatch.setattr(workers, "usable_cores", lambda: 4)
        assert splat_count(10**9, 256) == 4  # no process is started for the requested value
        assert splat_count(3, 256) == 3
        assert splat_count(4, 17) == 3  # one worker per tile column: 8 + 8 + 1 x-planes
        assert splat_count(4, 8) == 1
        assert splat_count(4, 1) == 1
        assert splat_count(0, 256) == 1
        monkeypatch.setattr(workers, "usable_cores", lambda: 1)
        assert splat_count(8, 256) == 1


class TestRun:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_payloads_larger_than_pipe_buffer_return_in_slab_order(self):
        # each child's pickled value is several times a 64 KiB pipe buffer,
        # and the last child's is the largest, so it blocks writing while the
        # parent still reads the first
        def fill(x_lo, x_hi):
            if x_lo == 2:
                return None  # a fill that only writes shared memory
            return bytes([x_lo, x_hi]) * (100_000 * (x_lo + 1))

        payloads = workers.run([0, 1, 2, 3, 4], fill, "splat", "x-slab")
        assert payloads == [bytes([0, 1]) * 100_000, bytes([1, 2]) * 200_000, None,
                            bytes([3, 4]) * 400_000]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_same_payloads_forked_and_in_process(self, monkeypatch):
        calls = []

        def fill(x_lo, x_hi):
            calls.append((x_lo, x_hi))  # the parent sees this only for a slab it ran itself
            return None if x_lo == 2 else bytes(range(x_lo, x_hi)) * 1000

        bounds = [0, 2, 3, 7]
        forked = workers.run(bounds, fill, "splat", "x-slab")
        assert calls == []
        assert forked == [bytes([0, 1]) * 1000, None, bytes([3, 4, 5, 6]) * 1000]
        monkeypatch.delattr(os, "fork")  # a platform without fork runs every slab in-process
        in_process = workers.run(bounds, fill, "splat", "x-slab")
        assert calls == [(0, 2), (2, 3), (3, 7)]
        assert in_process == forked and [type(value) for value in in_process] == [type(v) for v in forked]

    def test_one_slab_runs_in_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        def failing(x_lo, x_hi):
            raise RuntimeError("boom")

        monkeypatch.setattr(os, "fork", no_fork)
        calls = []
        assert workers.run([0, 13], lambda x_lo, x_hi: calls.append((x_lo, x_hi)), "splat", "x-slab") == [None]
        payloads = workers.run([0, 13], lambda x_lo, x_hi: bytearray(b"ab"), "splat", "x-slab")
        assert payloads == [b"ab"] and type(payloads[0]) is bytearray  # the fill's value, unconverted
        assert calls == [(0, 13)]
        with pytest.raises(RuntimeError, match="boom"):  # in-process, a failure propagates as is
            workers.run([0, 13], failing, "splat", "x-slab")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_values_returned_as_is_in_process_and_copied_forked(self, monkeypatch):
        made = {}

        def fill(x_lo, x_hi):
            made[x_lo] = [np.arange(x_lo, x_hi, dtype=np.float64), {"slab": (x_lo, x_hi)}]
            return made[x_lo]

        bounds = [0, 2, 3, 7]
        forked = workers.run(bounds, fill, "splat", "x-slab")
        assert made == {}  # made in the children only
        monkeypatch.delattr(os, "fork")
        in_process = workers.run(bounds, fill, "splat", "x-slab")
        assert [id(value) for value in in_process] == [id(made[x_lo]) for x_lo in bounds[:-1]]
        for copy, own in zip(forked, in_process):
            assert copy is not own
            np.testing.assert_array_equal(copy[0], own[0])
            assert copy[0].dtype == own[0].dtype and copy[1] == own[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_failed_fork_raises_worker_error_and_reaps_the_forked(self, monkeypatch):
        real, forks = os.fork, []
        error = BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        def fork():  # the second fork fails, as it does when the process limit is reached
            forks.append(len(forks))
            if len(forks) == 2:
                raise error
            return real()

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(WorkerError) as info:
            workers.run([0, 8, 16, 24], lambda lo, hi: lo, "front-end", "anchor range")
        assert str(info.value) == f"front-end worker of anchor range [8, 16) could not be forked: {error}"
        assert info.value.bounds == (8, 16) and info.value.__cause__ is error
        with pytest.raises(ChildProcessError):  # the first child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_unpicklable_value_raises_worker_error(self):
        def fill(x_lo, x_hi):
            return (lambda: None) if x_lo == 3 else x_lo  # a lambda cannot be pickled

        with pytest.raises(WorkerError, match=r"eval worker of x-slab \[3, 7\)") as info:
            workers.run([0, 2, 3, 7], fill, "eval", "x-slab")
        assert info.value.bounds == (3, 7) and "pickle" in str(info.value)
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

