"""How work runs across processes: one runner, one worker-count rule and shared arrays.

The splat and the eval cut the grid into x-slabs and the pipeline's front
end cuts the anchors into anchor ranges.  Each of these stages clamps its
``threads`` request (``GOC_THREADS``) with ``count``, hands its ranges to
``run`` and has its workers write their rows into ``shared`` arrays.  The
head hands ``run`` its three TPV planes, one range each, and its workers
write their refined rows into one ``shared`` buffer.  It is not clamped to
``count``: a plane's scan is sequential, so a plane is the smallest piece,
and on two cores three plane processes beat two ranges of one and two
planes, which leave one core idle while the other runs its second plane
(occ3d's ``run_head`` on a 2-vCPU VM, median of 10: 1.18 s against 1.40 s).
``head._plane_workers`` decides between three and one.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal

import numpy as np

from .errors import WorkerError


def usable_cores() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def count(threads: int, pieces: int) -> int:
    """Workers for a stage: at most ``threads``, the usable cores and ``pieces``, and at least 1.

    One without ``os.fork``, where ``run`` runs every range in-process.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(int(threads), usable_cores(), pieces))


def slab_bounds(total: int, pieces: int, width: int) -> list[int]:
    """Cuts of [0, ``total``) into ``pieces`` runs of whole ``width``-wide columns, as even as the columns allow."""
    columns = np.linspace(0, -(-total // width), pieces + 1).astype(int)
    return np.minimum(columns * width, total).tolist()


def shared(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A zeroed array over a fresh anonymous mapping: what a forked worker writes into it, the parent reads.

    Its pages take no memory until they are touched, wherever the C heap has room.
    """
    buf = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


def run(bounds: list[int], fill, stage: str, unit: str) -> list:
    """Run ``fill(lo, hi)`` for each range [lo, hi) of ``bounds``; return what each returned, in range order.

    With one range, or without ``os.fork``, each range runs here in order:
    its value is returned as is and an exception propagates as is.  Otherwise
    each runs in its own forked child, which pickles ``fill``'s value (None
    if it only writes shared memory) into a pipe; the parent reads each pipe
    to its end before reaping the child, in range order, so a value larger
    than the pipe buffer cannot deadlock, and unpickles the values once
    every child is reaped.  A child always leaves through ``os._exit``, with
    status 0 only if its range is complete and its value pickled; a failure's
    message reaches the parent through the same pipe.  The children start
    with SIGINT blocked, so an interrupt reaches the parent only.  If a child
    fails, a fork fails or the wait is interrupted, every child still running
    is killed and every child is reaped before a ``WorkerError`` naming
    ``stage``, ``unit`` and the range propagates.  The children may call BLAS
    (the splat's per-tile class products, the front end's ``_product``s);
    forking while the parent's BLAS threads exist is safe because OpenBLAS
    shuts its thread pool down before a fork and a child starts its own only
    if one of its products is large enough to be threaded.
    """
    ranges = list(zip(bounds[:-1], bounds[1:]))
    if len(ranges) < 2 or not hasattr(os, "fork"):
        return [fill(*piece) for piece in ranges]
    children = []  # [pid or None once reaped, read end of its pipe, range]
    payloads = []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for piece in ranges:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_fd)
                os.close(write_fd)
                message = f"{stage} worker of {unit} [{piece[0]}, {piece[1]}) could not be forked: {exc}"
                raise WorkerError(message, piece) from exc
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    view = memoryview(pickle.dumps(fill(*piece)))
                    while view:
                        view = view[os.write(write_fd, view):]
                    status = 0
                except BaseException as exc:  # the child reports and exits, never unwinds
                    os.write(write_fd, f"{type(exc).__name__}: {exc}".encode()[:4096])
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append([pid, read_fd, piece])
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for child in children:
            pid, read_fd, (lo, hi) = child
            chunks = []
            while chunk := os.read(read_fd, 2**20):
                chunks.append(chunk)
            data = b"".join(chunks)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if code != 0:
                message = data[-4096:].decode(errors="replace") or f"exit code {code}"
                raise WorkerError(f"{stage} worker of {unit} [{lo}, {hi}) failed: {message}", (lo, hi))
            payloads.append(data)
    except KeyboardInterrupt:
        running = [piece for pid, _, piece in children if pid is not None]
        if not running:
            raise
        lo, hi = running[0]
        message = f"interrupted while waiting for the {stage} worker of {unit} [{lo}, {hi})"
        raise WorkerError(message, (lo, hi)) from None
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid, read_fd, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read_fd)
    return [pickle.loads(data) for data in payloads]
