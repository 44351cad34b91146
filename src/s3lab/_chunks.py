"""Chunk loops on two threads.

``chunk_map(chunks)`` calls each function of the list ``chunks`` once and
returns their results in list order.  With two or more CPUs in this
process's affinity mask the calling thread runs the first contiguous half
and one pool thread the second, so at most two chunks are live at a time;
the chunks' pocketfft, BLAS and ufunc calls release the GIL.  It is the
plain serial loop with one CPU, fewer than two chunks, ``serial=True`` (a
caller whose single chunk is already over its memory budget) or when called
from the pool thread.  Callers add the results in list order, so every sum
is bit-identical to the serial loop's.  BLAS threading is left as it is.

The callers, each a loop over chunks of a bounded size:

* ``strichartz._weighted_quartic``: time-node chunks of the windowed-L4
  evaluator, slice and torus, a torus node over the budget included;
* ``bilinear.product_norm2_batch``: (pair, node) slices of the sampling
  engine, serial when one slice is over its budget;
* ``bilinear.evaluate_on_grid`` and ``bilinear.multilinear_l2_quadrature``:
  theta-slice chunks of the Haar-grid oracle, from ``bilinear._grid_chunks``
  with one reused buffer per thread;
* ``lattice.annulus_measures``, ``count_quadric_batch``,
  ``count_hyperbola_batch`` and ``setB_measures``: query blocks and tiles of
  the lattice kernels, through ``lattice._sum_into``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pool = ThreadPoolExecutor(1, thread_name_prefix="s3lab-chunks")
_in_pool = threading.local()


def threads() -> int:
    """The threads a chunk map runs on: min(2, CPUs this process may use)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _new_pool() -> None:
    # a forked child has no pool thread; the parent's executor would queue
    # work for a thread that does not exist
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="s3lab-chunks")


os.register_at_fork(after_in_child=_new_pool)


def _run(chunks: list) -> list:
    _in_pool.flag = True
    return [chunk() for chunk in chunks]


def chunk_map(chunks: list, serial: bool = False) -> list:
    """[chunk() for chunk in chunks], the second half on the pool thread.
    An exception in either half reaches the caller, after both halves end."""
    if serial or len(chunks) < 2 or threads() < 2 or getattr(_in_pool, "flag", False):
        return [chunk() for chunk in chunks]
    half = (len(chunks) + 1) // 2
    tail = _pool.submit(_run, chunks[half:])
    try:
        head = [chunk() for chunk in chunks[:half]]
    finally:
        wait([tail])
    return head + tail.result()
