"""The chunk contract: one tiling, one two-thread runner, one ordered sum.

``tiles(n_rows, n_cols, budget)`` cuts a grid into tiles of at most budget
entries.  ``chunk_map(chunks)`` calls each function of the list ``chunks``
once and returns their results in list order.  With two or more CPUs in
this process's affinity mask the calling thread runs the first contiguous
half and one pool thread the second, so at most two chunks are live at a
time, also when one chunk alone is over its caller's budget; the chunks'
pocketfft, BLAS and ufunc calls release the GIL.  With one CPU, fewer than
two chunks or from the pool thread it is the plain serial loop.
``sum_into(out, blocks)`` adds the chunk results into ``out`` in list
order, so every sum is bit-identical to the serial loop's.  BLAS threading
is left as it is.

The callers: through ``sum_into``, the time chunks of
``strichartz._weighted_quartic``, the (pair, node) slices of
``bilinear.product_norm2_batch`` and the ``tiles`` of the lattice kernels
(``lattice.annulus_measures``, ``count_quadric_batch``,
``count_hyperbola_batch``, ``setB_measures``); through ``chunk_map``, the
theta chunks of ``bilinear.evaluate_on_grid`` and
``multilinear_l2_quadrature``; and ``strichartz.slab_mask`` loops over
``tiles`` on the calling thread.
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


def chunk_map(chunks: list) -> list:
    """[chunk() for chunk in chunks], the second half on the pool thread.
    An exception in either half reaches the caller, after both halves end."""
    if len(chunks) < 2 or threads() < 2 or getattr(_in_pool, "flag", False):
        return [chunk() for chunk in chunks]
    half = (len(chunks) + 1) // 2
    tail = _pool.submit(_run, chunks[half:])
    try:
        head = [chunk() for chunk in chunks[:half]]
    finally:
        wait([tail])
    return head + tail.result()


def tiles(n_rows: int, n_cols: int, budget: int):
    """(row slice, column slice) tiles covering an n_rows x n_cols grid, row
    block by row block, each of at most budget entries: whole rows when a
    row fits, else pieces of one row."""
    cols = max(1, min(n_cols, budget))
    rows = max(1, budget // cols)
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, cols):
            yield slice(r0, min(r0 + rows, n_rows)), slice(c0, min(c0 + cols, n_cols))


def sum_into(out, blocks: list):
    """out after out[index] += sums() for each (index, sums) of blocks, in
    list order; the sums functions run through ``chunk_map``."""
    for (index, _), part in zip(blocks, chunk_map([sums for _, sums in blocks])):
        out[index] += part
    return out
