import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import s3lab._chunks as chunks
import s3lab.bilinear as bl
import s3lab.strichartz as st


@pytest.fixture
def pool_runs(monkeypatch):
    """The number of chunks each pool-thread half ran, in call order."""
    runs = []
    run = chunks._run

    def counted(fns):
        runs.append(len(fns))
        return run(fns)

    monkeypatch.setattr(chunks, "_run", counted)
    return runs


def _threads(monkeypatch, n):
    monkeypatch.setattr(chunks, "threads", lambda: n)


def _slab_packet(N):
    slab = st.SlabSpec(xi0=(0.0, 0), a=(0.6, 0.8), c=0.2, M=N / 2, N=N)
    return st.sample_slab_packet(slab, st.grid_for_slab(slab, h=0.25), "gaussian-random", 3)


def _engine_batch(m, n, pairs, seed=8):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((pairs, m + 1, m + 1)) + 1j * rng.standard_normal((pairs, m + 1, m + 1))
    B = rng.standard_normal((pairs, n + 1, n + 1)) + 1j * rng.standard_normal((pairs, n + 1, n + 1))
    return A, B


EVALUATIONS = {
    "evolve_l4_norm": lambda: st.evolve_l4_norm(_slab_packet(8.0), 2, "elliptic",
                                                (-60.0, 60.0, 4096)).quartic,
    "evolve_l4_norm_exact": lambda: st.evolve_l4_norm_exact(st.box_packet(8, h=0.5)).quartic,
    "torus": lambda: st._weighted_quartic(st.sparse_packet(4, 40, 16.0, 0.25), 0, "hyperbolic",
                                          (-60.0, 60.0, 1024), x2_torus=True).quartic,
    "product_norm2_batch": lambda: bl.product_norm2_batch(bl.sampling_plan(64, 64),
                                                          *_engine_batch(64, 64, 16)).tolist(),
}


@pytest.mark.parametrize("name", EVALUATIONS)
def test_two_threads_give_the_serial_numbers(monkeypatch, pool_runs, name):
    # the chunk partition and the order of the sums are the serial loop's,
    # so the results are equal, not close
    _threads(monkeypatch, 1)
    serial = EVALUATIONS[name]()
    assert pool_runs == []
    _threads(monkeypatch, 2)
    assert EVALUATIONS[name]() == serial
    assert pool_runs and min(pool_runs) >= 1


# float.hex of two evaluations, pinned: a change to the chunk partition or
# to the order of the chunk sums, made alike in both paths above, changes
# these bits (BLAS runs on one thread, see conftest)
PINNED = {
    "evolve_l4_norm": "0x1.48fff475a8da8p+5",
    "product_norm2_batch": [
        "0x1.1540ccda48147p+26", "0x1.08fc29d4a090ap+26", "0x1.12368279cbd47p+26",
        "0x1.0f2288d279d3dp+26", "0x1.0e1006a3296d8p+26", "0x1.0935a578e6337p+26",
        "0x1.15414933fdba3p+26", "0x1.1614dbee214c8p+26", "0x1.00c71e908545dp+26",
        "0x1.1421655fe66ffp+26", "0x1.163c67efb2519p+26", "0x1.11505a35cd310p+26",
        "0x1.1625b19147908p+26", "0x1.1031f4b801db5p+26", "0x1.1599df1c79caap+26",
        "0x1.0f117dc80566ep+26"],
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", PINNED)
def test_chunked_evaluations_keep_their_pinned_bits(monkeypatch, name, n):
    _threads(monkeypatch, n)
    value = EVALUATIONS[name]()
    assert (value.hex() if isinstance(value, float) else [v.hex() for v in value]) == PINNED[name]


def test_results_come_back_in_chunk_order(monkeypatch, pool_runs):
    _threads(monkeypatch, 2)
    main = threading.get_ident()
    got = chunks.chunk_map([lambda i=i: (i, threading.get_ident()) for i in range(5)])
    assert [i for i, _ in got] == list(range(5))
    # the caller takes the first three, the pool thread the last two
    assert [t == main for _, t in got] == [True] * 3 + [False] * 2
    assert pool_runs == [2]


def test_callers_on_many_threads_share_the_pool(monkeypatch):
    # four callers on two CPUs, switching threads often: each gets its own
    # results, in its own chunk order
    _threads(monkeypatch, 2)
    got = {}

    def caller(k):
        got[k] = [chunks.chunk_map([lambda i=i: (k, i) for i in range(7)]) for _ in range(50)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == {k: [[(k, i) for i in range(7)]] * 50 for k in range(4)}


def test_one_chunk_and_one_cpu_run_on_the_caller(monkeypatch, pool_runs):
    main = threading.get_ident()
    _threads(monkeypatch, 2)
    assert chunks.chunk_map([threading.get_ident]) == [main]
    assert chunks.chunk_map([threading.get_ident] * 3, serial=True) == [main] * 3
    _threads(monkeypatch, 1)
    assert chunks.chunk_map([threading.get_ident] * 3) == [main] * 3
    assert pool_runs == []


def test_thread_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(chunks.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert chunks.threads() == 1
    monkeypatch.setattr(chunks.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert chunks.threads() == 2
    # where the mask cannot be read, the CPU count stands in
    monkeypatch.delattr(chunks.os, "sched_getaffinity")
    monkeypatch.setattr(chunks.os, "cpu_count", lambda: None)
    assert chunks.threads() == 1
    monkeypatch.setattr(chunks.os, "cpu_count", lambda: 4)
    assert chunks.threads() == 2


def test_an_over_budget_chunk_stays_on_the_caller(monkeypatch, pool_runs):
    # rows span 40 and columns 1620: Q P exceeds the chunk budget, so each
    # of the 64 chunks already holds more than one budget of entries
    _threads(monkeypatch, 2)
    grid = st.FrequencyGrid(h=0.5, xi1_extent=405.0, xi2_min=-20, xi2_max=20)
    vals = np.zeros((41, 1621), dtype=complex)
    vals[[0, 20, 40], [0, 810, 1620]] = [1.0, 0.5j, -0.25]
    p = st.WavePacket(grid=grid, values=vals)
    assert st._weighted_quartic(p, 0, "hyperbolic", (-10.0, 10.0, 64), x2_torus=True).quartic > 0
    assert pool_runs == []


def test_a_pool_thread_error_reaches_the_caller(monkeypatch):
    _threads(monkeypatch, 2)
    done = []

    def fail():
        raise ZeroDivisionError("in the pool half")

    with pytest.raises(ZeroDivisionError, match="in the pool half"):
        chunks.chunk_map([lambda: 1, lambda: 2, fail])
    # and an error on the caller's half waits for the pool half to end
    with pytest.raises(ZeroDivisionError):
        chunks.chunk_map([fail, lambda: done.append(threading.get_ident())])
    assert len(done) == 1 and done[0] != threading.get_ident()


def test_a_nan_chunk_gives_nan(monkeypatch, pool_runs):
    _threads(monkeypatch, 2)
    A, B = _engine_batch(16, 8, 16)
    A[-1, 3, 2] = np.nan
    got = bl.product_norm2_batch(bl.sampling_plan(16, 8), A, B)
    assert np.isnan(got[-1]) and np.isfinite(got[:-1]).all()
    p = _slab_packet(8.0)
    p.values[np.flatnonzero(np.any(p.values != 0, axis=1))[-1], :] *= np.nan
    assert np.isnan(st.evolve_l4_norm(p, 0, "elliptic", (-60.0, 60.0, 4096)).quartic)
    assert len(pool_runs) == 2


def _run_child(code):
    # a deadlock would hang this process at exit, so the check runs in a
    # child that the timeout kills
    r = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


def test_a_call_from_the_pool_thread_runs_serially():
    out = _run_child("""
        import threading
        from s3lab import _chunks
        _chunks.threads = lambda: 2
        def inner():
            return _chunks.chunk_map([threading.get_ident] * 2)
        main = threading.get_ident()
        (a, b), (c, d) = _chunks.chunk_map([inner, inner])
        # the caller's inner call used the pool; the pool thread's ran alone
        print(a == main, b != main, c == d == b)
    """)
    assert out == ["True", "True", "True"]


def test_a_forked_child_gets_its_own_pool():
    out = _run_child("""
        import os, time
        from s3lab import _chunks, strichartz as st
        _chunks.threads = lambda: 2
        p = st.box_packet(16, h=0.25)
        first = st.evolve_l4_norm(p).quartic
        parent_pool = id(_chunks._pool)
        pid = os.fork()
        if pid == 0:
            ok = id(_chunks._pool) != parent_pool and st.evolve_l4_norm(p).quartic == first
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                print(os.waitstatus_to_exitcode(status))
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                print("timeout")
                break
            time.sleep(0.05)
    """)
    assert out == ["0"]
