import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mrdikit.algebra import QQ, ZZ, ExactMatrix, Polynomial, polynomial_ring, univariate_ring
from mrdikit.errors import (
    PoolClosedError,
    TransportError,
    UnsupportedTypeError,
    ValidationError,
    WorkerFailure,
)
from mrdikit.ipc import LoadContext, spawn_pool, zygote
from mrdikit.mrdi import GlobalSerializerState
from mrdikit.workloads import modular_determinant

TESTS_DIR = str(Path(__file__).parent)


@pytest.fixture
def extras_env(monkeypatch):
    # Make tests/worker_extras.py importable inside spawned workers.
    existing = os.environ.get("PYTHONPATH")
    joined = TESTS_DIR if not existing else f"{TESTS_DIR}:{existing}"
    monkeypatch.setenv("PYTHONPATH", joined)


def test_spawn_rejects_zero():
    with pytest.raises(ValidationError):
        spawn_pool(0)


@pytest.fixture
def fresh_zygote(monkeypatch):
    # The next pool starts a zygote of its own; the running one is restored
    # (and the failed one discarded) afterwards.
    monkeypatch.setattr(zygote, "_zygote", None)


def test_spawn_failure_raises_transport_error(fresh_zygote, monkeypatch):
    # A zygote that cannot be started.
    monkeypatch.setattr(sys, "executable", "/nonexistent/binary/path")
    with pytest.raises(TransportError):
        spawn_pool(2)
    assert zygote._zygote is None


def test_a_zygote_that_exits_at_once_raises_transport_error(fresh_zygote, monkeypatch):
    monkeypatch.setattr(sys, "executable", shutil.which("false"))
    with pytest.raises(TransportError):
        spawn_pool(2)
    assert zygote._zygote is None


def test_wait_ready_gets_one_identity_answer_per_worker():
    events = []
    with spawn_pool(3, tap=events.append) as pool:
        pool.wait_ready()
        sent = sorted((w, m.fn) for d, w, m in events if d == "send")
        assert sent == [(0, "identity"), (1, "identity"), (2, "identity")]
        assert sorted(w for d, w, _ in events if d == "recv") == [0, 1, 2]
        assert pool.remote_call("identity", (7,)) == 7


def test_wait_ready_reports_a_worker_that_exits(extras_env, monkeypatch):
    # Set only for the workers: the coordinator must not import this module.
    monkeypatch.setenv("MRDI_WORKER_INIT", "worker_exits")
    pool = spawn_pool(2)
    try:
        with pytest.raises(TransportError):
            pool.wait_ready()
    finally:
        pool.shutdown()


def test_single_worker_pool_basics():
    with spawn_pool(1) as pool:
        assert len(pool.workers) == 1
        assert pool.workers[0].state == "idle"
        assert pool.workers[0].known_contexts == set()
        assert pool.remote_call("identity", (42,)) == 42


def test_remote_poly_square_matches_local():
    with spawn_pool(2) as pool:
        R, (x,) = polynomial_ring(QQ, "x")
        p = x + Polynomial.constant(R, 1)
        result = pool.remote_call("poly_square", (p,))
        assert result == p * p
        assert result.parent is R


def test_unknown_function_failure():
    with spawn_pool(1) as pool:
        with pytest.raises(WorkerFailure, match="unknown function"):
            pool.remote_call("unregistered_fn", (1,))


def test_bare_int_args_send_no_contexts():
    events = []
    with spawn_pool(1, tap=events.append) as pool:
        assert pool.remote_call("identity", (7,)) == 7
    loads = [e for e in events if isinstance(e[2], LoadContext)]
    assert loads == []


def test_parallel_map_empty():
    with spawn_pool(2) as pool:
        assert pool.parallel_map("identity", []) == []


def test_parallel_map_preserves_order():
    with spawn_pool(3) as pool:
        items = [(i,) for i in range(20)]
        assert pool.parallel_map("identity", items) == list(range(20))


def test_parallel_map_single_worker_matches_serial():
    Rt, t = univariate_ring(ZZ, "t")
    polys = [t + Polynomial.constant(Rt, k) for k in range(6)]
    with spawn_pool(1) as pool:
        got = pool.parallel_map("poly_square", [(p,) for p in polys])
    assert got == [p * p for p in polys]


def test_parallel_map_reports_failing_index(extras_env):
    with spawn_pool(2, init_modules=["worker_extras"]) as pool:
        items = [(i,) for i in range(6)]
        with pytest.raises(WorkerFailure) as info:
            pool.parallel_map("fail_on_three", items)
        assert info.value.index == 3
        assert "three is right out" in str(info.value)


@pytest.mark.parametrize(
    "first, error", [((1, 3), WorkerFailure), ((2,), TransportError)], ids=["fails", "exits"]
)
def test_a_round_is_read_to_the_end_before_its_failure_is_raised(extras_env, first, error):
    # Item 0 fails at once (``fail_on_three(3)`` or ``exit_now()``) while
    # item 1, ``sleep_ms(200)``, still runs on the other worker.  The
    # error is raised only once item 1's answer has been read, so the next
    # map on the same pool finds no stale answer in a pipe.
    with spawn_pool(2, init_modules=["worker_extras"]) as pool:
        start = time.perf_counter()
        with pytest.raises(error) as info:
            pool.parallel_map("by_index", [first, (0, 200)])
        assert time.perf_counter() - start >= 0.15
        if error is WorkerFailure:
            assert info.value.index == 0
            assert str(info.value) == "item 0: ValueError: three is right out"
        live = [w.worker_id for w in pool.workers if w.state == "idle"]
        assert live == ([0, 1] if error is WorkerFailure else [1])
        items = [(i,) for i in range(3 * len(live))]
        assert pool.parallel_map("identity", items) == list(range(len(items)))


def test_a_round_sends_nothing_when_an_argument_cannot_be_sent():
    # Every item is checked, and every argument of a round saved, before the
    # round's first frame goes out.
    events = []
    with spawn_pool(2, tap=events.append) as pool:
        with pytest.raises(UnsupportedTypeError):
            pool.parallel_map("identity", [(1,), ("text",)])
        with pytest.raises(ValidationError):
            pool.parallel_map("identity", [(1,), (2,), (3,), [4]])
        assert events == []
        assert pool.parallel_map("identity", [(1,), (2,)]) == [1, 2]


def test_the_pool_starts_no_threads(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    Rt, t = univariate_ring(ZZ, "t")
    one = Polynomial.constant(Rt, 1)
    rows = [[t * t + one, t, one.scale(3)], [one.scale(2), t.scale(5), t * t], [t, one, t]]
    m = ExactMatrix.from_rows(Rt, rows)
    serial = modular_determinant(m)
    with spawn_pool(3) as pool:
        pool.wait_ready()
        assert pool.parallel_map("identity", [(i,) for i in range(7)]) == list(range(7))
        assert pool.remote_call("identity", (5,)) == 5
        assert modular_determinant(m, pool=pool) == serial


def test_worker_created_contexts_flow_back(extras_env):
    with spawn_pool(2, init_modules=["worker_extras"]) as pool:
        p1 = pool.remote_call("fresh_ring_poly", (5,))
        p2 = pool.remote_call("fresh_ring_poly", (5,))
        # Both calls may land on different workers minting different UUIDs,
        # but the reconstructed values intern to the same local ring.
        assert p1 == p2
        assert p1.parent is p2.parent


def test_extension_type_through_identity_on_two_workers(extras_env):
    from worker_extras import PolyPair

    Rt, t = univariate_ring(ZZ, "pair_t")
    Rxy, (x, y) = polynomial_ring(QQ, "pair_x", "pair_y")
    pairs = [PolyPair(t.scale(k), x * y + Polynomial.constant(Rxy, k)) for k in range(4)]
    with spawn_pool(2, init_modules=["worker_extras"]) as pool:
        assert pool.remote_call("identity", (pairs[0],)) == pairs[0]
        got = pool.parallel_map("identity", [(pair,) for pair in pairs])
    assert got == pairs
    assert all(g.first.parent is Rt and g.second.parent is Rxy for g in got)


def test_shutdown_then_call_rejected():
    pool = spawn_pool(1)
    pool.shutdown()
    with pytest.raises(PoolClosedError):
        pool.remote_call("identity", (1,))
    with pytest.raises(PoolClosedError):
        pool.parallel_map("identity", [(1,)])
    pool.shutdown()  # second shutdown is a no-op


def test_shutdown_waits_for_busy_worker(extras_env):
    import threading
    import time

    pool = spawn_pool(1, init_modules=["worker_extras"])
    outcome = {}

    def slow_call():
        outcome["value"] = pool.remote_call("sleep_ms", (600,))

    thread = threading.Thread(target=slow_call)
    thread.start()
    time.sleep(0.2)  # let the call get in flight
    start = time.perf_counter()
    pool.shutdown()
    waited = time.perf_counter() - start
    thread.join()
    assert outcome["value"] == 600  # the in-flight call completed
    assert waited > 0.15  # shutdown actually drained it


def test_worker_processes_reaped_after_shutdown():
    pool = spawn_pool(2)
    procs = [w.proc for w in pool.workers]
    pool.remote_call("identity", (0,))
    pool.shutdown()
    assert all(proc.poll() is not None for proc in procs)


def test_environment_set_after_the_zygote_started_reaches_new_workers(monkeypatch, tmp_path):
    with spawn_pool(1) as pool:
        pool.remote_call("identity", (0,))
    running = zygote._zygote
    # A module in a directory the zygote has never seen, named only in the
    # workers' environment.
    (tmp_path / "late_init.py").write_text(
        "from mrdikit.ipc import register_function\n"
        "register_function('add_two', lambda n: n + 2)\n"
    )
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", f"{tmp_path}:{existing}" if existing else str(tmp_path))
    monkeypatch.setenv("MRDI_WORKER_INIT", "late_init")
    with spawn_pool(2) as pool:
        assert pool.parallel_map("add_two", [(1,), (2,), (3,)]) == [3, 4, 5]
    assert zygote._zygote is running


def test_init_module_exit_handlers_run_when_workers_shut_down(extras_env, monkeypatch, tmp_path):
    monkeypatch.setenv("MRDI_WORKER_INIT", "worker_atexit")
    monkeypatch.setenv("WORKER_ATEXIT_DIR", str(tmp_path))
    with spawn_pool(2) as pool:
        pool.wait_ready()
        pids = sorted(str(w.proc.pid) for w in pool.workers)
    assert sorted(p.name for p in tmp_path.iterdir()) == pids


_EXITING_COORDINATOR = """
import json, os, sys
from mrdikit.ipc import spawn_pool, zygote

pool = spawn_pool(2)  # still running when this process exits
assert pool.remote_call("identity", (1,)) == 1
pids = [w.proc.pid for w in pool.workers] + [zygote._zygote.proc.pid]
r, w = os.pipe()
if os.fork() == 0:  # a forked coordinator starts a zygote of its own
    with spawn_pool(1) as inner:
        assert inner.remote_call("identity", (2,)) == 2
        mine = [inner.workers[0].proc.pid, zygote._zygote.proc.pid]
    os.write(w, json.dumps(mine).encode())
    sys.exit(0)
os.close(w)
theirs = json.loads(os.read(r, 1000))
assert os.wait()[1] == 0 and theirs[1] != pids[2]
print(json.dumps(pids + theirs))
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _assert_all_exit(pids) -> None:
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _running(pid)]


def test_an_exiting_coordinator_leaves_no_zygote_or_worker_running():
    proc = subprocess.run(
        [sys.executable, "-c", _EXITING_COORDINATOR], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stdout)
    assert len(set(pids)) == 5
    _assert_all_exit(pids)


_KILLED_COORDINATOR = """
import json, os, signal
from mrdikit.ipc import spawn_pool, zygote

pool = spawn_pool(2)
pool.wait_ready()
print(json.dumps([w.proc.pid for w in pool.workers] + [zygote._zygote.proc.pid]), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_a_killed_coordinator_leaves_no_zygote_or_worker_running():
    # No exit handler runs: the zygote and the workers see end-of-file.
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_COORDINATOR], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == -9, proc.stderr
    _assert_all_exit(json.loads(proc.stdout))


# -- context distribution -------------------------------------------------------


def nested_ring_polys(count):
    Rt, t = univariate_ring(ZZ, "t")
    Ru, u = univariate_ring(Rt, "u")
    return Rt, Ru, [u.scale(t) + u**k for k in range(2, 2 + count)]


def test_exactly_once_context_delivery_and_order():
    events = []
    Rt, Ru, polys = nested_ring_polys(9)
    with spawn_pool(3, tap=events.append) as pool:
        results = pool.parallel_map("poly_square", [(p,) for p in polys])
        assert results == [p * p for p in polys]
        inner_uuid = pool.global_state.uuid_for(Rt)
        outer_uuid = pool.global_state.uuid_for(Ru)

    loads = [
        (worker, msg.uuid)
        for direction, worker, msg in events
        if direction == "send" and isinstance(msg, LoadContext)
    ]
    # at most one LoadContext per (worker, context)
    assert len(loads) == len(set(loads))
    # dependency order: the inner ring reaches each worker before the outer
    for worker in {w for w, _ in loads}:
        sequence = [u for w, u in loads if w == worker]
        if outer_uuid in sequence:
            assert inner_uuid in sequence
            assert sequence.index(inner_uuid) < sequence.index(outer_uuid)


def test_second_ensure_sends_nothing():
    events = []
    _, _, polys = nested_ring_polys(1)
    with spawn_pool(1, tap=events.append) as pool:
        pool.remote_call("poly_square", (polys[0],))
        first_loads = sum(
            isinstance(msg, LoadContext) for d, _, msg in events if d == "send"
        )
        pool.remote_call("poly_square", (polys[0],))
        second_loads = sum(
            isinstance(msg, LoadContext) for d, _, msg in events if d == "send"
        )
    assert first_loads == 2  # inner then outer ring
    assert second_loads == first_loads


def test_calls_overlap_across_workers(extras_env):
    # Sleeps release the CPU, so overlap shows even on a single-core host:
    # 6 x 300 ms must take well under the 1.8 s serial floor on 3 workers.
    import time

    with spawn_pool(3, init_modules=["worker_extras"]) as pool:
        start = time.perf_counter()
        assert pool.parallel_map("sleep_ms", [(300,)] * 6) == [300] * 6
        elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"calls did not overlap: {elapsed:.2f}s for 6 x 300ms on 3 workers"


def test_parallel_map_deterministic_across_pool_sizes():
    Rt, t = univariate_ring(ZZ, "t")
    items = [(t**k + Polynomial.constant(Rt, k),) for k in range(10)]
    expected = [p * p for (p,) in items]
    for size in (1, 2, 4):
        with spawn_pool(size) as pool:
            assert pool.parallel_map("poly_square", items) == expected


def test_six_worker_pool_shape():
    with spawn_pool(6) as pool:
        assert len(pool.workers) == 6
        assert all(w.state == "idle" for w in pool.workers)
        assert pool.parallel_map("identity", [(i,) for i in range(12)]) == list(range(12))


def test_worker_log_files(extras_env, tmp_path, monkeypatch):
    prefix = tmp_path / "workerlog"
    monkeypatch.setenv("MRDI_WORKER_LOG", str(prefix))
    with spawn_pool(2) as pool:
        pool.parallel_map("identity", [(i,) for i in range(4)])
    logs = sorted(tmp_path.glob("workerlog.w*"))
    assert logs, "no worker log files written"
    text = "".join(p.read_text() for p in logs)
    assert "call" in text and "shutting down" in text


def test_pool_accepts_shared_global_state():
    gs = GlobalSerializerState()
    R, (x,) = polynomial_ring(QQ, "shared_x")
    with spawn_pool(1, global_state=gs) as pool:
        assert pool.global_state is gs
        got = pool.remote_call("poly_square", (x,))
        assert got == x * x
        assert gs.uuid_for(R) is not None
