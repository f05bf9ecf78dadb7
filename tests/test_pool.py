import io
import json
import os
import re
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
    SchemaError,
    TransportError,
    UnsupportedTypeError,
    ValidationError,
    WorkerFailure,
)
from mrdikit import cli
from mrdikit.ipc import (
    Call,
    Result,
    frame_bytes,
    read_message,
    spawn_pool,
    zygote,
)
from mrdikit.ipc.pool import MAX_WORKERS, WorkerPool
from mrdikit.ipc.worker import WorkerLoop
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    save,
)
from mrdikit.mrdi.document import MAX_NESTING_DEPTH
from mrdikit.workloads import modular_determinant

TESTS_DIR = str(Path(__file__).parent)


@pytest.fixture
def extras_env(monkeypatch):
    # Make tests/worker_extras.py importable inside spawned workers and have
    # them import it; the coordinator imports it too, for its codec.
    existing = os.environ.get("PYTHONPATH")
    joined = TESTS_DIR if not existing else f"{TESTS_DIR}:{existing}"
    monkeypatch.setenv("PYTHONPATH", joined)
    monkeypatch.setenv("MRDI_WORKER_INIT", "worker_extras")
    import worker_extras  # noqa: F401


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


def test_a_zygote_that_never_answers_is_stopped(fresh_zygote, monkeypatch, tmp_path):
    mute = tmp_path / "mute-zygote"
    mute.write_text("#!/bin/sh\nexec cat > /dev/null\n")
    mute.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(mute))
    monkeypatch.setattr(zygote, "_REPLY_TIMEOUT_SECONDS", 0.5)
    start = time.monotonic()
    with pytest.raises(TransportError, match="no answer within 0.5 s"):
        spawn_pool(2)
    assert time.monotonic() - start < 10
    assert zygote._zygote is None


_FAILING_FORK = """
import os
from mrdikit.ipc import zygote

real_fork = os.fork
forks = 0


def fork():
    global forks
    forks += 1
    if forks == 2:
        raise OSError(11, "injected fork failure")
    pid = real_fork()
    if pid:
        with open(os.environ["MRDI_TEST_FORK_LOG"], "a") as fh:
            fh.write(f"{pid}\\n")
    return pid


os.fork = fork
zygote.serve()
"""


def test_a_fork_that_fails_leaves_no_worker_of_the_pool(fresh_zygote, monkeypatch, tmp_path):
    # The second fork fails: the zygote kills and reaps the first child.
    log = tmp_path / "forked"
    monkeypatch.setenv("MRDI_TEST_FORK_LOG", str(log))
    monkeypatch.setattr(zygote, "_ENTRY", _FAILING_FORK)
    with pytest.raises(TransportError, match="injected fork failure"):
        spawn_pool(3)
    assert zygote._zygote is None
    forked = [int(line) for line in log.read_text().split()]
    assert len(forked) == 1
    _assert_all_exit(forked)


def test_a_pool_above_the_maximum_forks_nothing(monkeypatch, capsys):
    # The recorder starts no process, so a broken bound fails this test
    # without starting 127 of them.
    requests = []

    def recorded(env, count):
        requests.append(count)
        raise TransportError("recorded, not started")

    monkeypatch.setattr(zygote, "fork_workers", recorded)
    assert MAX_WORKERS == 126
    with pytest.raises(ValidationError, match="at most 126, got 127"):
        spawn_pool(MAX_WORKERS + 1)
    matrix = str(Path(TESTS_DIR) / "golden" / "matrix_zzt.mrdi")
    argv = ["detcrt", "--matrix", matrix, "--workers", "127", "--out", os.devnull]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: pool size must be at most 126, got 127\n"
    assert requests == []
    # The largest pool is one request.
    with pytest.raises(TransportError, match="recorded"):
        spawn_pool(MAX_WORKERS)
    assert requests == [MAX_WORKERS]


def test_wait_ready_gets_one_identity_answer_per_worker():
    events = []
    with spawn_pool(3, tap=events.append) as pool:
        pool.wait_ready()
        sent = sorted((w, m.fn) for d, w, m in events if d == "send")
        assert sent == [(0, "identity"), (1, "identity"), (2, "identity")]
        assert sorted(w for d, w, _ in events if d == "recv") == [0, 1, 2]
        assert pool.remote_call("identity", (7,)) == 7


@pytest.mark.parametrize("index", [0, 1, 2, 5])
def test_a_forked_worker_moves_to_its_own_cpu_then_may_use_all(monkeypatch, index):
    allowed = sorted(os.sched_getaffinity(0))
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, set(cpus))))
    zygote._start_on_own_cpu(index)
    assert calls == [(0, {allowed[index % len(allowed)]}), (0, set(allowed))]


def test_pool_workers_keep_the_coordinators_cpus():
    with spawn_pool(3) as pool:
        pool.wait_ready()
        for worker in pool.workers:
            assert os.sched_getaffinity(worker.proc.pid) == os.sched_getaffinity(0)


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
    assert sent_refs(events) == []
    # no empty `_refs`: a Call without contexts keeps its bytes
    [call] = [msg for direction, _, msg in events if isinstance(msg, Call)]
    assert "_refs" not in call.args


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
    with spawn_pool(2) as pool:
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
    with spawn_pool(2) as pool:
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
        with pytest.raises(ValidationError) as info:
            pool.parallel_map("identity", [(1,), (2,), (3,), [4]])
        assert str(info.value) == "item 3: call arguments must be a tuple, got list"
        with pytest.raises(ValidationError) as info:
            pool.remote_call("identity", [4])
        assert str(info.value) == "call arguments must be a tuple, got list"
        assert events == []
        assert pool.parallel_map("identity", [(1,), (2,)]) == [1, 2]


def test_an_argument_nested_too_deep_is_refused_before_it_is_sent():
    # A worker cannot read such a frame, and a frame it cannot read ends it.
    deep = 7
    for _ in range(MAX_NESTING_DEPTH + 1):
        deep = [deep]
    with spawn_pool(2) as pool:
        with pytest.raises(SchemaError, match="nested deeper than 100 levels"):
            pool.parallel_map("identity", [(1,), (deep,)])
        assert [w.state for w in pool.workers] == ["idle", "idle"]
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
    with spawn_pool(2) as pool:
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
    with spawn_pool(2) as pool:
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

    pool = spawn_pool(1)
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
    assert all(proc.wait(0) for proc in procs)


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


def workers_getenv(pool, name):
    """Each worker's value of the environment variable ``name``; None when unset."""
    got = pool.parallel_map("getenv", [(list(map(ord, name)),)] * len(pool.workers))
    return [None if codes == -1 else "".join(map(chr, codes)) for codes in got]


def test_workers_take_the_coordinators_environment_of_the_moment(
    fresh_zygote, extras_env, monkeypatch
):
    # The zygote starts with both variables set; a worker applies only the
    # differences from the zygote's environment, so an unset one must be
    # deleted and a changed one overwritten.
    monkeypatch.setenv("MRDI_TEST_GONE", "at-start")
    monkeypatch.setenv("MRDI_TEST_CHANGED", "at-start")
    try:
        with spawn_pool(2) as pool:
            assert workers_getenv(pool, "MRDI_TEST_GONE") == ["at-start"] * 2
            assert workers_getenv(pool, "MRDI_TEST_CHANGED") == ["at-start"] * 2
        running = zygote._zygote
        monkeypatch.delenv("MRDI_TEST_GONE")
        monkeypatch.setenv("MRDI_TEST_CHANGED", "later")
        with spawn_pool(2) as pool:
            assert workers_getenv(pool, "MRDI_TEST_GONE") == [None, None]
            assert workers_getenv(pool, "MRDI_TEST_CHANGED") == ["later", "later"]
        assert zygote._zygote is running
    finally:
        if zygote._zygote is not None:
            zygote._zygote.stop()


def test_a_pythonpath_entry_dropped_after_the_zygote_started_is_gone_from_new_workers(
    fresh_zygote, extras_env, monkeypatch, tmp_path
):
    (tmp_path / "only_there.py").write_text("")
    name = (list(map(ord, "only_there")),)
    without = os.environ["PYTHONPATH"]
    monkeypatch.setenv("PYTHONPATH", f"{tmp_path}:{without}")
    try:
        with spawn_pool(2) as pool:
            assert pool.parallel_map("importable", [name] * 2) == [1, 1]
        running = zygote._zygote
        monkeypatch.setenv("PYTHONPATH", without)
        with spawn_pool(2) as pool:
            assert pool.parallel_map("importable", [name] * 2) == [0, 0]
        assert zygote._zygote is running
    finally:
        if zygote._zygote is not None:
            zygote._zygote.stop()


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


def sent_refs(events):
    """(worker id, UUID) of every context the pool sent, in order: the
    ``_refs`` of each Call's arguments."""
    return [
        (worker, uuid)
        for direction, worker, msg in events
        if direction == "send" and isinstance(msg, Call)
        for uuid in msg.args.get("_refs", ())
    ]


_UUID = re.compile(rb"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")


def assert_each_call_carries_what_its_worker_lacks(events):
    """Every UUID a Call's arguments name, in their type or in a ref's base
    ring, is in that Call's ``_refs`` or was carried to its worker before."""
    held = {}
    for direction, worker, msg in events:
        if direction == "send" and isinstance(msg, Call):
            named = {uuid.decode() for uuid in _UUID.findall(frame_bytes(msg))}
            carried = set(msg.args.get("_refs", ()))
            assert named <= carried | held.get(worker, set()), (worker, msg.call_id)
            held.setdefault(worker, set()).update(carried)


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

    loads = sent_refs(events)
    # at most one delivery per (worker, context)
    assert len(loads) == len(set(loads))
    # completeness: each worker gets both rings, each Call what it still lacks
    for worker in {w for w, _ in loads}:
        assert {u for w, u in loads if w == worker} == {inner_uuid, outer_uuid}
    assert_each_call_carries_what_its_worker_lacks(events)


def test_second_ensure_sends_nothing():
    events = []
    _, _, polys = nested_ring_polys(1)
    with spawn_pool(1, tap=events.append) as pool:
        pool.remote_call("poly_square", (polys[0],))
        first_loads = len(sent_refs(events))
        pool.remote_call("poly_square", (polys[0],))
        second_loads = len(sent_refs(events))
    assert first_loads == 2  # inner and outer ring
    assert second_loads == first_loads


def test_a_result_carries_every_context_its_value_names():
    events = []
    Rt, Ru, polys = nested_ring_polys(1)
    with spawn_pool(1, tap=events.append) as pool:
        pool.remote_call("poly_square", (polys[0],))
        bound = dict(pool.global_state._uuid_to_ctx)
        assert pool.remote_call("poly_square", (polys[0],)) == polys[0] * polys[0]
        assert pool.global_state._uuid_to_ctx == bound
        uuids = [pool.global_state.uuid_for(ring) for ring in (Rt, Ru)]
    first_call = events[0][2]
    results = [msg for d, _, msg in events if d == "recv"]
    assert list(first_call.args["_refs"]) == uuids
    # The worker holds both rings, and names them again in the second Result.
    assert [msg.value["_refs"] for msg in results] == [first_call.args["_refs"]] * 2


def test_a_result_without_a_value_marks_its_worker_dead(extras_env):
    with spawn_pool(1) as pool:
        with pytest.raises(TransportError) as info:
            pool.remote_call("valueless_result", ())
        assert str(info.value) == "worker 0: malformed frame payload for kind 3: 'value'"
        assert pool.workers[0].state == "dead"


def test_context_loads_go_out_with_their_call():
    events = []
    Rt, Ru, polys = nested_ring_polys(1)
    with spawn_pool(1, tap=events.append) as pool:
        assert pool.remote_call("poly_square", (polys[0],)) == polys[0] * polys[0]
        frames = [(direction, type(msg).__name__) for direction, _, msg in events]
        uuids = [pool.global_state.uuid_for(ring) for ring in (Rt, Ru)]
    # one frame out, one answer back: the contexts ride inside the Call
    assert frames == [("send", "Call"), ("recv", "Result")]
    assert sent_refs(events) == [(0, uuids[0]), (0, uuids[1])]


def test_a_round_reads_no_answer_before_its_last_send():
    events = []
    _, _, polys = nested_ring_polys(3)
    with spawn_pool(3, tap=events.append) as pool:
        assert pool.parallel_map("poly_square", [(p,) for p in polys]) == [p * p for p in polys]
        directions = [direction for direction, _, _ in events]
    # one call per worker, carrying its two contexts
    assert directions == ["send"] * 3 + ["recv"] * 3


def test_a_rejected_context_fails_its_call_and_is_sent_again(extras_env):
    from worker_extras import REJECT_ONCE_SYMBOL

    events = []
    Rr, r = univariate_ring(ZZ, REJECT_ONCE_SYMBOL)
    with spawn_pool(1, tap=events.append) as pool:
        with pytest.raises(WorkerFailure) as info:
            pool.parallel_map("poly_square", [(r,)])
        uuid = pool.global_state.uuid_for(Rr)
        assert info.value.index == 0
        assert str(info.value) == (
            f"item 0: mrdikit.errors.SchemaError: _refs/{uuid}: "
            f"ring {REJECT_ONCE_SYMBOL} is rejected once"
        )
        assert pool.workers[0].known_contexts == set()
        del events[:]
        polys = [r + Polynomial.constant(Rr, k) for k in range(3)]
        assert pool.parallel_map("poly_square", [(p,) for p in polys]) == [p * p for p in polys]
    assert sent_refs(events) == [(0, uuid)]


def served(frames):
    """The answers a worker loop on in-memory streams gives to ``frames``."""
    stdout = io.BytesIO()
    WorkerLoop(io.BytesIO(b"".join(map(frame_bytes, frames))), stdout).serve()
    stdout.seek(0)
    answers = []
    while (msg := read_message(stdout)) is not None:
        answers.append(msg)
    return answers


def test_a_call_whose_outer_ring_comes_first_is_served(monkeypatch):
    events = []
    Rt, Ru, polys = nested_ring_polys(1)
    with spawn_pool(1, tap=events.append) as pool:
        # The worker binds the outer ring's base from the same `_refs`.
        def reversed_refs(worker, refs):
            return dict(reversed(WorkerPool.ensure_contexts(pool, worker, refs).items()))

        monkeypatch.setattr(pool, "ensure_contexts", reversed_refs)
        assert pool.parallel_map("poly_square", [(polys[0],)]) == [polys[0] * polys[0]]
        inner, outer = (pool.global_state.uuid_for(ring) for ring in (Rt, Ru))
        assert pool.workers[0].known_contexts == {inner, outer}
    answers = [type(msg).__name__ for d, _, msg in events if d == "recv"]
    assert answers == ["Result"]
    assert sent_refs(events) == [(0, outer), (0, inner)]


def test_a_cyclic_refs_pair_fails_its_call_and_the_next_is_served():
    # The argument's ring and a second ring, each naming the other as its base.
    _, t = univariate_ring(ZZ, "t")
    state = SerializerState(Mode.IPC, GlobalSerializerState(), collect_new_refs=True)
    cyclic = save((t,), state)
    [uuid_a] = state.pending_refs
    uuid_b = "21111111-2222-4333-8444-555555555555"
    cyclic["_refs"] = {
        uuid_a: {"_type": "PolyRing", "data": {"base_ring": uuid_b, "symbol": "t"}},
        uuid_b: {"_type": "PolyRing", "data": {"base_ring": uuid_a, "symbol": "b"}},
    }
    args = save((5,), state)
    frames = [Call(1, "identity", cyclic), Call(2, "identity", args)]
    answers = served(frames)
    assert [(type(msg).__name__, msg.call_id) for msg in answers] == [
        ("Failure", 1),
        ("Result", 2),
    ]
    assert "cyclic reference" in answers[0].error
    assert load(answers[1].value, DeserializerState(Mode.IPC, GlobalSerializerState())) == 5


def test_calls_overlap_across_workers(extras_env):
    # Sleeps release the CPU, so overlap shows even on a single-core host:
    # 6 x 300 ms must take well under the 1.8 s serial floor on 3 workers.
    import time

    with spawn_pool(3) as pool:
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


def test_the_tap_shows_each_answer_and_no_shutdown_frame(extras_env, monkeypatch):
    # What a worker does shows as frames on the coordinator's side: each
    # call's answer and a failing call's detail text.  ``shutdown`` sends no
    # frame: the end of its input ends each worker, which no kill then hurries.
    events, killed = [], []
    kill = zygote.WorkerProcess.kill
    monkeypatch.setattr(zygote.WorkerProcess, "kill", lambda proc: killed.append(proc) or kill(proc))
    with spawn_pool(2, tap=events.append) as pool:
        assert pool.parallel_map("identity", [(i,) for i in range(4)]) == [0, 1, 2, 3]
        with pytest.raises(WorkerFailure):
            pool.remote_call("fail_on_three", (3,))
        procs = [w.proc for w in pool.workers]
        seen = len(events)
    assert len(events) == seen and events[-1][0] == "recv"
    assert all(proc.wait(0) for proc in procs) and not killed
    calls = [msg.call_id for d, _, msg in events if d == "send" and isinstance(msg, Call)]
    answers = [msg for d, _, msg in events if d == "recv"]
    assert [type(msg).__name__ for msg in answers] == ["Result"] * 4 + ["Failure"]
    assert sorted(msg.call_id for msg in answers) == sorted(calls)
    assert answers[-1].error == "ValueError: three is right out"


def test_a_worker_answers_only_the_frames_it_serves():
    # A Result is no request: the worker reads past it without an answer.
    state = GlobalSerializerState()
    args = save((5,), SerializerState(Mode.IPC, state))
    frames = [Result(9, args), Call(1, "identity", args)]
    answers = served(frames)
    assert [(type(msg).__name__, msg.call_id) for msg in answers] == [("Result", 1)]
    assert load(answers[0].value, DeserializerState(Mode.IPC, state)) == 5
