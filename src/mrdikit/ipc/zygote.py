"""Worker processes forked from one start-up process (the zygote).

Starting a worker as a new interpreter means importing, and without cached
bytecode compiling, the whole package again.  Instead each coordinator
process starts one zygote with its first pool: a fresh interpreter that
imports the workloads once and then waits on a private Unix socket.  A pool
starts all its workers with one request: the coordinator makes two pipes per
worker and sends the workers' ends over that socket with its own stderr, its
working directory, the number of workers, and its environment of the
moment as the variables set and unset since the zygote started.  The zygote
forks the workers back to back; each child puts its pipes and the stderr on
fd 0/1/2, applies those differences (``PYTHONPATH`` and ``MRDI_WORKER_INIT``
included), changes directory, and runs ``worker_main``.  The
zygote answers with every pid and a pidfd for each, in one message.  A
descriptor message carries at most 253 descriptors, so a request names at
most 126 workers, and a pool, which starts with one request, has at most
``pool.MAX_WORKERS`` (126).  A worker is the zygote's
child, so the coordinator waits on it and signals it through that pidfd; its
exit status is the zygote's to collect, not the coordinator's.

A fork that fails kills and reaps the children of its request and answers
with the error.  A zygote that does not answer within
``_REPLY_TIMEOUT_SECONDS`` is killed; either way the coordinator discards the
zygote and raises TransportError, and its next pool starts a new one.

The zygote is never a fork of the coordinator: workers start from a clean
interpreter and inherit no coordinator state.  It exits when its socket
reaches end-of-file, which happens when the coordinator stops it at exit or
dies.  A coordinator that was itself forked starts its own.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import traceback
from typing import Optional, Sequence

from ..errors import TransportError
from .pool import MAX_WORKERS
from .worker import worker_main

# The zygote's command line: a fresh interpreter, as ``mrdikit --worker`` is.
_ENTRY = "from mrdikit.ipc.zygote import serve; serve()"
# A request is one SOCK_SEQPACKET message: the environment differences, the
# working directory and the number of workers as JSON; a message cannot
# outgrow the socket's send buffer.
_MAX_REQUEST = 1 << 18
# The answer is the workers' pids as JSON, or an error text.
_MAX_REPLY = 1 << 12
# How long the coordinator waits for the answer to one request.  The first
# request of a zygote also waits for its interpreter start and imports.
_REPLY_TIMEOUT_SECONDS = 30.0


class WorkerProcess:
    """One forked worker: its pid, the coordinator's ends of its pipes, and a
    pidfd to wait on and signal it.

    ``wait`` reports whether the worker has exited; its exit status goes to
    its parent, the zygote, and is not known here."""

    def __init__(self, pid: int, pidfd: int, stdin, stdout):
        self.pid = pid
        self.stdin = stdin
        self.stdout = stdout
        self._pidfd: Optional[int] = pidfd
        self._exited = False

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Wait up to ``timeout`` seconds (forever when None) for the worker
        to exit; True once it has."""
        if not self._exited and self._pidfd is not None:
            poller = select.poll()
            poller.register(self._pidfd, select.POLLIN)
            self._exited = bool(poller.poll(None if timeout is None else timeout * 1000))
        return self._exited

    def kill(self) -> None:
        if self._pidfd is None:
            return
        try:
            signal.pidfd_send_signal(self._pidfd, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        """Close the pipes and the pidfd; the worker must have exited."""
        for stream in (self.stdin, self.stdout):
            try:
                stream.close()
            except OSError:
                pass
        if self._pidfd is not None:
            os.close(self._pidfd)
            self._pidfd = None


class _Zygote:
    """The coordinator's side: the zygote process and its control socket."""

    def __init__(self):
        self.owner = os.getpid()
        # The zygote's environment: a request names only the differences.
        self.env = dict(os.environ)
        self.channel, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.channel.settimeout(_REPLY_TIMEOUT_SECONDS)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _ENTRY],
                stdin=theirs,
                stdout=subprocess.DEVNULL,
                env=self.env,
            )
        except BaseException:
            self.channel.close()
            raise
        finally:
            theirs.close()
        atexit.register(self.stop)

    def fork_workers(self, env: dict, count: int) -> list[WorkerProcess]:
        """``count`` workers, at most ``MAX_WORKERS``, by one request; all or none."""
        request = {
            "cwd": os.getcwd(),
            "set": {key: value for key, value in env.items() if self.env.get(key) != value},
            "unset": [key for key in self.env if key not in env],
            "workers": count,
        }
        theirs: list[int] = []  # per worker: stdin's read end, stdout's write end
        mine: list[int] = []  # per worker: stdin's write end, stdout's read end
        try:
            try:
                for _ in range(count):
                    stdin_r, stdin_w = os.pipe()
                    theirs.append(stdin_r)
                    mine.append(stdin_w)
                    stdout_r, stdout_w = os.pipe()
                    theirs.append(stdout_w)
                    mine.append(stdout_r)
                socket.send_fds(self.channel, [json.dumps(request).encode()], [2, *theirs])
                reply, pidfds, _, _ = socket.recv_fds(self.channel, _MAX_REPLY, count)
            finally:
                for fd in theirs:
                    os.close(fd)
            if len(pidfds) != count:
                for fd in pidfds:
                    os.close(fd)
                detail = reply.decode(errors="replace") or "exited"
                raise TransportError(f"worker start-up process: {detail}")
        except BaseException:
            for fd in mine:
                os.close(fd)
            raise
        return [
            WorkerProcess(pid, pidfd, open(mine[2 * i], "wb"), open(mine[2 * i + 1], "rb"))
            for i, (pid, pidfd) in enumerate(zip(json.loads(reply), pidfds))
        ]

    def stop(self, kill: bool = False) -> None:
        """Close the channel; in the process that started the zygote, also
        wait for it to exit, killing it first when ``kill``."""
        atexit.unregister(self.stop)
        self.channel.close()
        if os.getpid() == self.owner:
            if kill:
                self.proc.kill()
            self.proc.wait()


_zygote: Optional[_Zygote] = None
_zygote_lock = threading.Lock()


def fork_workers(env: dict, count: int) -> list[WorkerProcess]:
    """Start ``count`` workers with environment ``env`` through this process's
    zygote (started on first use).  Raises TransportError, and starts none,
    when the zygote cannot be started, cannot fork or does not answer in
    time; the zygote is then discarded."""
    global _zygote
    with _zygote_lock:
        if _zygote is not None and _zygote.owner != os.getpid():
            _zygote.stop()  # inherited through a fork of the coordinator
            _zygote = None
        try:
            if _zygote is None:
                _zygote = _Zygote()
            return _zygote.fork_workers(env, count)
        except (OSError, TransportError) as exc:
            if _zygote is not None:
                _zygote.stop(kill=True)
                _zygote = None
            if isinstance(exc, TransportError):
                raise
            if isinstance(exc, TimeoutError):
                detail = f"no answer within {_REPLY_TIMEOUT_SECONDS:g} s"
                raise TransportError(f"worker start-up process: {detail}") from None
            raise TransportError(f"worker start-up process: {exc}") from exc


# -- the zygote's side ---------------------------------------------------------------


def _reap(signum, frame) -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _become_worker(channel: socket.socket, fds: list, request: dict) -> None:
    """In the forked child: turn into a worker of ``request``, serve, exit."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        channel.detach()  # fd 0, about to become the worker's stdin
        for target, fd in enumerate(fds):
            os.dup2(fd, target)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        os.chdir(request["cwd"])
        _take_environment(request["set"], request["unset"])
        # Only the exit handlers this worker's own imports register run.
        atexit._clear()
        code = worker_main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except TransportError as exc:
        # One line and exit code 3, as ``mrdikit --worker`` reports it; one
        # write, so that the lines of workers sharing stderr do not interleave.
        sys.stderr.write(f"worker failure: {exc}\n")
        code = 3
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            atexit._run_exitfuncs()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _take_environment(changes: dict, removed: Sequence[str]) -> None:
    """Turn the zygote's environment into the coordinator's of the moment by
    their differences alone: unset ``removed``, then set ``changes``.
    Rewriting every variable would write to most of the pages the child
    shares with the zygote.  A changed ``PYTHONPATH`` also changes
    ``sys.path``."""
    old_path = os.environ.get("PYTHONPATH", "")
    for key in removed:
        os.environ.pop(key, None)
    os.environ.update(changes)
    new_path = os.environ.get("PYTHONPATH", "")
    if new_path != old_path:
        _apply_pythonpath(old_path, new_path)


def _apply_pythonpath(old: str, new: str) -> None:
    """Replace the zygote's ``PYTHONPATH`` entries in ``sys.path`` with
    ``new``'s, where a fresh interpreter puts them: after ``sys.path[0]``."""
    stale = {os.path.abspath(p) for p in old.split(os.pathsep) if p}
    fresh = [os.path.abspath(p) for p in new.split(os.pathsep) if p]
    rest = [p for p in sys.path[1:] if p not in stale and p not in fresh]
    sys.path[:] = sys.path[:1] + fresh + rest
    importlib.invalidate_caches()


def _fork_workers(channel: socket.socket, fds: list, request: dict) -> tuple[list, list]:
    """Fork the request's workers back to back; their pids and pidfds.  When
    a fork fails, the children already forked are killed and reaped."""
    pids: list[int] = []
    pidfds: list[int] = []
    # Blocked until every pidfd is open, so _reap cannot collect a child (and
    # free its pid) first.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
    try:
        for index in range(request["workers"]):
            pid = os.fork()
            if pid == 0:
                stdio = [*fds[1 + 2 * index : 3 + 2 * index], fds[0]]
                _become_worker(channel, stdio, request)
            pids.append(pid)
            pidfds.append(os.pidfd_open(pid))
    except OSError:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pidfd in pidfds:
            os.close(pidfd)
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
    return pids, pidfds


def serve() -> None:
    """The zygote's loop: fork each request's workers, until EOF on fd 0."""
    import mrdikit.workloads  # noqa: F401  (what every worker imports)

    channel = socket.socket(fileno=0)
    # Ctrl-C reaches the coordinator, which then closes the channel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGCHLD, _reap)
    while True:
        try:
            data, fds, _, _ = socket.recv_fds(channel, _MAX_REQUEST, 1 + 2 * MAX_WORKERS)
        except ConnectionResetError:
            return
        if not data:
            return
        try:
            pids, pidfds = _fork_workers(channel, fds, json.loads(data))
        except OSError as exc:
            channel.send(f"cannot fork workers: {exc}".encode())
            continue
        finally:
            for fd in fds:
                os.close(fd)
        try:
            socket.send_fds(channel, [json.dumps(pids).encode()], pidfds)
        finally:
            for pidfd in pidfds:
                os.close(pidfd)
