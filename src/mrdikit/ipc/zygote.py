"""Worker processes forked from one start-up process (the zygote).

Starting a worker as a new interpreter means importing, and without cached
bytecode compiling, the whole package again.  Instead each coordinator
process starts one zygote with its first pool: a fresh interpreter that
imports the workloads once and then waits on a private Unix socket.  For a
worker the coordinator makes the two pipes and sends the worker's ends over
that socket, with its own stderr; the zygote forks, and the child puts them
on fd 0/1/2, takes the coordinator's environment of the moment (``PYTHONPATH``,
``MRDI_WORKER_ID`` and ``MRDI_WORKER_INIT`` included) and its working
directory, and runs ``worker_main``.  The zygote sends back the child's pid
and a pidfd for it.  A worker is the zygote's child, so the coordinator waits
on it and signals it through that pidfd; its exit status is the zygote's to
collect, not the coordinator's.

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
from typing import Optional

from ..errors import TransportError
from .worker import worker_main

# The zygote's command line: a fresh interpreter, as ``mrdikit --worker`` is.
_ENTRY = "from mrdikit.ipc.zygote import serve; serve()"
# A request is one SOCK_SEQPACKET message, a worker's environment and working
# directory as JSON; a message cannot outgrow the socket's send buffer.
_MAX_REQUEST = 1 << 18
_MAX_REPLY = 256


class WorkerProcess:
    """One forked worker: its pid, the coordinator's ends of its pipes, and a
    pidfd to wait on and signal it.

    ``poll`` and ``wait`` report whether the worker has exited; its exit
    status goes to its parent, the zygote, and is not known here."""

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

    def poll(self) -> Optional[bool]:
        """None while the worker runs, True once it has exited."""
        return True if self.wait(0) else None

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
        self.channel, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _ENTRY], stdin=theirs, stdout=subprocess.DEVNULL
            )
        except BaseException:
            self.channel.close()
            raise
        finally:
            theirs.close()
        atexit.register(self.stop)

    def fork_worker(self, env: dict) -> WorkerProcess:
        request = json.dumps({"env": env, "cwd": os.getcwd()}).encode()
        stdin_r, stdin_w = os.pipe()
        stdout_r, stdout_w = os.pipe()
        try:
            try:
                socket.send_fds(self.channel, [request], [stdin_r, stdout_w, 2])
                reply, fds, _, _ = socket.recv_fds(self.channel, _MAX_REPLY, 1)
            finally:
                os.close(stdin_r)
                os.close(stdout_w)
            if not fds:
                detail = reply.decode(errors="replace") or "exited"
                raise TransportError(f"worker start-up process: {detail}")
        except BaseException:
            os.close(stdin_w)
            os.close(stdout_r)
            raise
        return WorkerProcess(int(reply), fds[0], open(stdin_w, "wb"), open(stdout_r, "rb"))

    def stop(self) -> None:
        """Close the channel; in the process that started the zygote, also
        wait for it to exit."""
        atexit.unregister(self.stop)
        self.channel.close()
        if os.getpid() == self.owner:
            self.proc.wait()


_zygote: Optional[_Zygote] = None
_zygote_lock = threading.Lock()


def fork_worker(env: dict) -> WorkerProcess:
    """Start one worker with environment ``env``, through this process's
    zygote (started on first use).  Raises TransportError when the zygote
    cannot be started or cannot fork."""
    global _zygote
    with _zygote_lock:
        if _zygote is not None and _zygote.owner != os.getpid():
            _zygote.stop()  # inherited through a fork of the coordinator
            _zygote = None
        try:
            if _zygote is None:
                _zygote = _Zygote()
            return _zygote.fork_worker(env)
        except (OSError, TransportError) as exc:
            if _zygote is not None:
                _zygote.stop()
                _zygote = None
            if isinstance(exc, TransportError):
                raise
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
    """In the forked child: turn into a worker, serve, and exit."""
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
        _take_environment(request["env"])
        # Only the exit handlers this worker's own imports register run.
        atexit._clear()
        code = worker_main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            atexit._run_exitfuncs()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _take_environment(env: dict) -> None:
    """Make ``os.environ`` equal ``env`` by its differences alone: clearing
    and refilling every variable writes to most of the pages the child
    shares with the zygote."""
    old_path = os.environ.get("PYTHONPATH", "")
    for key in os.environ.keys() - env.keys():
        del os.environ[key]
    for key, value in env.items():
        if os.environ.get(key) != value:
            os.environ[key] = value
    new_path = env.get("PYTHONPATH", "")
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


def serve() -> None:
    """The zygote's loop: fork one worker per request on fd 0 until EOF."""
    import mrdikit.workloads  # noqa: F401  (what every worker imports)

    channel = socket.socket(fileno=0)
    # Ctrl-C reaches the coordinator, which then closes the channel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGCHLD, _reap)
    while True:
        try:
            data, fds, _, _ = socket.recv_fds(channel, _MAX_REQUEST, 3)
        except ConnectionResetError:
            return
        if not data:
            return
        request = json.loads(data)
        # Blocked until the pidfd is open, so _reap cannot collect the child
        # (and free its pid) first.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
        try:
            pid = os.fork()
            if pid == 0:
                _become_worker(channel, fds, request)
            pidfd = os.pidfd_open(pid)
        except OSError as exc:
            channel.send(f"cannot fork a worker: {exc}".encode())
            continue
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
            for fd in fds:
                os.close(fd)
        try:
            socket.send_fds(channel, [str(pid).encode()], [pidfd])
        finally:
            os.close(pidfd)
