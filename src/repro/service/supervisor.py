"""The pre-fork fleet supervisor: one listener, N worker processes.

``python -m repro serve --workers N`` runs this instead of a single
server.  The supervisor

1. **binds the one listening socket** itself (``SO_REUSEPORT`` is set
   opportunistically so an operator can run side-by-side fleets, but
   nothing depends on it — workers share the *inherited* socket, which
   works on any platform and keeps the accept queue alive across
   worker restarts because the supervisor never closes its copy);
2. **forks** N workers (``multiprocessing`` fork context — the
   supervisor is single-threaded at fork time, so no lock is ever
   cloned mid-acquisition); each worker resets the forked observer
   copy, opens its control socket (:mod:`repro.service.control`) and
   accepts from the shared listener;
3. **monitors**: children are reaped promptly, and an unexpected death
   is answered with a respawn after per-slot exponential backoff
   (0.2 s doubling to 5 s, reset once a worker survives 30 s) so a
   crash-looping shard cannot busy-spin the machine;
4. **propagates shutdown**: SIGINT/SIGTERM to the supervisor SIGTERMs
   every worker, which drains in-flight requests exactly like the
   single-process server, then the supervisor reaps, closes the
   listener and removes the control-socket directory.

:func:`spawn_fleet` is the test/bench-facing helper: it launches the
whole arrangement as a *subprocess* (never forking from a threaded
test runner) and hands back ports and pids parsed from the
``--ready-file`` the supervisor publishes once every worker is up.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..obs import OBS
from .control import socket_path
from .server import serve_worker, write_ready_file
from .state import ServiceConfig

#: First respawn delay after an unexpected worker death.
BACKOFF_INITIAL = 0.2
#: Ceiling on the per-slot respawn delay.
BACKOFF_CAP = 5.0
#: A worker alive this long is "healthy": its slot's backoff resets.
BACKOFF_HEALTHY_RESET = 30.0
#: Listen backlog for the shared socket.
LISTEN_BACKLOG = 128


def create_listener(host: str, port: int, backlog: int = LISTEN_BACKLOG) -> socket.socket:
    """Bind and listen the fleet's one shared socket.

    ``SO_REUSEPORT`` is best-effort (absent or refused on some
    platforms); inheritance across fork is what actually shares the
    socket.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            except OSError:
                pass
        sock.bind((host, port))
        sock.listen(backlog)
        sock.set_inheritable(True)
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(config: ServiceConfig, sock: socket.socket) -> None:
    """Entry point of one forked worker process."""
    # The fork cloned the supervisor's observer verbatim; this worker's
    # telemetry must start from zero or fleet merges double-count.
    OBS.reset()
    sys.exit(serve_worker(config, sock=sock))


class FleetSupervisor:
    """Owns the listener, the control dir and the worker processes."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.workers < 2:
            raise ValueError("fleet mode needs workers >= 2")
        self.config = config
        self._ctx = multiprocessing.get_context("fork")
        self.sock: Optional[socket.socket] = None
        self.port: Optional[int] = None
        self.control_dir: Optional[str] = None
        self.workers: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._backoff = [BACKOFF_INITIAL] * config.workers
        self._spawned_at = [0.0] * config.workers
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the listener, create the control dir, fork every worker."""
        self.sock = create_listener(self.config.host, self.config.port)
        self.port = self.sock.getsockname()[1]
        self.control_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        for shard in range(self.config.workers):
            self._spawn(shard)

    def _worker_config(self, shard: int) -> ServiceConfig:
        return replace(
            self.config,
            port=self.port,
            shard_index=shard,
            control_dir=self.control_dir,
            ready_file=None,  # the supervisor publishes readiness
        )

    def _spawn(self, shard: int) -> None:
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._worker_config(shard), self.sock),
            name=f"repro-worker-{shard}",
        )
        process.start()
        self.workers[shard] = process
        self._spawned_at[shard] = time.monotonic()

    def pids(self) -> List[int]:
        return [proc.pid for _, proc in sorted(self.workers.items())]

    def publish_ready(self) -> None:
        """(Re)write the readiness document; called again after respawns
        so pollers always see live pids."""
        if not self.config.ready_file:
            return
        write_ready_file(
            self.config.ready_file,
            {
                "host": self.config.host,
                "port": self.port,
                "workers": self.config.workers,
                "pids": self.pids(),
                "supervisor_pid": os.getpid(),
                "control_dir": self.control_dir,
                "restarts": self.restarts,
            },
        )

    # -- monitoring ----------------------------------------------------------

    def monitor(self, stop: threading.Event, poll_interval: float = 0.2) -> None:
        """Reap and respawn until *stop* is set."""
        while not stop.is_set():
            self._sweep_once(stop)
            stop.wait(poll_interval)

    def _sweep_once(self, stop: threading.Event) -> None:
        for shard, process in list(self.workers.items()):
            process.join(timeout=0)  # reap if exited; never blocks
            if process.exitcode is None or stop.is_set():
                continue
            now = time.monotonic()
            if now - self._spawned_at[shard] >= BACKOFF_HEALTHY_RESET:
                self._backoff[shard] = BACKOFF_INITIAL
            delay = self._backoff[shard]
            print(
                f"repro-service: worker {shard} (pid {process.pid}) exited "
                f"with code {process.exitcode}; restarting in {delay:.1f}s",
                file=sys.stderr,
                flush=True,
            )
            self._backoff[shard] = min(self._backoff[shard] * 2.0, BACKOFF_CAP)
            self.restarts += 1
            if stop.wait(delay):
                return
            self._spawn(shard)
            self.publish_ready()

    # -- shutdown ------------------------------------------------------------

    def stop(self) -> bool:
        """SIGTERM every worker, wait out the drain, then clean up.

        Returns True when every worker exited inside the drain budget.
        """
        for process in self.workers.values():
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (ProcessLookupError, TypeError):
                    pass
        deadline = time.monotonic() + self.config.drain_seconds + 5.0
        clean = True
        for process in self.workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                clean = False
                process.kill()
                process.join(timeout=2.0)
        if self.sock is not None:
            self.sock.close()
        if self.control_dir is not None:
            shutil.rmtree(self.control_dir, ignore_errors=True)
        return clean


def serve_fleet(config: ServiceConfig) -> int:
    """Run the supervised fleet in the foreground until SIGINT/SIGTERM."""
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, request_stop)

    supervisor = FleetSupervisor(config)
    clean = True
    try:
        if not stop.is_set():
            supervisor.start()
            supervisor.publish_ready()
            print(
                f"repro-service fleet listening on "
                f"http://{config.host}:{supervisor.port} "
                f"(workers={config.workers}, threads={config.threads}, "
                f"queue_limit={config.queue_limit})",
                file=sys.stderr,
                flush=True,
            )
            supervisor.monitor(stop)
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
        clean = supervisor.stop()
        print(
            "repro-service fleet stopped"
            + ("" if clean else " (killed lingering workers)")
            + (f" after {supervisor.restarts} restart(s)" if supervisor.restarts else ""),
            file=sys.stderr,
            flush=True,
        )
    return 0


# -- subprocess harness (tests, benchmarks, chaos CI) ------------------------


@dataclass
class FleetHandle:
    """A running ``serve`` subprocess plus its parsed readiness document."""

    process: subprocess.Popen
    ready: dict
    ready_file: str
    #: Where the subprocess's stderr (startup banner + ``--log-json``
    #: access log) is being captured, when ``spawn_fleet(log_path=...)``.
    log_path: Optional[str] = None

    @property
    def port(self) -> int:
        return int(self.ready["port"])

    @property
    def host(self) -> str:
        return str(self.ready["host"])

    @property
    def pids(self) -> List[int]:
        return [int(pid) for pid in self.ready["pids"]]

    @property
    def control_dir(self) -> Optional[str]:
        return self.ready.get("control_dir")

    def worker_socket(self, shard: int) -> str:
        if not self.control_dir:
            raise RuntimeError("not a fleet (no control_dir)")
        return socket_path(self.control_dir, shard)

    def refresh_ready(self) -> dict:
        """Re-read the ready file (pids change after a worker restart)."""
        with open(self.ready_file, "r", encoding="utf-8") as stream:
            self.ready = json.load(stream)
        return self.ready

    def stop(self, timeout: float = 20.0) -> int:
        """Graceful SIGTERM; escalate to SIGKILL past *timeout*."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)
        return self.process.returncode


def spawn_fleet(
    workers: int = 2,
    threads: int = 2,
    port: int = 0,
    host: str = "127.0.0.1",
    extra_args: Optional[List[str]] = None,
    extra_env: Optional[Dict[str, str]] = None,
    startup_timeout: float = 30.0,
    log_path: Optional[str] = None,
) -> FleetHandle:
    """Launch ``python -m repro serve`` as a subprocess; await readiness.

    Always a subprocess — forking a fleet from inside a threaded test
    runner or benchmark would clone held locks into every worker.  The
    child inherits this interpreter's ``sys.path`` via ``PYTHONPATH``,
    so it runs the same checkout regardless of install state.

    *log_path* redirects the subprocess's stderr to that file — the QA
    layer pairs it with ``--log-json`` to read the access-log stream.
    """
    fd, ready_file = tempfile.mkstemp(prefix="repro-ready-", suffix=".json")
    os.close(fd)
    os.unlink(ready_file)  # the server's atomic rename will create it
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        host,
        "--port",
        str(port),
        "--workers",
        str(workers),
        "--threads",
        str(threads),
        "--ready-file",
        ready_file,
        *(extra_args or []),
    ]
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    stderr_stream = None
    if log_path is not None:
        stderr_stream = open(log_path, "ab", buffering=0)
    try:
        process = subprocess.Popen(command, env=env, stderr=stderr_stream)
    finally:
        if stderr_stream is not None:
            stderr_stream.close()  # the child holds its own copy of the fd
    deadline = time.monotonic() + startup_timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"serve subprocess exited with {process.returncode} before ready"
            )
        if os.path.exists(ready_file):
            with open(ready_file, "r", encoding="utf-8") as stream:
                ready = json.load(stream)
            return FleetHandle(
                process=process,
                ready=ready,
                ready_file=ready_file,
                log_path=log_path,
            )
        time.sleep(0.05)
    process.kill()
    raise RuntimeError(f"serve subprocess not ready within {startup_timeout}s")
