"""The program's processes and stores as the benchmark drives them.

Runs inside a repetition's interpreter (it imports ``repro``): starting
and stopping the ``repro serve objstore`` / ``repro serve start`` /
``repro distrib worker`` subprocesses, reading their peak memory, and the
delegating :class:`TimedStore` through which traced repetitions observe
every store call.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.cache import CacheStore, open_store

#: Seconds a subprocess gets to announce itself, and to exit when asked.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def program_env(src: Path, **settings: str) -> Dict[str, str]:
    """The environment of a program subprocess: ``src`` importable, no
    ``REPRO_*`` leaking in from the caller, plus *settings*."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env.update(settings)
    return env


class Program:
    """One ``python -m repro ...`` subprocess and the URL it announced."""

    def __init__(self, args: List[str], announce: str, workdir: Path,
                 env: Dict[str, str]) -> None:
        self.log = workdir / f"{args[0]}-{args[1]}.log"
        self._interrupted = False
        with open(self.log, "w") as handle:
            # A file, not a pipe: nothing reads the output after the
            # announcement, and a full pipe would block the program.
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], cwd=workdir,
                env=env, stdout=handle, stderr=subprocess.STDOUT)
        self.line = self._await(announce)

    def _await(self, announce: str) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if announce in line:
                    return line
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"{' '.join(self.proc.args)} did not announce "
                           f"itself: {self.log.read_text()[-2000:]}")

    def url(self, marker: str) -> str:
        """The ``http://host:port`` following *marker* in the announcement."""
        return self.line.split(marker, 1)[1].split()[0]

    def peak_rss_mb(self) -> float:
        """Peak resident memory so far (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def interrupt(self) -> None:
        """Ask for a clean shutdown (SIGINT), once."""
        if self.proc.poll() is None and not self._interrupted:
            self._interrupted = True
            self.proc.send_signal(signal.SIGINT)

    def stop(self) -> None:
        """Interrupt, then kill if it lingers; always reaps."""
        self.interrupt()
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def stop_all(*programs: Optional[Program]) -> None:
    """Interrupt every started program at once, then reap each."""
    started = [program for program in programs if program is not None]
    for program in started:
        program.interrupt()
    for program in started:
        program.stop()


def start_objstore(workdir: Path, src: Path) -> Program:
    return Program(["serve", "objstore", "--port", "0"],
                   "object store serving at", workdir, program_env(src))


class TimedStore(CacheStore):
    """A delegating :class:`CacheStore` that records a span per call.

    Each thread gets its own backend handle from ``open_store(spec)``, as
    the untraced program would open one per cache or worker: a single
    shared object-store connection would serialise the session's threads
    and change what is measured.  Lease creates are also counted, so the
    claim success ratio is winning creates over attempts.
    """

    def __init__(self, spec: str, kind: str, tracer) -> None:
        self.spec = spec
        self.kind = kind
        self.tracer = tracer
        self._local = threading.local()

    def _backend(self) -> CacheStore:
        backend = getattr(self._local, "backend", None)
        if backend is None:
            backend = self._local.backend = open_store(self.spec)
        return backend

    def _call(self, op: str, *args):
        with self.tracer.span(f"store.{self.kind}.{op}"):
            return getattr(self._backend(), op)(*args)

    def get(self, key):
        return self._call("get", key)

    def put_atomic(self, key, data):
        return self._call("put_atomic", key, data)

    def put_if_absent(self, key, data):
        etag = self._call("put_if_absent", key, data)
        if key.startswith("leases/"):
            self.tracer.count("distrib.claim.attempts")
            self.tracer.count("distrib.claim.wins", int(etag is not None))
        return etag

    def put_if_match(self, key, data, etag):
        return self._call("put_if_match", key, data, etag)

    def list(self, prefix=""):
        return self._call("list", prefix)

    def delete(self, key):
        return self._call("delete", key)

    def stat(self, key):
        return self._call("stat", key)

    def describe(self) -> str:
        return self.spec

    def prune(self) -> None:
        self._backend().prune()

    def __cache_fingerprint__(self) -> str:
        return type(self).__name__


def probe_store(store: CacheStore, samples: int = 8) -> None:
    """Exercise every store operation with the bucket's own key/size mix.

    For the service workload, whose store is owned by the server
    subprocess: the benchmark cannot wrap that store, so it repeats each
    operation against the same server with the sizes the workload left.
    """
    objects = store.list("")
    for info in objects[:samples]:
        stored = store.get(info.key)
        store.stat(info.key)
        data = stored.data if stored is not None else b"x" * info.size
        probe = f"perfbench-probe/{info.key}"
        etag = store.put_atomic(probe, data)
        store.put_if_match(probe, data, etag)
        store.put_if_absent(f"perfbench-probe-new/{info.key}", data)
        store.put_if_absent(f"perfbench-probe-new/{info.key}", data)
    store.list("results/")
