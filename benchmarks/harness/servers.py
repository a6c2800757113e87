"""The system under test: the real server, as a subprocess.

``python -m repro serve DIR --cache-mode counting`` (or ``shard-serve
--shards 2``) with every other flag at its default: fsync per batch,
``--max-batch 64``, 4096-entry dedup table.  ``PYTHONHASHSEED`` is pinned
so two server processes lay their sets out identically; everything else
about the process is what an operator would get.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.server import DatabaseClient

SRC = Path(__file__).resolve().parents[2] / "src"
FLUSH_POLICY = "fsync per batch, --max-batch 64, --cache-mode counting"
_START_TIMEOUT = 60.0


class Server:
    """One server process over one data directory."""

    def __init__(self, kind: str, workdir: Path):
        self.kind = kind
        self.workdir = Path(workdir)
        self.data = self.workdir / "data"
        self._port_file = self.workdir / "port"
        self._stderr = self.workdir / "server.err"
        self._process: subprocess.Popen | None = None
        self.port = 0

    def start(self, init: Path | None = None) -> float:
        """Spawn and wait for the first ``hello``; returns the seconds taken.

        *init* seeds a fresh data directory; a restart passes none and the
        server recovers from its snapshot and WAL.
        """
        command = [sys.executable, "-m", "repro", self.kind, str(self.data),
                   "--port", "0", "--port-file", str(self._port_file),
                   "--cache-mode", "counting"]
        if self.kind == "shard-serve":
            command += ["--shards", "2"]
        if init is not None:
            command += ["--init", str(init)]
        self._port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        started = time.perf_counter()
        # stderr goes to a file: a pipe nobody reads would block the server
        # once its warnings filled it.
        with self._stderr.open("ab") as stderr:
            self._process = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        while not self._port_file.exists():
            if self._process.poll() is not None:
                raise RuntimeError("server exited during start-up: "
                                   + self._stderr.read_text())
            if time.perf_counter() - started > _START_TIMEOUT:
                self.kill()
                raise RuntimeError("server did not listen in time")
            time.sleep(0.002)
        self.port = int(self._port_file.read_text())
        self.connect().close()      # the handshake is the first hello
        return time.perf_counter() - started

    def connect(self) -> DatabaseClient:
        return DatabaseClient(port=self.port, timeout=60.0)

    def kill(self) -> None:
        """``kill -9`` and reap; nothing is checkpointed or flushed."""
        if self._process is not None:
            self._process.send_signal(signal.SIGKILL)
            self._process.wait()
            self._process = None

    def recover(self) -> float:
        """Restart after a kill; seconds from spawn to ``health`` ready."""
        started = time.perf_counter()
        self.start()
        with self.connect() as client:
            if not client.health().get("ready"):
                raise RuntimeError("recovered server reports not ready")
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def wal_bytes(self) -> int:
        """Bytes of every event log and 2PC decision log on disk."""
        return sum(path.stat().st_size for pattern in
                   ("events.log", "decisions.log")
                   for path in self.data.rglob(pattern))
