"""Child-process lifecycle: own process group, drained stderr, clean stop.

Every process the benchmark starts — the NDJSON server and the
in-process caller — runs in a process group of its own, so stopping it
also reaches the worker processes it spawned (a process pool survives
its parent's SIGTERM otherwise, re-parented to init).  :meth:`Group.stop`
signals the whole group, waits for every member to exit and reports
survivors; a survivor fails the run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

SERVE_RE = re.compile(r"serving on ([\d.]+):(\d+)")

#: Groups started and not yet stopped, for :func:`stop_all`.
_LIVE: "set[Group]" = set()


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of *pid* in KiB; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def group_members(pgid: int) -> list[int]:
    """Live pids whose process group is *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


class Group:
    """A child process leading its own process group.

    stderr is drained on a thread into :attr:`stderr_lines` so a chatty
    child can never block on a full pipe.
    """

    def __init__(self, argv: list[str], env: dict, cwd: str, stdin=None) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        _LIVE.add(self)
        self.stderr_lines: list[str] = []
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        for raw in self.proc.stderr:
            self.stderr_lines.append(raw.decode("utf-8", "replace").rstrip())

    def wait_address(self, timeout: float = 60.0) -> tuple[str, int]:
        """The ``serving on host:port`` address the server logs to stderr."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.stderr_lines):
                match = SERVE_RE.search(line)
                if match:
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None and not self._drain.is_alive():
                break
            time.sleep(0.002)
        raise RuntimeError(
            "server did not report an address:\n" + "\n".join(self.stderr_lines[-20:])
        )

    def peak_rss_kb(self) -> int:
        """Summed VmHWM of every live process in the group."""
        return sum(vm_hwm_kb(pid) for pid in group_members(self.pgid))

    def stop(self, grace: float = 5.0) -> list[int]:
        """SIGTERM the group, wait for it, SIGKILL leftovers; the pids
        that outlived the grace period (an empty list on a clean stop)."""
        _LIVE.discard(self)
        try:
            os.killpg(self.pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            self.proc.poll()
            if not group_members(self.pgid):
                break
            time.sleep(0.01)
        survivors = group_members(self.pgid)
        if survivors:
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait(timeout=grace)
        self._drain.join(timeout=grace)
        for stream in (self.proc.stdout, self.proc.stdin):
            if stream is not None:
                stream.close()
        self.proc.stderr.close()
        if survivors:
            print(f"processes survived their group stop: {survivors}", file=sys.stderr)
        return survivors


def stop_all() -> None:
    """Stop every group still running (an interrupted run)."""
    for group in list(_LIVE):
        group.stop()
