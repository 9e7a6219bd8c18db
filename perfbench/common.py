"""Shared plumbing: checkout paths, statistics, bit-equality, the daemon."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
TMP = ROOT / ".bench_tmp"
# Set-up is repeated this many times per run and reported as the median.
SETUP_REPS = 3


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and (ROOT / "results").is_dir()


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def scratch_dir(prefix: str) -> Path:
    TMP.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP.rmdir()  # only when no other run still uses it
    except OSError:
        pass


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), ``q`` in [0, 100]."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def digest(parts: list[dict[str, Any]]) -> bytes:
    """Hash of named arrays: names, dtypes, shapes and every byte.

    Equal digests mean bit-equal answers; answers are compared by digest
    so a run need not keep them.
    """
    h = hashlib.blake2b(digest_size=16)
    for arrays in parts:
        for name in sorted(arrays):
            a = arrays[name]
            h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
            h.update(a.tobytes())
    return h.digest()


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stamp(samples: dict[str, int]) -> dict[str, Any]:
    """Environment stamp printed with every result."""
    import numpy

    sha = None
    git_dir = ROOT / ".git"
    if git_dir.exists():
        try:
            sha = subprocess.run(
                ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "samples": samples,
    }


# --------------------------------------------------------------------------
# Setup timing: a fresh interpreter per repetition
# --------------------------------------------------------------------------


def time_probe(args: list[str], timeout: float = 120.0) -> float:
    """Wall time of ``python perfbench/probe.py <args>`` from spawn to exit."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), *args],
        env=child_env(), cwd=ROOT, check=True, timeout=timeout,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# The daemon in its own process
# --------------------------------------------------------------------------


class KeepAwake:
    """One ``awake.py`` busy loop per CPU for the duration of a ``with``."""

    def __enter__(self) -> "KeepAwake":
        self.procs: list[subprocess.Popen] = []
        try:
            for _ in range(len(os.sched_getaffinity(0))):
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(BENCH / "awake.py"), str(os.getpid())],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
        except BaseException:
            self.__exit__()
            raise
        time.sleep(0.2)  # past their start-up, which runs at normal priority
        return self

    def __exit__(self, *exc: Any) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


class Daemon:
    """``repro serve --port 0`` (optionally through the traced launcher)."""

    def __init__(self, cache_dir: Path, spans_out: Path | None = None) -> None:
        serve_args = ["--port", "0", "--cache-dir", str(cache_dir)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH / "serve_traced.py"), str(spans_out), *serve_args]
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.url = ""
        self.rss_mb = 0.0
        assert self.proc.stdout is not None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                self.url = line.rsplit("listening on ", 1)[1].strip()
                break
        if not self.url:
            self.stop()
            raise RuntimeError("repro serve did not report its address")

    def reset_trace(self) -> None:
        """Ask the traced launcher to drop the spans recorded so far."""
        self.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.1)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), reap, and record the daemon's peak RSS."""
        proc = self.proc
        if proc.returncode is not None:
            return proc.returncode
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        if proc.stdout is not None:
            proc.stdout.close()
        return proc.returncode
