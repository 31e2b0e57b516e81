"""Plumbing every workload shares: inputs, timing loops, RSS, leak checks.

Nothing here knows a workload by name; the four workload modules build on
these helpers and ``run.py`` turns their records into output.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: BLAS/OpenMP pools would add threads the 2-CPU sizing does not budget for.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: ``collaboration_like`` has 4,000 nodes at scale 1.
SCALE_100K = 25.0
SCALE_16K = 4.0
SMOKE_SCALE = 0.25


def pin_threads() -> None:
    """Pin numeric thread pools to 1; children inherit the environment."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def build_graph(scale: float, seed: int):
    """The fig1 power-law + triad-closure graph, generated from ``seed``."""
    from repro.bench.workloads import figure

    return replace(figure("fig1"), seed=seed).build_graph(scale)


def binary_scores(graph, seed: int, index: int):
    """The ``index``-th 0/1 vector (r = 0.01) for ``seed``."""
    from repro.bench.workloads import figure

    return replace(figure("fig1"), seed=seed + 101 * (index + 1)).build_scores(graph)


def graded_scores(graph, seed: int, count: int) -> List[List[float]]:
    """``count`` dense vectors whose values are multiples of 2**-10.

    One vector comes from the continuous mixture relevance function; the
    others are seeded permutations of it, which keeps the value
    distribution and costs no further relevance-layer time.  Dyadic values
    make every partial sum exact, so summation order cannot change an
    answer.
    """
    import numpy as np

    from repro.relevance.mixture import MixtureRelevance

    mixture = MixtureRelevance(0.01, zero_fraction=0.0, seed=seed + 7).scores(graph)
    base = np.floor(np.asarray(mixture.values()) * 1024.0) / 1024.0
    rng = np.random.default_rng(seed + 11)
    vectors = [base]
    for _ in range(count - 1):
        vectors.append(base[rng.permutation(base.size)])
    return [v.tolist() for v in vectors]


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    """One attempted operation."""

    op: tuple
    latency: float
    done: float  #: ``time.perf_counter()`` when it returned
    result: object = None
    error: Optional[str] = None


def closed_loop(
    ops: Iterable[tuple],
    call: Callable[[tuple], object],
    seconds: float,
    *,
    min_ops: int = 1,
    boundary: int = 1,
    tracer=None,
) -> List[Sample]:
    """One caller: issue the next op when the previous one has returned.

    Runs until ``seconds`` have passed, ``min_ops`` ops were issued and the
    count is a multiple of ``boundary``; an op that started in time is
    finished and counted.
    """
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    for op in ops:
        issued = time.perf_counter()
        if issued >= deadline and len(samples) >= min_ops and len(samples) % boundary == 0:
            break
        span = tracer.begin("op", op_id=len(samples)) if tracer is not None else None
        try:
            result, error = call(op), None
        except Exception as exc:  # a failed op is a counted outcome, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                tracer.end(span)
        done = time.perf_counter()
        samples.append(Sample(op, done - issued, done, result, error))
    return samples


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def cycle(items: Sequence[tuple]) -> Iterator[tuple]:
    while True:
        yield from items


# ---------------------------------------------------------------------------
# Processes, memory, leaks
# ---------------------------------------------------------------------------
def _parents() -> Dict[int, int]:
    table: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("latin-1")
        except OSError:
            continue
        # comm may hold spaces and parentheses; fields resume after the last ')'.
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z":  # a zombie holds no resources and awaits its reaper
            table[int(entry)] = int(fields[1])
    return table


def descendants(pid: Optional[int] = None) -> List[int]:
    """Live processes below ``pid`` (default: this process)."""
    root = os.getpid() if pid is None else pid
    parents = _parents()
    found, frontier = [], [root]
    while frontier:
        frontier = [p for p, parent in parents.items() if parent in frontier]
        found.extend(frontier)
    return found


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Summed high-water RSS of this process and its live descendants."""
    pids = [os.getpid()] + descendants()
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def _listening_ports() -> set:
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, "r", encoding="ascii") as fh:
                next(fh)
                for line in fh:
                    cols = line.split()
                    if cols[3] == "0A":
                        ports.add(int(cols[1].rsplit(":", 1)[1], 16))
        except (OSError, StopIteration):
            continue
    return ports


def _mapped_shm() -> set:
    """Names under /dev/shm that any live process has mapped."""
    names = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/maps", "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if "/dev/shm/" in line:
                        names.add(line.rsplit("/dev/shm/", 1)[1].split()[0])
        except OSError:
            continue
    return names


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent dies.

    Without it a grandchild that outlives its parent moves to pid 1, where
    ``sweep`` can neither find it nor wait for it.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans are then out of reach, as before


def _tracker():
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker


def stop_resource_tracker(wait: float = 5.0) -> None:
    """Stop this interpreter's ``multiprocessing`` resource tracker and wait.

    The tracker is a helper process that starts with the first shared-memory
    segment and ends only some time after the interpreter has: left alone, it
    is a process still running after the run.
    """
    import signal

    tracker = _tracker()
    if getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)  # end of input on its pipe is the tracker's stop signal
    tracker._fd = None
    deadline = time.monotonic() + wait
    try:
        while os.waitpid(tracker._pid, os.WNOHANG)[0] == 0:
            if time.monotonic() >= deadline:  # something else holds the pipe open
                os.kill(tracker._pid, signal.SIGKILL)
                os.waitpid(tracker._pid, 0)
                break
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already waited for
    tracker._pid = None


def sweep(wait: float = 10.0) -> List[str]:
    """Kill every process below this one and wait until each has ended.

    The last thing a run does, whatever path it leaves by.  A clean run has
    only the resource tracker to stop; anything else found is returned, and
    fails the run.
    """
    import signal

    tracker = getattr(_tracker(), "_pid", None)
    killed: Dict[int, str] = {}
    deadline = time.monotonic() + wait
    while True:
        alive = [pid for pid in descendants() if pid != tracker]
        for pid in alive:
            killed.setdefault(pid, _cmdline(pid)[:80])
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:  # reap what has ended, adopted orphans included
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    stop_resource_tracker()
    return [f"process {pid} was still running at exit: {cmd}" for pid, cmd in killed.items()]


@dataclass
class LeakGuard:
    """What existed before a workload, so teardown can prove it left nothing."""

    shm_before: set = field(default_factory=lambda: set(os.listdir("/dev/shm")))
    ports: List[int] = field(default_factory=list)

    def problems(self, wait: float = 5.0) -> List[str]:
        """Surviving child pids, shared-memory segments and listeners."""
        # The resource tracker is this interpreter's own helper, not the
        # workload's; ``sweep`` stops it when the run ends.
        tracker = getattr(_tracker(), "_pid", None)
        deadline = time.monotonic() + wait
        while True:
            children = [pid for pid in descendants() if pid != tracker]
            if not children or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        found = [f"child process {pid} survived: {_cmdline(pid)[:80]}" for pid in children]
        # A new segment some live process still maps belongs to that process
        # (another benchmark running beside this one); ours are orphans.
        leaked = sorted(set(os.listdir("/dev/shm")) - self.shm_before - _mapped_shm())
        found += [f"/dev/shm/{name} survived" for name in leaked]
        still = sorted(set(self.ports) & _listening_ports())
        found += [f"port {port} still listening" for port in still]
        return found


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (absent in an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text(encoding="ascii").strip()
    except OSError:
        return "unknown"


def fingerprint(seed: int, graph, latency_samples: int) -> dict:
    """Where and on what a record was measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "seed": seed,
        "sizes": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "samples": {"latency": latency_samples},
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def ballcache_hit_share(session_caches: dict) -> float:
    """Hit share of the CSR ball cache, from ``QueryService.stats()``."""
    cache = session_caches.get("ball_cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return cache.get("hits", 0) / lookups if lookups else 0.0


def count_lines(directory: str) -> int:
    """Lines of Python under ``directory`` of the checkout."""
    total = 0
    for path in (ROOT / directory).rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


@dataclass
class Record:
    """Everything one run of one workload produced."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end(
    setup_s: float, latencies: Sequence[float], throughput_ops_s: float
) -> Dict[str, float]:
    """The end-to-end metrics every workload reports, from its timed stage."""
    return {
        "setup_s": setup_s,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "throughput_ops_s": throughput_ops_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def sliced_throughput(finished: Sequence[float], start: float, end: float, slice_s: float) -> float:
    """Median over ``slice_s`` slices of [start, end) of ops finished per second.

    A host stall slows the slices it hits; the median slice is unmoved
    while stalls cover less than half of the stage.
    """
    slices = max(1, int((end - start) / slice_s))
    counts = [0] * slices
    for t in finished:
        index = int((t - start) / slice_s)
        if 0 <= index < slices:
            counts[index] += 1
    return median(counts) / slice_s
