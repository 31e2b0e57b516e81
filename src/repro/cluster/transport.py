"""Coordinator-side cluster transport: peers, dispatch, crash re-issue.

One :class:`ClusterTransport` owns the coordinator's connections to every
cluster worker — remote processes reached by ``host:port`` address, or
local ``cluster-worker`` processes it spawns itself (the ``workers=N``
form).  It mirrors the process pool's failure contract
(:class:`repro.parallel.pool.ShardWorkerPool`): results are matched by
task id so duplicate replies are dropped, a dead peer's in-flight tasks
are re-issued — to a respawned local worker while the respawn budget
lasts, otherwise to any surviving peer — and a round that cannot complete
raises :class:`~repro.errors.ClusterError` naming the outstanding work.

Re-issue is always *correct* here because shard ownership is logical, not
physical: every peer can hold every store (the coordinator ships missing
stores on demand, and a worker answering ``missing`` triggers exactly that
re-ship + retry), so any survivor can run any shard's task.  A re-issued
``resume`` task falls back to its original full task — the dead peer's
parked remainder died with it — and the engine's per-shard candidate
de-duplication absorbs the overlap.

Beyond crash recovery, the transport defends against *degraded* peers:

* **Timeouts everywhere** — connects use a dedicated ``_CONNECT_TIMEOUT``
  and every socket keeps a permanent I/O timeout (``_FRAME_READ_TIMEOUT``),
  and a round is bounded by :data:`repro.parallel.pool.DEFAULT_TIMEOUT`, so a
  down or wedged peer surfaces as a typed
  :class:`~repro.errors.ClusterError` instead of a hang (blocking
  ``sendall`` against a full buffer included).
* **Straggler hedging** — per-peer reply latencies feed quantile
  trackers; a task pending far past what the *fastest* peer's p95 says it
  should take is hedged to an idle peer, first reply wins, the loser's
  late reply drains through the existing abandoned-task set.
* **Health scoreboard + circuit breaker** — every failure (death,
  transient error, garbage frame) scores against the peer; repeated
  consecutive failures trip its breaker and eject it from dispatch for a
  cool-off.  Tripped-but-alive peers are readmitted by their next
  successfully-probed dispatch; dead *address* peers (the multi-machine
  form, which has no respawn lever) are re-connected and hello-probed
  once per cool-off, so a rebooted remote worker rejoins by itself.
  ``health_snapshot()`` surfaces the whole board (engine
  ``worker_stats()`` / ``/v1/stats``).

Every frame in and out is counted per peer; the engine turns snapshots of
those counters into the per-query ``bytes_sent``/``bytes_received`` the
bench gates compare against the planner's forecast candidate volume.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cluster.frames import read_frame, write_frame
from repro.core.deadline import active_deadline
from repro.errors import ClusterError, StaleShardError, error_from_wire
from repro.faults import fault_point
from repro.parallel.pool import DEFAULT_TIMEOUT

__all__ = [
    "ClusterPeer",
    "ClusterTransport",
    "PeerHealth",
    "spawn_local_worker",
]

#: Seconds granted to a spawned worker to print its listen address.
_SPAWN_TIMEOUT = 30.0

#: Ceiling on connect() to a worker address — a down peer must
#: surface as a typed error promptly, never hang for the round timeout.
_CONNECT_TIMEOUT = 10.0

#: Permanent socket I/O timeout: bounds a blocking ``sendall``
#: against a wedged peer and reading one frame after the selector reported
#: the socket readable.  A peer that stalls mid-frame this long is dead.
_FRAME_READ_TIMEOUT = 30.0


def _remaining_budget() -> Optional[float]:
    """Seconds left on the coordinator's active query deadline, or None.

    Shipped with every task frame as a *relative* budget: absolute
    monotonic timestamps are meaningless on another machine, so the worker
    re-anchors the budget against its own clock on receipt (the one-way
    frame latency is the scheme's slack, spent in the query's favor).
    """
    deadline_at = active_deadline()
    if deadline_at is None:
        return None
    return max(0.0, deadline_at - time.monotonic())


class PeerHealth:
    """Failure scoreboard + circuit breaker for one peer.

    States: ``closed`` (healthy), ``open`` (ejected from dispatch until
    ``retry_at``), ``half_open`` (cool-off elapsed; the next dispatch or
    reconnect is the probe).  ``threshold`` consecutive failures trip the
    breaker; any success closes it.
    """

    def __init__(self, *, threshold: int = 3, cooloff: float = 2.0) -> None:
        self.threshold = threshold
        self.cooloff = cooloff
        self.state = "closed"
        self.failures = 0
        self.successes = 0
        self.consecutive = 0
        self.trips = 0
        self.retry_at = 0.0
        self.last_error: Optional[str] = None

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive = 0
        self.state = "closed"

    def record_failure(self, error: object = None) -> None:
        self.failures += 1
        self.consecutive += 1
        if error is not None:
            self.last_error = str(error)
        if self.state == "half_open" or (
            self.state == "closed" and self.consecutive >= self.threshold
        ):
            self.state = "open"
            self.trips += 1
            self.retry_at = time.monotonic() + self.cooloff

    def admits(self, now: Optional[float] = None) -> bool:
        """May this peer take new work?  Open -> half-open after cool-off."""
        if self.state == "closed":
            return True
        now = time.monotonic() if now is None else now
        if self.state == "open" and now >= self.retry_at:
            self.state = "half_open"
        return self.state == "half_open"

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "successes": self.successes,
            "consecutive": self.consecutive,
            "trips": self.trips,
            "last_error": self.last_error,
        }


class _LatencyTracker:
    """Sliding window of task reply latencies for one peer."""

    __slots__ = ("samples",)

    def __init__(self, window: int = 64) -> None:
        self.samples: deque = deque(maxlen=window)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    def quantile(self, q: float) -> Optional[float]:
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class ClusterPeer:
    """One worker connection: socket, shipped-store set, byte counters."""

    def __init__(
        self,
        ident: int,
        host: str,
        port: int,
        *,
        proc: Optional[subprocess.Popen] = None,
    ) -> None:
        self.ident = ident
        self.host = host
        self.port = port
        self.proc = proc
        self.sock: Optional[socket.socket] = None
        self.alive = False
        self.shipped: set = set()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def spawned(self) -> bool:
        return self.proc is not None

    def connect(self, timeout: float) -> None:
        fault_point("cluster.connect", peer=self.ident, address=self.address)
        self.sock = socket.create_connection((self.host, self.port), timeout)
        # Keep a permanent I/O timeout: a blocking sendall against a
        # wedged peer's full buffer must fail instead of hanging the
        # coordinator.  recv() tightens/restores it per call.
        self.sock.settimeout(_FRAME_READ_TIMEOUT)
        self.alive = True

    def send(self, header: dict, arrays: Optional[dict] = None) -> None:
        assert self.sock is not None
        try:
            nbytes = write_frame(self.sock, header, arrays)
        except (OSError, ValueError):
            self.alive = False
            raise ConnectionError(f"peer {self.address} is gone") from None
        self.bytes_sent += nbytes
        self.frames_sent += 1

    def recv(self, timeout: Optional[float] = None) -> Tuple[dict, dict]:
        assert self.sock is not None
        try:
            self.sock.settimeout(_FRAME_READ_TIMEOUT if timeout is None else timeout)
            header, arrays, nbytes = read_frame(self.sock)
            self.sock.settimeout(_FRAME_READ_TIMEOUT)
        except (OSError, ValueError, ClusterError):
            # ClusterError here means the peer shipped garbage (oversize
            # length word, undecodable header): treat a protocol-broken
            # peer exactly like a dead one — the caller kills it and the
            # round re-issues; the respawn budget bounds repetition.
            self.alive = False
            raise ConnectionError(f"peer {self.address} is gone") from None
        self.bytes_received += nbytes
        self.frames_received += 1
        return header, arrays

    def request(self, header: dict, arrays: Optional[dict] = None) -> Tuple[dict, dict]:
        """Synchronous request/reply exchange (between rounds only)."""
        self.send(header, arrays)
        return self.recv()

    def close(self, *, shutdown: bool = True) -> None:
        if self.sock is not None:
            if shutdown and self.alive:
                try:
                    write_frame(self.sock, {"type": "shutdown"})
                except Exception:
                    pass
            try:
                self.sock.close()
            except Exception:  # pragma: no cover - teardown races
                pass
            self.sock = None
        self.alive = False
        if self.proc is not None:
            try:
                self.proc.wait(timeout=2.0)
            except Exception:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=2.0)
                except Exception:  # pragma: no cover - stuck child
                    self.proc.kill()
            if self.proc.stdout is not None:
                try:
                    self.proc.stdout.close()
                except Exception:  # pragma: no cover
                    pass


def _worker_env() -> dict:
    """A child environment where ``import repro`` resolves to this tree."""
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return env


def spawn_local_worker(ident: int) -> ClusterPeer:
    """Spawn ``cluster-worker`` on a free localhost port and connect to it."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "cluster-worker",
            "--listen",
            "127.0.0.1:0",
            "--ident",
            str(ident),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_worker_env(),
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + _SPAWN_TIMEOUT
    address = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        text = line.decode("utf-8", "replace").strip()
        if text.startswith("listening on "):
            address = text[len("listening on ") :]
            break
    if address is None:
        proc.terminate()
        raise ClusterError("spawned cluster worker never reported its address")
    host, _, port = address.rpartition(":")
    peer = ClusterPeer(ident, host, int(port), proc=proc)
    peer.connect(_SPAWN_TIMEOUT)
    return peer


class ClusterTransport:
    """The coordinator's peer set plus the round dispatch/re-issue loop."""

    #: Hedging: a pending task is late once it exceeds
    #: ``hedge_multiplier x`` the fastest peer's p95 reply latency (but
    #: never sooner than ``hedge_min_delay`` — cheap insurance against
    #: spurious duplicate work on noisy machines).
    hedge_quantile = 0.95
    hedge_multiplier = 3.0
    hedge_min_delay = 0.25

    #: Circuit breaker: consecutive failures before a peer is ejected,
    #: and how long it sits out before a probe readmits it.
    breaker_threshold = 3
    breaker_cooloff = 2.0

    def __init__(
        self,
        workers: Union[int, Sequence[str]],
        *,
        hedge: bool = True,
    ) -> None:
        if isinstance(workers, int):
            self._spawn_count = workers
            self._addresses: List[str] = []
        else:
            self._spawn_count = 0
            self._addresses = [str(a) for a in workers]
        self.hedge_enabled = hedge
        self.peers: List[ClusterPeer] = []
        self.started = False
        self.respawns = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.transients = 0
        self.revivals = 0
        # Same budget rule as the process pool: each worker slot may be
        # respawned twice over the transport's lifetime before a crash is
        # treated as systematic and surfaced.
        self.respawn_budget = 2 * self._spawn_count
        self._next_ident = 0
        self._task_serial = 0
        self._abandoned: set = set()
        self._health: Dict[int, PeerHealth] = {}
        self._latency: Dict[int, _LatencyTracker] = {}

    # ------------------------------------------------------------------
    @property
    def num_peers(self) -> int:
        """Configured peer count (valid before start)."""
        return self._spawn_count + len(self._addresses)

    @property
    def alive_peers(self) -> int:
        return sum(1 for peer in self.peers if peer.alive)

    def health_for(self, peer: ClusterPeer) -> PeerHealth:
        health = self._health.get(peer.ident)
        if health is None:
            health = PeerHealth(
                threshold=self.breaker_threshold,
                cooloff=self.breaker_cooloff,
            )
            self._health[peer.ident] = health
        return health

    def health_snapshot(self) -> List[dict]:
        """The per-peer scoreboard, for ``worker_stats()``/``/v1/stats``."""
        board = []
        for peer in self.peers:
            entry = {
                "peer": peer.ident,
                "address": peer.address,
                "alive": peer.alive,
                "spawned": peer.spawned,
            }
            entry.update(self.health_for(peer).snapshot())
            board.append(entry)
        return board

    def start(self) -> None:
        if self.started:
            return
        try:
            for address in self._addresses:
                host, _, port = address.rpartition(":")
                if not host or not port.isdigit():
                    raise ClusterError(
                        f"worker address must be host:port, got {address!r}"
                    )
                peer = ClusterPeer(self._next_ident, host, int(port))
                self._next_ident += 1
                peer.connect(_CONNECT_TIMEOUT)
                self.peers.append(peer)
            for _ in range(self._spawn_count):
                self.peers.append(spawn_local_worker(self._next_ident))
                self._next_ident += 1
        except (OSError, ConnectionError) as exc:
            self.close()
            raise ClusterError(f"could not start cluster peers: {exc}") from None
        for peer in self.peers:
            self.health_for(peer)
        self.started = True

    def close(self) -> None:
        for peer in self.peers:
            peer.close()
        self.peers = []
        self.started = False

    def totals(self) -> Dict[str, int]:
        """Aggregate byte/frame counters over every connected peer."""
        out = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "frames_sent": 0,
            "frames_received": 0,
        }
        for peer in self.peers:
            out["bytes_sent"] += peer.bytes_sent
            out["bytes_received"] += peer.bytes_received
            out["frames_sent"] += peer.frames_sent
            out["frames_received"] += peer.frames_received
        return out

    # ------------------------------------------------------------------
    # Store shipping
    # ------------------------------------------------------------------
    def ensure_stores(
        self,
        peer: ClusterPeer,
        names: Sequence[str],
        store_provider: Callable[[str], Tuple[dict, dict]],
    ) -> None:
        """Ship every store the peer lacks (puts are fire-and-forget)."""
        for name in names:
            if name in peer.shipped:
                continue
            header, arrays = store_provider(name)
            peer.send(header, arrays)
            peer.shipped.add(name)

    def drop_stores(self, names: Sequence[str]) -> None:
        """Best-effort delete of dead stores on every live peer."""
        names = [n for n in names if n]
        if not names:
            return
        for peer in self.peers:
            if not peer.alive:
                continue
            try:
                peer.send(
                    {
                        "type": "put",
                        "store": names[0],
                        "kind": "del",
                        "stores": list(names),
                    }
                )
            except ConnectionError:
                continue
            peer.shipped.difference_update(names)

    # ------------------------------------------------------------------
    # Peer readmission (the breaker's probe path for address peers)
    # ------------------------------------------------------------------
    def _revive_address_peers(self) -> None:
        """Reconnect + hello-probe dead address peers whose cool-off passed.

        Spawned peers have the respawn lever instead; address peers are
        the multi-machine form, where the remote worker may well have
        rebooted and be ready to serve again.
        """
        for peer in self.peers:
            if peer.alive or peer.spawned:
                continue
            health = self.health_for(peer)
            if not health.admits():
                continue
            try:
                peer.connect(_CONNECT_TIMEOUT)
                header, _ = peer.request({"type": "hello"})
                if header.get("status") != "ok":
                    raise ConnectionError(
                        f"hello probe refused: {header.get('message')}"
                    )
            except (OSError, ConnectionError, ClusterError) as exc:
                health.record_failure(exc)
                peer.alive = False
                continue
            # A reconnected worker may be a fresh process: forget what we
            # think it holds and re-ship stores on demand.
            peer.shipped.clear()
            health.record_success()
            self.revivals += 1

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: List[dict],
        store_provider: Callable[[str], Tuple[dict, dict]],
    ) -> List[Tuple[dict, dict]]:
        """Run one round of tasks; returns replies in task order, each
        header naming the slot of the peer that answered it (``"worker"``).

        Each task dict carries ``task`` (the worker payload), ``ship``
        (theta/quota spec), optional ``arrays`` (e.g. a ``.where`` center set),
        ``stores`` (names the task references, shipped on demand),
        ``peer`` (preferred peer index) and optional ``fallback`` (the
        full task to re-run when a ``resume`` cannot be served).
        """
        self.start()
        if not tasks:
            return []
        tasks = [dict(spec) for spec in tasks]
        deadline = time.monotonic() + DEFAULT_TIMEOUT
        results: List[Optional[Tuple[dict, dict]]] = [None] * len(tasks)
        pending: Dict[str, int] = {}
        owner: Dict[str, ClusterPeer] = {}
        sent_at: Dict[str, float] = {}
        tids_of: Dict[int, Set[str]] = {}
        hedged: Set[int] = set()
        undispatched = deque(range(len(tasks)))
        stale: Optional[StaleShardError] = None
        timed_out: Optional[BaseException] = None
        # Bounded tolerance for injected/typed transient task failures:
        # enough to absorb a flaky spell, small enough that a peer that
        # only ever fails still surfaces as a ClusterError.
        transient_budget = 3 * len(tasks) + 4
        hedge_budget = len(tasks)
        # Peers kill_peer already processed this round.  send/recv clear
        # ``peer.alive`` themselves before raising, so the alive flag can
        # NOT double as the "first kill" marker — only this set makes
        # kill_peer idempotent without losing the respawn.
        killed: set = set()

        def alive_peers() -> List[ClusterPeer]:
            return [p for p in self.peers if p.alive]

        def admitted_peers() -> List[ClusterPeer]:
            now = time.monotonic()
            pool = [
                p for p in alive_peers() if self.health_for(p).admits(now)
            ]
            # Availability beats the breaker: with every breaker open,
            # dispatching to a suspect peer is still better than failing
            # the round outright.
            return pool or alive_peers()

        def load_of(peer: ClusterPeer) -> int:
            return sum(1 for tid in pending if owner[tid] is peer)

        def use_fallback(index: int) -> None:
            spec = tasks[index]
            if spec.get("fallback") is not None:
                tasks[index] = dict(spec, task=spec["fallback"], fallback=None)

        def drop_duplicates(index: int, keep: Optional[str]) -> None:
            """Abandon every other in-flight attempt at ``index``."""
            for tid in list(tids_of.get(index, ())):
                if tid != keep and tid in pending:
                    pending.pop(tid, None)
                    self._abandoned.add(tid)

        def reissue(index: int) -> None:
            """Queue ``index`` again unless another attempt is in flight."""
            if results[index] is not None:
                return
            if any(tid in pending for tid in tids_of.get(index, ())):
                return
            use_fallback(index)
            undispatched.append(index)

        def kill_peer(dead: ClusterPeer, error: object = None) -> None:
            first = dead not in killed
            killed.add(dead)
            dead.alive = False
            if first:
                self.health_for(dead).record_failure(
                    error or "peer died mid-round"
                )
            for task_id in list(pending):
                if owner.get(task_id) is dead:
                    index = pending.pop(task_id)
                    self._abandoned.add(task_id)
                    # A parked remainder died with the peer: re-run the
                    # full task on whoever picks this up (unless a hedge
                    # is still in flight elsewhere).
                    reissue(index)
            if first and dead.spawned and self.respawn_budget > 0:
                self.respawn_budget -= 1
                dead.close(shutdown=False)
                try:
                    replacement = spawn_local_worker(self._next_ident)
                except ClusterError:
                    return
                self._next_ident += 1
                self.respawns += 1
                slot = self.peers.index(dead)
                self.peers[slot] = replacement
                self.health_for(replacement)

        def send_task(
            index: int, peer: ClusterPeer, task_payload: dict, spec: dict
        ) -> str:
            self._task_serial += 1
            task_id = f"t{index}.{self._task_serial}"
            self.ensure_stores(peer, spec.get("stores") or (), store_provider)
            frame = {
                "type": "task",
                "task_id": task_id,
                "task": task_payload,
                "ship": spec.get("ship") or {},
            }
            budget = _remaining_budget()
            if budget is not None:
                frame["deadline"] = budget
            peer.send(frame, spec.get("arrays"))
            pending[task_id] = index
            owner[task_id] = peer
            sent_at[task_id] = time.monotonic()
            tids_of.setdefault(index, set()).add(task_id)
            return task_id

        def dispatch(index: int, peer: ClusterPeer) -> None:
            spec = tasks[index]
            send_task(index, peer, spec["task"], spec)

        def hedge_threshold() -> Optional[float]:
            """Lateness bar: the fastest peer's p95, scaled."""
            quantiles = []
            for tracker in self._latency.values():
                if len(tracker) >= 4:
                    value = tracker.quantile(self.hedge_quantile)
                    if value is not None:
                        quantiles.append(value)
            if not quantiles:
                return None
            return max(self.hedge_min_delay, self.hedge_multiplier * min(quantiles))

        def maybe_hedge() -> None:
            nonlocal hedge_budget
            if not self.hedge_enabled or hedge_budget <= 0 or not pending:
                return
            bar = hedge_threshold()
            if bar is None:
                return
            now = time.monotonic()
            for task_id, index in list(pending.items()):
                if hedge_budget <= 0:
                    break
                if index in hedged or results[index] is not None:
                    continue
                if now - sent_at.get(task_id, now) <= bar:
                    continue
                slow = owner[task_id]
                standby = [
                    p
                    for p in admitted_peers()
                    if p is not slow and load_of(p) == 0
                ]
                if not standby:
                    continue
                target = standby[0]
                spec = tasks[index]
                # A resume task is pinned to the slow peer's parked state;
                # the hedge runs the original full task instead.
                payload = (
                    spec["fallback"]
                    if spec.get("fallback") is not None
                    else spec["task"]
                )
                try:
                    send_task(index, target, payload, spec)
                except ConnectionError as exc:
                    kill_peer(target, exc)
                    continue
                hedged.add(index)
                hedge_budget -= 1
                self.hedges += 1

        selector = selectors.DefaultSelector()
        try:
            while pending or undispatched:
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"cluster round timed out with "
                        f"{len(pending) + len(undispatched)} task(s) "
                        f"outstanding after {DEFAULT_TIMEOUT:.1f}s"
                    )
                if undispatched:
                    self._revive_address_peers()
                while undispatched:
                    index = undispatched[0]
                    pool = admitted_peers()
                    if not pool:
                        raise ClusterError(
                            f"{len(undispatched)} task(s) outstanding and "
                            "no live cluster peer to issue them to"
                        )
                    hint = tasks[index].get("peer")
                    if (
                        hint is not None
                        and 0 <= hint < len(self.peers)
                        and self.peers[hint].alive
                        and self.peers[hint] in pool
                    ):
                        peer = self.peers[hint]
                    else:
                        peer = pool[index % len(pool)]
                    try:
                        dispatch(index, peer)
                    except ConnectionError as exc:
                        kill_peer(peer, exc)
                        continue
                    undispatched.popleft()
                if not pending:
                    continue
                maybe_hedge()
                busy = {
                    owner[task_id]
                    for task_id in pending
                    if owner[task_id].alive
                }
                watched = []
                for peer in busy:
                    if peer.sock is None:
                        continue
                    selector.register(peer.sock, selectors.EVENT_READ, peer)
                    watched.append(peer)
                if not watched:
                    # Every owing peer died while we weren't looking.
                    for task_id in list(pending):
                        kill_peer(owner[task_id])
                    continue
                try:
                    events = selector.select(timeout=0.25)
                finally:
                    for peer in watched:
                        try:
                            selector.unregister(peer.sock)
                        except (KeyError, ValueError):  # pragma: no cover
                            pass
                if not events:
                    # Idle tick: notice silently-dead spawned workers.
                    for peer in watched:
                        if (
                            peer.spawned
                            and peer.proc is not None
                            and peer.proc.poll() is not None
                        ):
                            kill_peer(peer)
                    continue
                for key, _mask in events:
                    peer = key.data
                    try:
                        header, arrays = peer.recv()
                    except ConnectionError as exc:
                        kill_peer(peer, exc)
                        continue
                    task_id = header.get("task_id")
                    if task_id in sent_at:
                        tracker = self._latency.get(peer.ident)
                        if tracker is None:
                            tracker = _LatencyTracker()
                            self._latency[peer.ident] = tracker
                        tracker.add(time.monotonic() - sent_at[task_id])
                    if task_id in self._abandoned:
                        self._abandoned.discard(task_id)
                        continue
                    index = pending.pop(task_id, None)
                    if index is None:
                        continue  # duplicate reply from a re-issued task
                    # First reply wins: any concurrent hedge attempt at
                    # this index drains through the abandoned set.
                    if index in hedged and any(
                        tid in pending for tid in tids_of.get(index, ())
                    ):
                        self.hedge_wins += 1
                    drop_duplicates(index, keep=None)
                    status = header.get("status")
                    if status == "ok":
                        header["worker"] = self.peers.index(peer)
                        results[index] = (header, arrays)
                        self.health_for(peer).record_success()
                    elif status == "missing":
                        peer.shipped.difference_update(
                            header.get("stores") or ()
                        )
                        undispatched.append(index)
                    elif status == "resume_lost":
                        use_fallback(index)
                        undispatched.append(index)
                    elif status == "transient":
                        # A typed, retryable worker failure (today: only
                        # injected faults): score it and re-issue, bounded
                        # so a never-healthy round still fails loudly.
                        self.transients += 1
                        transient_budget -= 1
                        self.health_for(peer).record_failure(
                            header.get("message")
                        )
                        if transient_budget <= 0:
                            raise ClusterError(
                                "cluster round exhausted its transient-"
                                "failure budget: "
                                + str(header.get("message"))
                            )
                        use_fallback(index)
                        undispatched.append(index)
                    elif status == "stale":
                        stale = StaleShardError(
                            header.get("message", "stale store")
                        )
                        for tid in list(pending):
                            self._abandoned.add(tid)
                        pending.clear()
                        undispatched.clear()
                    elif status == "deadline":
                        # A worker's local deadline scope fired mid-task:
                        # the whole query is over.  Abandon the round like
                        # a stale store and re-raise the worker's error —
                        # wire-coded, so the serving tier maps it to the
                        # same 504 an in-process timeout gets.
                        timed_out = error_from_wire(header.get("error") or {})
                        for tid in list(pending):
                            self._abandoned.add(tid)
                        pending.clear()
                        undispatched.clear()
                    else:
                        raise ClusterError(
                            "cluster worker error: "
                            + str(header.get("message"))
                            + "\n"
                            + str(header.get("traceback") or "")
                        )
                    if stale is not None or timed_out is not None:
                        break
                if stale is not None or timed_out is not None:
                    break
        finally:
            selector.close()
        if timed_out is not None:
            raise timed_out
        if stale is not None:
            raise stale
        assert all(result is not None for result in results)
        return [result for result in results if result is not None]
