"""Front-door admission: rate limits, tenant quotas, cost-based shedding.

The in-process scheduler already has *binary* admission control (queue
full -> reject).  A network front door needs graded policies, applied in
cheapest-first order before a request ever reaches a replica lane:

1. **Token buckets** (one per tenant) bound request *rate*;
   rejections are :class:`~repro.errors.RateLimitedError` with the exact
   ``retry_after`` at which a token will exist.
2. **Tenant quotas** bound *concurrency* — inflight queries per tenant —
   so one chatty client cannot occupy every lane; rejections are
   :class:`~repro.errors.QuotaExceededError`.
3. **Cost-based load shedding**: above a load watermark the planner's
   :class:`~repro.core.planner.CostEstimate` becomes the admission
   currency (Fagin's middleware framing — the middleware knows what an
   aggregation will cost before running it).  The admissible cost budget
   shrinks linearly from ``cost_limit`` at the watermark to zero at
   saturation, so cheap queries keep flowing while expensive ones are
   rejected with :class:`~repro.errors.ServiceOverloadedError` carrying
   ``retry_after``, ``estimated_cost``, and the budget that rejected it.

Every rejection is typed, coded, and wire-serializable — the client can
distinguish "slow down" from "shrink the query" mechanically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.core.request import QueryRequest
from repro.errors import (
    QuotaExceededError,
    RateLimitedError,
    ServiceOverloadedError,
)

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/sec, ``burst`` capacity.

    ``take()`` consumes one token if available, else reports how long
    until one exists.  Monotonic-clock based; thread-safe.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_lock")

    def __init__(self, rate: float, burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def take(self) -> Optional[float]:
        """Consume one token; None on success, else seconds to retry."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


class AdmissionController:
    """The ordered admission pipeline in front of the replica lanes.

    Parameters
    ----------
    cost_of:
        ``cost_of(request) -> float`` — the planner's amortized cost
        estimate of the route the request will run, backend fixed cost
        included (the server memoizes it per shape and graph version).
        ``None`` disables cost shedding.
    load_of:
        ``load_of() -> float`` in ``[0, 1]`` — current queued+inflight
        occupancy across the replica lanes.  ``None`` disables shedding.
    rate / burst:
        Per-tenant token bucket (requests/sec); ``None`` = unlimited.
    quota:
        Max concurrently inflight queries per tenant; ``None`` = unlimited.
    shed_watermark:
        Load above which cost shedding engages.
    cost_limit:
        The cost budget at the watermark; the admissible budget shrinks
        linearly to zero as load approaches 1.
    """

    def __init__(
        self,
        *,
        cost_of: Optional[Callable[[QueryRequest], float]] = None,
        load_of: Optional[Callable[[], float]] = None,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        quota: Optional[int] = None,
        shed_watermark: float,
        cost_limit: Optional[float] = None,
    ) -> None:
        self._cost_of = cost_of
        self._load_of = load_of
        self._rate = rate
        self._burst = burst
        self._quota = int(quota) if quota is not None else None
        self._watermark = float(shed_watermark)
        self._cost_limit = (
            float(cost_limit) if cost_limit is not None else None
        )
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "admitted": 0,
            "rate_limited": 0,
            "quota_rejected": 0,
            "shed": 0,
        }

    # ------------------------------------------------------------------
    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self._rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self._rate, self._burst)
                self._buckets[tenant] = bucket
            return bucket

    def _count(self, outcome: str) -> None:
        with self._lock:
            self.counters[outcome] += 1

    # ------------------------------------------------------------------
    def admit(
        self, request: QueryRequest, tenant: str = "default"
    ) -> Callable[[], None]:
        """Admit or raise; returns the release callable for the quota slot.

        The caller must invoke the returned callable exactly once when the
        query reaches a terminal state (the server wires it to the
        handle's done callback).
        """
        bucket = self._bucket(tenant)
        retry = bucket.take() if bucket is not None else None
        if retry is not None:
            self._count("rate_limited")
            raise RateLimitedError(
                f"tenant {tenant!r} exceeded the request rate",
                retry_after=round(retry, 4),
            )

        self._shed(request, tenant)

        # Quota slot last, so rejected requests never leak a slot.
        if self._quota is not None:
            with self._lock:
                inflight = self._inflight.get(tenant, 0)
                if inflight >= self._quota:
                    self.counters["quota_rejected"] += 1
                    raise QuotaExceededError(
                        f"tenant {tenant!r} has {inflight} queries inflight "
                        f"(quota {self._quota})",
                        retry_after=0.05,
                    )
                self._inflight[tenant] = inflight + 1
        self._count("admitted")

        released = threading.Event()

        def release() -> None:
            if released.is_set():  # idempotent: done-callback + error paths
                return
            released.set()
            if self._quota is not None:
                with self._lock:
                    remaining = self._inflight.get(tenant, 1) - 1
                    if remaining > 0:
                        self._inflight[tenant] = remaining
                    else:
                        self._inflight.pop(tenant, None)

        return release

    def _shed(self, request: QueryRequest, tenant: str) -> None:
        """Reject expensive requests once load passes the watermark."""
        if (
            self._cost_of is None
            or self._load_of is None
            or self._cost_limit is None
        ):
            return
        load = min(max(float(self._load_of()), 0.0), 1.0)
        if load <= self._watermark:
            return
        # Budget: cost_limit at the watermark, linearly down to 0 at
        # saturation — under pressure only ever-cheaper queries pass.
        headroom = (1.0 - load) / (1.0 - self._watermark)
        budget = self._cost_limit * headroom
        cost = float(self._cost_of(request))
        if cost <= budget:
            return
        self._count("shed")
        raise ServiceOverloadedError(
            f"load {load:.2f} sheds queries costing over {budget:.1f} "
            f"(estimated {cost:.1f}); retry later or lower the query cost",
            retry_after=round(0.1 + 0.9 * (load - self._watermark), 4),
            estimated_cost=cost,
            cost_limit=budget,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters plus current per-tenant inflight occupancy."""
        with self._lock:
            return {
                **self.counters,
                "tenants_inflight": dict(self._inflight),
            }
