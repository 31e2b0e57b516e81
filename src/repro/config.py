"""Typed configuration objects for the session's serving and parallel tiers.

``Network.service(...)`` and ``Network.parallel(...)`` historically took
loose keyword options that were forwarded — and only validated — deep
inside :class:`~repro.service.QueryService` and
:class:`~repro.parallel.engine.ParallelEngine`.  Now that the same knobs
arrive from many directions (the fluent API, the CLI, the network server's
JSON config file), each tier has one frozen dataclass that is the single
schema for them all:

* :class:`ServiceConfig` — the in-process serving tier (scheduler threads,
  admission bound, coalescing, result cache).
* :class:`ParallelConfig` — the multi-core engine (worker-process pool,
  decline threshold, shard seed, IPC timeout).
* :class:`ClusterConfig` — the socket-cluster engine (spawned or addressed
  workers, shard count, ship policy, round timeout).

Every entry point normalizes through :meth:`~ServiceConfig.coerce`, which
accepts an instance, a plain mapping (e.g. a parsed JSON section), or bare
keyword options — and **rejects unknown keys** with a
:class:`~repro.errors.InvalidParameterError` naming the valid ones, instead
of the old silently-forwarded ``TypeError`` from an inner constructor.  A
value that does not convert to its field's type is the same error, naming
class and field — these objects are built from files.
Instances are frozen and comparable, which is what makes
``net.service(cfg)`` idempotent: reconfiguring with an equal config is a
no-op rather than a drain-and-restart.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Optional, Union

from repro.errors import InvalidParameterError

__all__ = ["ServiceConfig", "ParallelConfig", "ClusterConfig"]


class _FrozenConfig:
    """Shared coerce/validate/serialize machinery for the config classes."""

    @classmethod
    def _field_names(cls) -> tuple:
        return tuple(f.name for f in fields(cls))

    def __new__(cls, *args: object, **options: object) -> "_FrozenConfig":
        """Reject unknown option names before the dataclass ``__init__`` runs.

        This is the one place option names are checked, so the constructor,
        the fluent API, the CLI, and the server config file all produce the
        same error for the same typo.
        """
        known = cls._field_names()
        unknown = sorted(set(options) - set(known))
        if unknown:
            raise InvalidParameterError(
                f"unknown {cls.__name__} option(s) {unknown}; "
                f"expected a subset of {list(known)}"
            )
        return super().__new__(cls)

    @classmethod
    def from_options(cls, options: Mapping[str, object]) -> "_FrozenConfig":
        """Build from a mapping (e.g. a parsed JSON section)."""
        if not isinstance(options, Mapping):
            raise InvalidParameterError(
                f"{cls.__name__} options must be a mapping, "
                f"got {type(options).__name__}"
            )
        return cls(**dict(options))  # type: ignore[arg-type]

    @classmethod
    def coerce(
        cls,
        config: Optional[Union["_FrozenConfig", Mapping[str, object]]] = None,
        options: Optional[Mapping[str, object]] = None,
    ) -> "_FrozenConfig":
        """Normalize the (config-object, loose-kwargs) calling convention.

        Exactly one of the two styles may carry settings: passing both a
        config and keyword options is ambiguous and rejected.
        """
        if config is not None and options:
            raise InvalidParameterError(
                f"pass either a {cls.__name__} (or mapping) or keyword "
                "options, not both"
            )
        if config is None:
            return cls.from_options(options or {})
        if isinstance(config, cls):
            return config
        if isinstance(config, Mapping):
            return cls.from_options(config)
        raise InvalidParameterError(
            f"expected a {cls.__name__} or a mapping, "
            f"got {type(config).__name__}"
        )

    def _coerce(self, name: str, kind: type, minimum: object = None) -> None:
        """Convert field ``name`` to ``kind`` in place, then range-check it.

        A value that does not convert — a fractional number handed to an
        int field, which ``int()`` would truncate, or anything but
        ``True``/``False`` handed to a bool field, where ``bool("false")``
        is true — raises :class:`InvalidParameterError` naming the class and
        the field.
        """
        given = getattr(self, name)
        try:
            if kind is int and isinstance(given, float) and not given.is_integer():
                raise ValueError(given)
            if kind is bool and not isinstance(given, bool):
                raise TypeError(given)
            value = kind(given)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"{type(self).__name__}.{name} must be {kind.__name__}, "
                f"got {given!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise InvalidParameterError(
                f"{name} must be >= {minimum}, got {value}"
            )
        object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        """Plain JSON-safe dict of every field (round-trips from_options)."""
        return asdict(self)

    def to_engine_kwargs(self) -> dict:
        """Engine-constructor kwargs (``None`` fields fall to the engine)."""
        out = {name: getattr(self, name) for name in self._field_names()}
        return {k: v for k, v in out.items() if v is not None}

    def replace(self, **changes: object) -> "_FrozenConfig":
        """A copy with the given fields replaced (validated anew)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ServiceConfig(_FrozenConfig):
    """Configuration of one :class:`~repro.service.QueryService`.

    ``workers`` scheduler threads (0 = inline execution on the submitting
    thread); ``max_pending`` is the admission-control queue bound;
    ``coalesce``/``coalesce_limit`` govern fused shared scans;
    ``cache_entries`` sizes the result cache (0 disables).  Where queries
    execute is not a service setting: a request runs on its own backend,
    which the builder lowers from the session default
    (``Network(backend="parallel")``) unless the query pins one.
    """

    workers: int = 0
    max_pending: int = 1024
    coalesce: bool = True
    coalesce_limit: int = 64
    cache_entries: int = 512

    def __post_init__(self) -> None:
        self._coerce("workers", int, 0)
        self._coerce("max_pending", int, 1)
        self._coerce("coalesce_limit", int, 2)
        self._coerce("cache_entries", int, 0)
        self._coerce("coalesce", bool)


@dataclass(frozen=True)
class ParallelConfig(_FrozenConfig):
    """Configuration of one :class:`~repro.parallel.engine.ParallelEngine`.

    ``None`` means "the engine's default": ``workers=None`` sizes the pool
    to ``os.cpu_count()``; ``min_nodes=None`` keeps the engine's decline
    threshold (:data:`~repro.parallel.engine.DEFAULT_MIN_NODES`).
    """

    workers: Optional[int] = None
    min_nodes: Optional[int] = None
    seed: int = 2010
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.workers is not None:
            self._coerce("workers", int, 1)
        if self.min_nodes is not None:
            self._coerce("min_nodes", int, 0)
        self._coerce("seed", int)
        self._coerce("timeout", float)
        if self.timeout <= 0:
            raise InvalidParameterError(
                f"timeout must be > 0, got {self.timeout}"
            )


@dataclass(frozen=True)
class ClusterConfig(_FrozenConfig):
    """Configuration of one :class:`~repro.cluster.engine.ClusterEngine`.

    ``workers`` is either a count of locally spawned ``cluster-worker``
    processes (the single-machine form) or a list/tuple of ``host:port``
    addresses of already-running workers (the multi-machine form).
    ``shards`` defaults to the worker count; a smaller value leaves standby
    workers that only serve re-issued tasks.  ``ship_policy`` is
    ``"threshold"`` (θ-shipping + adaptive quotas, the default) or
    ``"all"`` (naive ship-everything, the bench baseline).
    """

    workers: object = 2
    shards: Optional[int] = None
    min_nodes: Optional[int] = None
    seed: int = 2010
    timeout: float = 120.0
    connect_timeout: float = 10.0
    io_timeout: float = 30.0
    hedge: bool = True
    ship_policy: str = "threshold"

    def __post_init__(self) -> None:
        workers = self.workers
        if isinstance(workers, int):
            if workers < 1:
                raise InvalidParameterError(
                    f"workers must be >= 1, got {workers}"
                )
        elif isinstance(workers, (list, tuple)):
            if not workers:
                raise InvalidParameterError(
                    "workers address list must not be empty"
                )
            object.__setattr__(
                self, "workers", tuple(str(a) for a in workers)
            )
        else:
            raise InvalidParameterError(
                "workers must be an int (spawn locally) or a list of "
                f"host:port addresses, got {type(workers).__name__}"
            )
        if self.shards is not None:
            self._coerce("shards", int, 1)
        if self.min_nodes is not None:
            self._coerce("min_nodes", int, 0)
        self._coerce("seed", int)
        for name in ("timeout", "connect_timeout", "io_timeout"):
            self._coerce(name, float)
            if getattr(self, name) <= 0:
                raise InvalidParameterError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        self._coerce("hedge", bool)
        if self.ship_policy not in ("threshold", "all"):
            raise InvalidParameterError(
                "ship_policy must be 'threshold' or 'all', "
                f"got {self.ship_policy!r}"
            )

    def as_dict(self) -> dict:
        """JSON-safe dict (the workers tuple serializes as a list)."""
        out = asdict(self)
        if isinstance(out.get("workers"), tuple):
            out["workers"] = list(out["workers"])
        return out
