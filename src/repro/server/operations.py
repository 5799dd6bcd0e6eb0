"""Operation and result types shared across the server package.

Models the LDAP functional model (§2.2): query operations (search),
update operations (add, modify, delete, modify DN) and their results,
plus the :class:`UpdateRecord` stream that the synchronization
mechanisms of :mod:`repro.sync` consume.

Also home of the per-operation latency instrumentation
(:class:`OperationInstruments` / :func:`timed_operation`) that
:class:`~repro.server.directory.DirectoryServer` wraps around each
functional-model entry point — see docs/OBSERVABILITY.md §3
(``server.op.*``).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..obs.registry import Counter, MetricsRegistry, Timer
from ..obs.tracing import span

__all__ = [
    "ResultCode",
    "LdapError",
    "ModType",
    "Modification",
    "UpdateOp",
    "UpdateRecord",
    "Referral",
    "SearchResult",
    "OperationInstruments",
    "timed_operation",
]


class ResultCode(enum.IntEnum):
    """Subset of RFC 2251 result codes the simulation distinguishes."""

    SUCCESS = 0
    OPERATIONS_ERROR = 1
    NO_SUCH_OBJECT = 32
    INVALID_DN_SYNTAX = 34
    ENTRY_ALREADY_EXISTS = 68
    NOT_ALLOWED_ON_NON_LEAF = 66
    UNWILLING_TO_PERFORM = 53
    REFERRAL = 10
    NO_SUCH_ATTRIBUTE = 16
    CONSTRAINT_VIOLATION = 19  # RFC 4511: a second holder of a unique value
    OBJECT_CLASS_VIOLATION = 65


class LdapError(Exception):
    """An LDAP operation failed with a result code."""

    def __init__(self, code: ResultCode, message: str = ""):
        super().__init__(f"{code.name}: {message}" if message else code.name)
        self.code = code
        self.message = message


class ModType(enum.Enum):
    """Modification types of the LDAP modify operation."""

    ADD = "add"
    DELETE = "delete"
    REPLACE = "replace"


@dataclass(frozen=True)
class Modification:
    """One change inside a modify operation."""

    mod_type: ModType
    attr: str
    values: Tuple[str, ...] = ()

    @classmethod
    def add(cls, attr: str, *values: str) -> "Modification":
        return cls(ModType.ADD, attr, tuple(values))

    @classmethod
    def replace(cls, attr: str, *values: str) -> "Modification":
        return cls(ModType.REPLACE, attr, tuple(values))

    @classmethod
    def delete(cls, attr: str, *values: str) -> "Modification":
        return cls(ModType.DELETE, attr, tuple(values))


class UpdateOp(enum.Enum):
    """The four LDAP update operations (§5.2's A, M, D, R)."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"
    MODIFY_DN = "modify_dn"


@dataclass(frozen=True)
class UpdateRecord:
    """One committed update at a master server.

    Carries enough state for every synchronization mechanism in
    :mod:`repro.sync`:

    * ``before`` — the image the store held before the update (None for
      ADD), ``after`` — the one it holds now (None for DELETE): the
      store's own frozen objects, shared, never copies,
    * ``new_dn`` — for MODIFY_DN, the DN after the rename,
    * ``csn`` — change sequence number, strictly increasing per master.

    A changelog, by contrast, would persist only the *changed attributes*
    (§5.2 explains why that loses information); keeping before/after
    images here lets tests compare mechanisms against ground truth.
    """

    csn: int
    op: UpdateOp
    dn: DN
    before: Optional[Entry] = None
    after: Optional[Entry] = None
    new_dn: Optional[DN] = None
    modifications: Tuple[Modification, ...] = ()

    @property
    def effective_dn(self) -> DN:
        """DN of the entry after the operation (new DN for renames)."""
        return self.new_dn if self.new_dn is not None else self.dn


@dataclass(frozen=True)
class Referral:
    """A search continuation reference (SearchResultReference).

    ``url`` names the server holding the subordinate naming context and
    ``target`` the DN at which the client should re-base its search —
    together they are the LDAP URL of RFC 2255 in structured form.
    """

    url: str
    target: DN

    def __str__(self) -> str:
        suffix = f"/{self.target}" if not self.target.is_root else ""
        return f"{self.url}{suffix}"


class OperationInstruments:
    """Per-operation latency and count instruments for one server.

    ``time("search")`` returns a context manager that (i) increments
    ``server.op.count{op=search}``, (ii) observes the block's duration
    into the timers ``server.op.latency`` (all-operations aggregate) and
    ``server.op.latency{op=search}``, and (iii) opens the tracing span
    ``server.op.search``.  Instruments are created lazily per operation
    name and cached, so the steady-state cost is two clock reads and a
    histogram insert.
    """

    __slots__ = ("registry", "_latency", "_count", "_per_op")

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._latency: Timer = registry.timer("server.op.latency")
        self._count: Counter = registry.counter("server.op.count")
        self._per_op: Dict[str, Tuple[Timer, Counter]] = {}

    def time(self, op: str) -> "_OperationTiming":
        cached = self._per_op.get(op)
        if cached is None:
            cached = (self._latency.labels(op=op), self._count.labels(op=op))
            self._per_op[op] = cached
        return _OperationTiming(self, cached[0], cached[1], op)


class _OperationTiming:
    __slots__ = ("_instruments", "_timer", "_counter", "_op", "_span", "_start")

    def __init__(
        self, instruments: OperationInstruments, timer: Timer, counter: Counter, op: str
    ):
        self._instruments = instruments
        self._timer = timer
        self._counter = counter
        self._op = op

    def __enter__(self) -> "_OperationTiming":
        from time import perf_counter

        self._counter.inc()
        self._instruments._count.inc()
        self._span = span("server.op." + self._op)
        self._span.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        from time import perf_counter

        elapsed = perf_counter() - self._start
        self._timer.observe(elapsed)
        self._instruments._latency.observe(elapsed)
        self._span.__exit__(*exc)
        return False


def timed_operation(op: str) -> Callable:
    """Decorator timing a server method through ``self.ops`` (above)."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def inner(self, *args, **kwargs):
            with self.ops.time(op):
                return fn(self, *args, **kwargs)

        return inner

    return wrap


@dataclass
class SearchResult:
    """Outcome of one search operation against one server.

    Attributes:
        entries: matching entries (already projected onto the requested
            attribute set).
        referrals: continuation references for subordinate contexts, or
            the single superior referral when name resolution failed.
        code: SUCCESS when the target was found, REFERRAL when the
            client must go elsewhere, NO_SUCH_OBJECT otherwise.
        degraded: True when the answering server was serving stale
            reads — a replica whose master was unreachable at answer
            time (docs/PROTOCOL.md §9).  The entries are the replica's
            last synchronized content, not fresh master content.
    """

    entries: List[Entry] = field(default_factory=list)
    referrals: List[Referral] = field(default_factory=list)
    code: ResultCode = ResultCode.SUCCESS
    degraded: bool = False

    @property
    def complete(self) -> bool:
        """True when the result is final — no referrals to chase."""
        return self.code is ResultCode.SUCCESS and not self.referrals
