"""The recovery ladder's decision table and its sketch tier
(docs/RECOVERY.md).

A provider that answers :class:`~repro.sync.protocol.SyncProtocolError`
refused the request's cookie: the session is gone (expired, forgotten by
a journal-less restart, broken off an overflowed history chain).  What
the consumer does next is one lookup in :data:`LADDER`, on two facts:

* **the request carried a cookie** — a refused *null* cookie is a
  refused initial load, which nothing below can repair: ``raise``;
* **local content is warm** — its entries outweigh the sketch floor
  (:meth:`SketchTier.pays`): the sketch exploits what the replica
  already holds, and below the floor a sketch costs more than the load
  it would replace.

The provider always serves the sketch exchange, so a refused cookie over
warm content takes the ``sketch`` tier first, *whatever the cookie looks
like*: a sketch that turns out too small is a detected failure costing a
fraction of the rebuild it usually saves
(``benchmarks/baselines/reconcile.json``).  Any other refused cookie
takes the paper's §5 answer, ``rebuild``: forget the cookie (and any
subscription), so that the next request is the null-cookie initial load.
Only a refusal enters the ladder; poll and persist read one table.  A
persist subscription opening over warm content with no cookie to present
enters the sketch tier by choice, outside the table
(``SyncLink._persist``, docs/RECOVERY.md "Opening a subscription").

:class:`SketchTier` is set reconciliation after *Directory
Reconciliation* (Mitzenmacher & Morgan, PAPERS.md) over the invertible
sketches of :mod:`repro.sync.reconcile`: O(delta) bytes on the wire
instead of the rebuild's O(content).
"""

from __future__ import annotations

import random
from typing import Optional

from ..obs.registry import MetricsRegistry
from ..server.network import exchange
from .consumer import SyncedContent
from .health import HealthMachine
from .protocol import ReconcileFetch, ReconcileRequest, SyncProtocolError, SyncResponse
from .reconcile import build_sketch, cells_for_divergence, entry_digest, loaded_sketch_bytes

__all__ = ["LADDER", "SketchTier", "INITIAL_DIVERGENCE", "MAX_CELLS", "SKETCH_FLOOR_BYTES"]

#: Divergence hint of a ladder's first sketch request: the consumer has
#: nothing better, and the provider sizes the sketch from it
#: (:func:`~repro.sync.reconcile.cells_for_divergence`).
INITIAL_DIVERGENCE = 8
#: A ladder gives up (the next tier is the full rebuild) once a doubling
#: retry would exceed this many cells.
MAX_CELLS = 4096
#: Wire bytes of the first sketch :data:`INITIAL_DIVERGENCE` solicits,
#: every cell loaded, at the hash count providers sketch with: the least
#: a sketch-tier open costs (929 B), and the floor above which content
#: is warm (:meth:`SketchTier.pays`).
SKETCH_FLOOR_BYTES = loaded_sketch_bytes(cells_for_divergence(INITIAL_DIVERGENCE))

#: ``(request carried a cookie, local content warm) → tiers``, tried in
#: order until one recovers (docs/RECOVERY.md renders it,
#: ``tools/check_docs.py`` compares).
LADDER = {
    (False, False): ("raise",),
    (False, True): ("raise",),
    (True, False): ("rebuild",),
    (True, True): ("sketch", "rebuild"),
}


class SketchTier:
    """Sketch reconciliation against one provider of whichever content
    :meth:`run` is handed — a facility of two parties that hold mostly
    the same set, i.e. of the link: its stored filters share one tier,
    one salt stream and one set of counters.

    Both exchanges run through the attempt loop of the *machine* handed
    to :meth:`run` — handed, not held: a reference back to the link
    that owns the tier would keep a replaced consumer's content alive
    until the cyclic collector runs — so they are retried with the
    policy's backoff and charged to the one lifetime budget.  The salt
    draws from its own stream (sharing the jitter RNG would make fault
    traces depend on whether the ladder ran).
    """

    def __init__(self, provider, seed, registry: MetricsRegistry):
        self.provider = provider
        self._salt_rng = random.Random(f"resilient-salt:{seed}")
        self._minted: Optional[str] = None
        self._attempts = registry.counter("sync.reconcile.attempts")
        self._rounds = registry.counter("sync.reconcile.rounds")
        self._success = registry.counter("sync.reconcile.decode_success")
        self._failures = registry.counter("sync.reconcile.decode_failure")
        self._fallbacks = registry.counter("sync.reconcile.fallbacks")
        self._sketch_bytes = registry.counter("sync.reconcile.sketch_bytes")
        self._delta = registry.counter("sync.reconcile.delta_entries")
        self._fetched = registry.counter("sync.reconcile.fetched_entries")
        self._deleted = registry.counter("sync.reconcile.deleted_entries")

    def pays(self, content: SyncedContent) -> bool:
        """*content* is **warm**: its entries' summed
        ``estimated_size()`` exceeds the sketch floor
        (:data:`SKETCH_FLOOR_BYTES`), so a sketch open costs less than
        the load it replaces — the second fact of a :data:`LADDER`
        lookup, and what opens a subscription by sketch."""
        floor, held = SKETCH_FLOOR_BYTES, 0
        for entry in content.entries.values():
            held += entry.estimated_size()
            if held > floor:
                return True
        return False

    def run(self, machine: HealthMachine, content: SyncedContent) -> Optional[SyncResponse]:
        """One sketch-reconciliation ladder of *content* against the
        provider.

        Solicits an invertible sketch of the master's content, subtracts
        the local one, decodes the symmetric difference, and converts it
        into targeted per-entry fetches plus local deletes.  On a decode
        failure (undersized or corrupted sketch — always *detected*, see
        :meth:`EntrySketch.decode <repro.sync.reconcile.EntrySketch>`)
        the cell count doubles with a fresh salt, up to :data:`MAX_CELLS`.

        Returns the applied fetch response — the replica then holds the
        master's sketch-time content and a live session cookie — or
        None when the ladder should move on: the cap was reached, a
        protocol error ended the sketch session under us, an exchange
        gave out, or the health machine suspended retries.  Local
        content is only touched by a successful, validated decode.
        """
        self._attempts.inc()
        self._minted = None
        try:
            applied = self._reconcile(machine, content)
        except SyncProtocolError:
            applied = None
        if applied is None:
            self._forget_session(content)
        return applied

    def _reconcile(self, machine: HealthMachine, content: SyncedContent) -> Optional[SyncResponse]:
        cap = machine.policy.max_attempts
        cells: Optional[int] = None
        salt = self._salt_rng.getrandbits(32)
        failures = 0
        while True:
            rreq = ReconcileRequest(
                divergence_hint=INITIAL_DIVERGENCE,
                cells=cells,
                salt=salt,
                cookie=self._minted,
            )
            deliveries, failures = machine.attempt(
                lambda: self._exchange(content, "sketch", rreq, machine.policy.timeout_ms),
                cap,
                charge_last=False,
                failures=failures,
            )
            if deliveries is None:
                return None
            response = deliveries[-1].response
            self._rounds.inc()
            self._sketch_bytes.inc(response.pdu_bytes)
            self._minted = response.cookie
            sketch = response.sketch
            local = build_sketch(
                content.entries.values(),
                sketch.size,
                salt=sketch.salt,
                hash_count=sketch.hash_count,
            )
            decoded = sketch.subtract(local).decode()
            plan = self._plan(content, decoded) if decoded is not None else None
            if plan is not None:
                return self._fetch_and_apply(machine, content, plan)
            # Undersized or corrupted sketch — a *detected* failure:
            # double the cells, re-salt, bounded by MAX_CELLS.
            self._failures.inc()
            cells = sketch.size * 2
            salt += 1
            if cells > MAX_CELLS:
                return None

    def _plan(self, content: SyncedContent, decoded):
        """Validate a decoded difference against local content.

        Every negative (replica-only) item must name an entry the
        replica actually holds, fingerprint and all; a positive item
        exactly matching a local digest is equally impossible (it would
        have cancelled in the subtraction).  Either contradiction means
        the peel produced garbage that slipped past the checksums —
        treated as a decode failure, never applied.  Returns
        ``(fetch_keys, delete_dns)`` or None.
        """
        master_only, replica_only = decoded
        local = {}  # key → (dn, fingerprint)
        for dn, entry in content.entries.items():
            key, fp = entry_digest(entry)
            local[key] = (dn, fp)
        master_keys = {key for key, _ in master_only}
        delete_dns = []
        for key, fp in replica_only:
            held = local.get(key)
            if held is None or held[1] != fp:
                return None
            if key not in master_keys:
                delete_dns.append(held[0])
        for key, fp in master_only:
            held = local.get(key)
            if held is not None and held[1] == fp:
                return None
        return sorted(master_keys), delete_dns

    def _fetch_and_apply(self, machine, content, plan) -> Optional[SyncResponse]:
        """Pull the master-only entries and fold the difference in.

        The fetch travels even when there is nothing to pull: its
        response carries the session cookie that makes the reconciled
        replica resumable.  Duplicated deliveries re-apply idempotently,
        like every ReSync action.
        """
        fetch_keys, delete_dns = plan
        fetch = ReconcileFetch(keys=tuple(fetch_keys), cookie=self._minted)
        policy = machine.policy
        deliveries, _ = machine.attempt(
            lambda: self._exchange(content, "fetch", fetch, policy.timeout_ms),
            policy.max_attempts,
            charge_last=False,
        )
        if deliveries is None:
            return None
        self._success.inc()
        self._delta.inc(len(fetch_keys) + len(delete_dns))
        fetched = 0
        for delivery in deliveries:
            content.apply_reconcile(delivery.response, delete_dns)
            fetched += len(delivery.response.updates)
        self._fetched.inc(fetched)
        self._deleted.inc(len(delete_dns))
        return deliveries[-1].response

    def _exchange(self, content, kind: str, payload, timeout_ms: Optional[float]):
        """The deliveries of one sketch or fetch exchange that beat the
        per-operation timeout."""
        deliveries = exchange(
            content.network, kind, self.provider, content.request, payload
        )
        return SyncedContent.timely(deliveries, timeout_ms)

    def _forget_session(self, content: SyncedContent) -> None:
        """The tier's one fallback exit.  The refused cookie is dead —
        kept, it could come to name a session a restarted provider mints
        later — so the content trades it for the session the tier minted
        and ends that (``sync_end``): no orphan is left accumulating
        history for nobody, and the next request is the initial load."""
        self._fallbacks.inc()
        content.cookie = self._minted
        if self._minted is not None:
            try:
                content.end(self.provider)
            except SyncProtocolError:
                content.cookie = None  # it died with its provider
