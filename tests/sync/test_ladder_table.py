"""Every cell of the ``LADDER`` table, against real providers.

The parametrised test's ids are the table's own keys — ``(request
carried a cookie, local content warm)`` — and each cell is *built* from
its key (how much content, which cookie), so a row added to ``LADDER``
is run, and what the consumer is seen to do is compared with the tiers
the row names (docs/RECOVERY.md renders the same table).
"""

import pytest

from repro.ldap import Entry, ReSyncControl, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
)
from repro.sync import (
    MultiPoll,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
    SyncProtocolError,
    entry_fingerprint,
)
from repro.sync import ladder
from repro.sync.ladder import LADDER, SketchTier
from repro.sync.reconcile import EntrySketch, build_sketch, cells_for_divergence
from repro.sync.protocol import ReconcileRequest, answer_polls

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


def build_master(matching: int) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    master.add(person("other", dept="99"))
    for i in range(matching):
        master.add(person(f"E{i:03d}"))
    return master


class Refusing(ResyncProvider):
    """A provider able to refuse initial loads on demand — the one thing
    a real one does not do by itself."""

    refuse_null = False

    def handle(self, request, control, *args, **kwargs):
        if isinstance(control, MultiPoll):  # a link round: each session on its own
            return answer_polls(
                lambda r, cookie: self.handle(r, ReSyncControl(cookie=cookie)), request, control
            )
        if self.refuse_null and control.cookie is None:
            raise SyncProtocolError("initial load refused")
        return super().handle(request, control, *args, **kwargs)


def build_cell(key):
    """(master, provider, consumer, counters) in the state *key* names,
    one refusal away from the ladder."""
    carried, warm = key
    master = build_master(40 if warm else 0)
    provider = Refusing(master)
    net = FaultyNetwork()
    consumer = ResilientConsumer(REQUEST, provider, network=net)
    assert consumer.sync_once() is not None
    assert (len(consumer.content) > 0) == warm
    if carried:
        provider.invalidate_cookie(consumer.content.cookie)
    else:
        # Where a consumer stands after the ladder chose ``rebuild``.
        consumer.content.cookie = None
        provider.refuse_null = True
    master.add(person("NEW"))
    if warm:
        master.modify("cn=E001,o=xyz", [Modification.replace("sn", "changed")])
        master.delete("cn=E002,o=xyz")
    return master, provider, consumer, net.registry.counter


def test_the_table_is_keyed_by_two_facts():
    """Cookie carried × content warm, every pair once: whether the
    provider serves the sketch tier is not a fact, it always does."""
    assert sorted(LADDER) == [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("key", list(LADDER), ids=str)
def test_every_cell_takes_the_tiers_the_table_names(key):
    master, provider, consumer, counter = build_cell(key)
    tiers = LADDER[key]
    held = dict(consumer.content.entries)
    if tiers == ("raise",):
        with pytest.raises(SyncProtocolError):
            consumer.sync_once()
        assert dict(consumer.content.entries) == held  # nothing was touched
    else:
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
    # The first tier recovers here, so only it may have run.
    assert counter("sync.reconcile.attempts").value == (tiers[0] == "sketch")
    assert counter("sync.resilient.reloads").value == (tiers[0] == "rebuild")
    assert counter("sync.reconcile.fallbacks").value == 0


def test_failed_sketch_moves_on_to_the_next_tier_of_its_row(monkeypatch):
    key = (True, True)
    assert LADDER[key] == ("sketch", "rebuild")
    monkeypatch.setattr(ladder, "INITIAL_DIVERGENCE", 1)
    monkeypatch.setattr(ladder, "MAX_CELLS", 6)
    master, provider, consumer, counter = build_cell(key)
    for i in range(10, 30):
        master.modify(f"cn=E{i:03d},o=xyz", [Modification.replace("sn", "far")])
    assert consumer.sync_once() is not None
    assert consumer.content.matches_master(master)
    assert counter("sync.reconcile.fallbacks").value == 1
    assert counter("sync.resilient.reloads").value == 1
    assert provider.active_session_count == 1


@pytest.mark.parametrize("death", ["restart", "invalidate_cookie"])
def test_plain_dead_cookie_over_warm_content_reconciles(death):
    """Journal-less provider restart and admin expiry both leave a plain
    (never ``:h``-stamped) cookie: O(delta) through the sketch."""
    master = build_master(40)
    provider = ResyncProvider(master)
    net = FaultyNetwork()
    consumer = ResilientConsumer(REQUEST, provider, network=net)
    consumer.sync_once()
    cookie = consumer.content.cookie
    assert not cookie.endswith(":h")
    if death == "restart":
        provider.restart()
    else:
        provider.invalidate_cookie(cookie)
    master.add(person("NEW"))
    before = net.stats.snapshot()
    assert consumer.sync_once() is not None
    assert consumer.content.matches_master(master)
    assert net.registry.counter("sync.resilient.reloads").value == 0
    assert net.registry.counter("sync.reconcile.decode_success").value == 1
    assert provider.active_session_count == 1
    # one fetched entry, not forty
    assert (net.stats - before).sync_entry_pdus == 1


@pytest.mark.parametrize("seed", [101, 202, 303])
@pytest.mark.parametrize("rate", [0.5, 1.0])
def test_sketch_damage_on_the_plain_cookie_path_never_installs_a_wrong_entry(
    seed, rate, monkeypatch
):
    """``FaultSpec.sketch_corrupt`` on the journal-less-restart path:
    each damaged sketch is a *detected* decode failure — the tier
    doubles or falls back to the rebuild, and the replica never holds
    an entry version the master never had."""
    monkeypatch.setattr(ladder, "MAX_CELLS", 192)
    master = build_master(40)
    provider = ResyncProvider(master)
    net = FaultyNetwork(FaultPlan(FaultSpec(sketch_corrupt=rate), seed=seed))
    consumer = ResilientConsumer(
        REQUEST,
        provider,
        network=net,
        policy=RetryPolicy(jitter=0.0),
    )
    consumer.sync_once()
    ever_valid = {entry_fingerprint(e) for e in master.search(REQUEST).entries}
    provider.restart()
    for i in range(5):
        master.modify(f"cn=E{i:03d},o=xyz", [Modification.replace("sn", f"Z{i}")])
    master.delete("cn=E039,o=xyz")
    ever_valid |= {entry_fingerprint(e) for e in master.search(REQUEST).entries}

    assert consumer.sync_once() is not None
    assert consumer.content.matches_master(master)
    held = {entry_fingerprint(e) for e in consumer.content.entries.values()}
    assert held <= ever_valid
    counter = net.registry.counter
    injected = counter("net.fault.injected").labels(kind="sketch_corrupt").value
    assert injected >= (1 if rate == 1.0 else 0)
    # detected, every time
    assert counter("sync.reconcile.decode_failure").value >= injected
    # …and recovered one way or the other: doubled, or fell back.
    assert (
        counter("sync.reconcile.decode_success").value
        + counter("sync.resilient.reloads").value
        == 1
    )
    assert provider.active_session_count == 1


def test_warm_is_more_than_the_sketch_floor():
    """The ladder's second fact is size, not presence: a content whose
    entries weigh no more than the first sketch would rebuilds — the
    load is the cheaper recovery — and one entry more reconciles."""
    assert ladder.SKETCH_FLOOR_BYTES == 929  # 24 loaded cells
    tier = SketchTier(None, 0, FaultyNetwork().registry)
    content = SyncedContent(REQUEST)
    assert not tier.pays(content)
    entries = [person(f"E{i:03d}") for i in range(20)]
    size = entries[0].estimated_size()
    small = ladder.SKETCH_FLOOR_BYTES // size
    content.entries = {e.dn: e for e in entries[:small]}
    assert not tier.pays(content)
    content.entries = {e.dn: e for e in entries[: small + 1]}
    assert tier.pays(content)


def test_the_floor_is_what_the_encoder_charges_for_a_first_sketch():
    """``SKETCH_FLOOR_BYTES`` is measured on the sketch encoder, not
    restated: a real first sketch (sized by ``INITIAL_DIVERGENCE``) of
    any content costs at most the floor, and an empty one far less."""
    floor = ladder.SKETCH_FLOOR_BYTES
    cells = cells_for_divergence(ladder.INITIAL_DIVERGENCE)
    for count in (1, 5, 40, 400):
        entries = [person(f"E{i:03d}") for i in range(count)]
        sketch = build_sketch(entries, cells, salt=count)
        assert sketch.encoded_size() <= floor
    assert EntrySketch(cells).encoded_size() < floor // 2


def test_the_sketch_hash_count_is_not_a_consumer_setting():
    """A sketch request carries no hash count and a provider sketches
    with the default, so the consumer has none to set."""
    with pytest.raises(TypeError):
        ReconcileRequest(hash_count=4)
    assert ladder.SKETCH_FLOOR_BYTES == 929


def test_a_small_content_rebuilds_where_a_sketch_costs_more():
    """A refused cookie over a content below the floor takes the
    ``(True, False)`` row: the null-cookie load, no sketch, and
    fewer bytes than the sketch floor alone."""
    master = build_master(5)
    provider = ResyncProvider(master)
    net = FaultyNetwork()
    consumer = ResilientConsumer(REQUEST, provider, network=net)
    consumer.sync_once()
    provider.invalidate_cookie(consumer.content.cookie)
    master.add(person("NEW"))
    before = net.stats.bytes_sent
    assert consumer.sync_once() is not None
    assert consumer.content.matches_master(master)
    assert net.registry.counter("sync.reconcile.attempts").value == 0
    assert net.registry.counter("sync.resilient.reloads").value == 1
    assert net.stats.bytes_sent - before < ladder.SKETCH_FLOOR_BYTES
