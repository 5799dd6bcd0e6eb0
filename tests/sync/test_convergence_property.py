"""Property-based convergence: every sync mechanism must converge.

Hypothesis drives random interleavings of master updates and replica
polls; after a final poll the replica content for the tracked search
must equal the master's live content — the paper's convergence
guarantee (§5), for all four mechanisms.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification
from repro.sync import ResyncProvider, SyncedContent
from tests.oracles import (
    ChangelogProvider,
    FullReloadProvider,
    RetainResyncProvider,
    TombstoneProvider,
)

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
NAMES = [f"P{i}" for i in range(6)]


def build_master() -> DirectoryServer:
    m = DirectoryServer("M")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i, name in enumerate(NAMES):
        m.add(
            Entry(
                f"cn={name},o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": name,
                    "sn": "T",
                    "departmentNumber": "42" if i % 2 == 0 else "99",
                },
            )
        )
    return m


# One step of the random schedule: either an update kind on a target
# entry, or a replica poll.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("poll")),
        st.tuples(st.just("modify_in"), st.sampled_from(NAMES)),
        st.tuples(st.just("modify_out"), st.sampled_from(NAMES)),
        st.tuples(st.just("benign"), st.sampled_from(NAMES)),
        st.tuples(st.just("delete"), st.sampled_from(NAMES)),
        st.tuples(st.just("rename"), st.sampled_from(NAMES)),
        st.tuples(st.just("add"), st.sampled_from(NAMES)),
    ),
    min_size=1,
    max_size=25,
)


def _apply(master: DirectoryServer, step, counter: list) -> None:
    kind = step[0]
    if kind == "poll":
        return
    name = step[1]
    dn = f"cn={name},o=xyz"
    try:
        if kind == "modify_in":
            master.modify(dn, [Modification.replace("departmentNumber", "42")])
        elif kind == "modify_out":
            master.modify(dn, [Modification.replace("departmentNumber", "99")])
        elif kind == "benign":
            master.modify(dn, [Modification.replace("title", f"t{counter[0]}")])
        elif kind == "delete":
            master.delete(dn)
        elif kind == "rename":
            counter[0] += 1
            master.modify_dn(dn, new_rdn=f"cn={name}v{counter[0]}")
        elif kind == "add":
            counter[0] += 1
            master.add(
                Entry(
                    f"cn={name}n{counter[0]},o=xyz",
                    {
                        "objectClass": ["person"],
                        "cn": f"{name}n{counter[0]}",
                        "sn": "T",
                        "departmentNumber": "42",
                    },
                )
            )
    except Exception:
        pass  # target already renamed/deleted this run — fine


def _run(provider_factory, steps) -> None:
    master = build_master()
    provider = provider_factory(master)
    content = SyncedContent(REQUEST)
    content.poll(provider)
    counter = [0]
    for step in steps:
        _apply(master, step, counter)
        if step[0] == "poll":
            content.poll(provider)
    content.poll(provider)
    assert ReferenceModel.of(master).holds(content)


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_resync_converges(steps):
    _run(ResyncProvider, steps)


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_retain_converges(steps):
    _run(RetainResyncProvider, steps)


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_changelog_converges(steps):
    _run(ChangelogProvider, steps)


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_tombstone_converges(steps):
    _run(TombstoneProvider, steps)


@settings(max_examples=30, deadline=None)
@given(_steps)
def test_full_reload_converges(steps):
    _run(FullReloadProvider, steps)


@settings(max_examples=40, deadline=None)
@given(_steps)
def test_persist_mode_converges(steps):
    """Persist-mode ReSync: every notification applied on arrival."""
    master = build_master()
    provider = ResyncProvider(master)
    content = SyncedContent(REQUEST)
    response, handle = provider.persist(REQUEST, content.apply_notification)
    for update in response.updates:
        content.apply_notification(update)
    counter = [0]
    for step in steps:
        _apply(master, step, counter)
    assert ReferenceModel.of(master).holds(content)
    handle.abandon()
