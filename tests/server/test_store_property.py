"""Property test: EntryStore indexes stay consistent under mutation.

Random sequences of put/replace/delete must leave the store in a state
where index-driven candidate search agrees with a brute-force scan for
every probe filter — the soundness condition the server's correctness
rests on — and, stronger, with exactly the state of a store freshly
loaded with the final entries: every structure is built on first ask
and maintained from then on, and a replace re-indexes only the
attributes that changed (:meth:`EntryStore.put`), so whatever it skips
must be what a full re-index would have left alone.
"""

from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, matches, parse_filter
from repro.ldap.attributes import DEFAULT_REGISTRY, AttributeRegistry
from repro.ldap.filters import (
    And,
    Approx,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Substring,
)
from repro.ldap.matching import compile_filter
from repro.server import EntryStore, SearchPlan

NAMES = [f"e{i}" for i in range(8)]
VALUES = ["aa", "ab", "ba", "bb", "ccc"]
# Integer-syntax values per sn value — includes the "9" vs "10" pair the
# old lexicographic OrderingIndex got wrong, plus a schema violator.
AGES = {"aa": "7", "ab": "9", "ba": "10", "bb": "41", "ccc": "oops"}

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(NAMES), st.sampled_from(VALUES)),
        st.tuples(st.just("delete"), st.sampled_from(NAMES), st.just("")),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(_ops, st.sampled_from(VALUES))
def test_index_scan_agreement(ops, probe):
    store = EntryStore()
    root = DN.parse("o=xyz")
    store.put(Entry(root, {"objectClass": ["organization"], "o": "xyz"}))

    for op, name, value in ops:
        dn = root.child(f"cn={name}")
        if op == "put":
            store.put(
                Entry(dn, {"objectClass": ["person"], "cn": name, "sn": value})
            )
        else:
            store.delete(dn)

    for flt_text in (
        f"(sn={probe})",
        f"(sn={probe[:1]}*)",
        f"(sn>={probe})",
        f"(sn<={probe})",
    ):
        flt = parse_filter(flt_text)
        truth = {e.dn for e in store.all_entries() if matches(flt, e)}
        candidates = store.candidates_for(flt)
        if candidates is not None:
            assert truth <= candidates, f"index dropped a match for {flt_text}"


# ----------------------------------------------------------------------
# delta upkeep: a replaced entry leaves the indexes a fresh load builds
# ----------------------------------------------------------------------
# Two spellings per normalized value ("aa"/"AA"), numbers and a schema
# violator for the integer-syntax attribute.
_TEXT = st.lists(st.sampled_from(["aa", "AA", "ab", "Ab", "ba", "ccc"]), min_size=1, max_size=3)
_NUMBERS = st.lists(st.sampled_from(["7", "9", "10", "010", "oops"]), min_size=1, max_size=2)
#: Literal attribute spelling -> its values.  ``commonName``/``surname``
#: are aliases and ``SN`` another case: further spellings of ``cn``/``sn``
#: filling the one list the entry holds (and the one index the store
#: posts) per attribute.  Every key is optional, so replaces add and drop
#: whole attributes and change several at once.
_IMAGES = st.fixed_dictionaries(
    {},
    optional={
        "cn": _TEXT,
        "commonName": _TEXT,
        "sn": _TEXT,
        "surname": _TEXT,
        "SN": _TEXT,
        "mail": _TEXT,  # case-exact: "aa" and "AA" are two values
        "description": _TEXT,
        "age": _NUMBERS,
        # a referral object under either spelling of its class
        "objectClass": st.sampled_from([["person"], ["Referral "], ["referral", "top"]]),
    },
)
#: Entries under the root, and two under ``e0``: the tree has depth.
_IMAGE_NAMES = NAMES + ["e0/e6", "e0/e7"]
_image_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_IMAGE_NAMES), _IMAGES),
        st.tuples(st.just("delete"), st.sampled_from(_IMAGE_NAMES), st.just(None)),
    ),
    min_size=1,
    max_size=30,
)


#: First asks, each a filter under one spelling: aliases and another case
#: of one attribute ask for the same index set.  Every ask builds its
#: attribute's set (equality and presence); a substring ask over an
#: attribute some entry holds builds that index too, and a range ask,
#: planned as a scan, builds the set alone.  ``o`` is held by the root
#: alone, and ``telephoneNumber`` by no entry.
_ASKS = [
    "(cn=aa)", "(SN=*)", "(surname=AA)", "(mail=aa)", "(age=9)", "(description=*)",
    "(objectClass=referral)", "(o=xyz)", "(telephoneNumber=1)",
    "(cn=a*)", "(commonName=*b)", "(sn=*a*)", "(SurName=a*)", "(mail=A*)",
    "(description=*c)", "(age=1*)", "(objectClass=p*)", "(o=x*)",
    "(telephoneNumber=1*)",
    "(cn>=ab)", "(commonName<=ab)", "(sn>=b)", "(SN<=ab)", "(surname>=aa)",
    "(mail<=ab)", "(description>=b)", "(age>=9)", "(age<=010)",
    "(objectClass>=p)", "(o<=y)", "(telephoneNumber>=1)",
]
ROOT = DN.parse("o=xyz")
#: First asks for the store's non-attribute structures.
_STRUCTURES = {
    "children": lambda store: store.has_children(ROOT),
    "referrals": lambda store: store.has_referrals(),
    "order": lambda store: store.subtree_region(ROOT),
    "ranks": lambda store: store._ranked(),  # in_insertion_order of two or more DNs
}


def _image_dn(name: str) -> DN:
    dn = ROOT
    for part in name.split("/"):
        dn = dn.child(f"cn={part}")
    return dn


def _index_state(store: EntryStore) -> dict:
    """Everything the index sets hold, per attribute, reading only the
    indexes built so far (reading builds them)."""
    state = {}
    for attr, ixs in store._indexes.items():
        state[attr] = (
            dict(ixs.equality._postings),
            dict(ixs.presence._counts),
            None if ixs._substring is None else dict(ixs._substring._postings),
        )
    return state


def _structure_state(store: EntryStore) -> tuple:
    """The non-attribute structures built so far (None: not built); the
    insertion ranks as the DN order they give."""
    ranks = store._ranks
    return (
        store._children,
        store._referral_dns,
        store._order,
        None if ranks is None else sorted(ranks, key=ranks.__getitem__),
    )


def _state(store: EntryStore) -> tuple:
    return _index_state(store), _structure_state(store)


def _build_as(store: EntryStore, other: EntryStore) -> None:
    """Build in *store* the index sets, indexes and structures *other*
    has built."""
    for attr, ixs in other._indexes.items():
        index = store.index_for(attr)
        if ixs._substring is not None:
            index.substring
    for name, built in zip(_STRUCTURES, _structure_state(other)):
        if built is not None:
            _STRUCTURES[name](store)


def _build_all(store: EntryStore) -> None:
    for ixs in store._indexes.values():
        ixs.substring
    for ask in _STRUCTURES.values():
        ask(store)


@settings(max_examples=200, deadline=None)
@given(
    _image_ops,
    st.dictionaries(st.sampled_from(_ASKS), st.integers(0, 31)),
    st.dictionaries(st.sampled_from(list(_STRUCTURES)), st.integers(0, 31)),
)
def test_index_state_equals_a_fresh_load(ops, asks, structure_asks):
    """An index set, a substring index or a non-attribute structure
    first asked for before op ``i`` (``asks[name] = i``; past
    the last op means after it) is built from the images then and
    maintained by every later op: it holds what a fresh load builds from
    the final images, and nothing nobody asked for is built."""
    asks = {**asks, **structure_asks}
    store = EntryStore()
    store.put(Entry(ROOT, {"objectClass": ["organization"], "o": "xyz"}))
    asked_sets, asked_substrings, asked_structures = set(), set(), set()

    def ask_due(step: int) -> None:
        for text, at in asks.items():
            if not (at == step or (step == len(ops) and at > step)):
                continue
            if text in _STRUCTURES:
                _STRUCTURES[text](store)
                asked_structures.add(text)
                continue
            flt = parse_filter(text)
            key = DEFAULT_REGISTRY.key(flt.attr)
            held = any(entry.has_attribute(flt.attr) for entry in store.all_entries())
            store.plan_for(flt)
            asked_sets.add(key)
            if held and isinstance(flt, Substring):
                asked_substrings.add(key)

    for step, (op, name, image) in enumerate(ops):
        ask_due(step)
        dn = _image_dn(name)
        if op == "put":
            store.put(Entry(dn, {"objectClass": ["person"], **image}))
        else:
            store.delete(dn)
    ask_due(len(ops))

    assert set(store._indexes) == asked_sets
    assert {key for key, ixs in store._indexes.items() if ixs._substring is not None} == (
        asked_substrings
    )
    built = {name for name, held in zip(_STRUCTURES, _structure_state(store)) if held is not None}
    assert built == asked_structures
    if store._ranks is not None:
        assert _structure_state(store)[3] == list(store.images())

    fresh = EntryStore()
    for entry in store.images().values():
        fresh.put(entry.copy())
    assert _state(fresh) == ({}, (None, None, None, None))
    _build_as(fresh, store)
    assert _state(store) == _state(fresh)

    # Everything built, however late: the state a fresh load holds.
    _build_all(store)
    _build_all(fresh)
    assert _state(store) == _state(fresh)

    # The weaker soundness condition, over the richer images too.
    for flt_text in (
        "(sn=aa)", "(cn=a*)", "(age>=9)", "(age<=9)", "(mail=AA)", "(sn=*)",
        "(surname=aa)", "(commonName=a*)", "(SurName=*)",
    ):
        flt = parse_filter(flt_text)
        truth = {e.dn for e in store.all_entries() if matches(flt, e)}
        candidates = store.candidates_for(flt)
        if candidates is not None:
            assert truth <= candidates, f"index dropped a match for {flt_text}"


# ----------------------------------------------------------------------
# planner property: candidates ⊇ brute-force matches for random trees
# ----------------------------------------------------------------------
def _leaf_predicates():
    preds = []
    for attr, values in (
        ("sn", VALUES),
        ("age", ["7", "9", "10", "41", "100", "oops"]),
        ("nosuchattr", ["zz"]),
    ):
        preds.append(Present(attr))
        for value in values:
            preds.append(Equality(attr, value))
            preds.append(GreaterOrEqual(attr, value))
            preds.append(LessOrEqual(attr, value))
        preds.append(Substring(attr, initial=values[0][:1]))
        preds.append(Substring(attr, any_parts=(values[-1][-2:],)))
    return preds


_filter_trees = st.recursive(
    st.sampled_from(_leaf_predicates()),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        children.map(Not),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_ops, _filter_trees)
def test_planner_superset_property(ops, flt):
    """Plan candidates are supersets of brute force for random AND/OR/NOT
    trees, and the compiled filter agrees with the interpreter."""
    store = EntryStore()
    root = DN.parse("o=xyz")
    store.put(Entry(root, {"objectClass": ["organization"], "o": "xyz"}))

    for op, name, value in ops:
        dn = root.child(f"cn={name}")
        if op == "put":
            store.put(
                Entry(
                    dn,
                    {
                        "objectClass": ["person"],
                        "cn": name,
                        "sn": value,
                        "age": AGES[value],
                    },
                )
            )
        else:
            store.delete(dn)

    truth = {e.dn for e in store.all_entries() if matches(flt, e)}
    plan = store.plan_for(flt)
    assert plan.strategy in SearchPlan.STRATEGIES
    if plan.candidates is not None:
        missing = truth - plan.candidates
        assert not missing, f"plan {plan.strategy} dropped {missing} for {flt}"

    assert_compiled_agrees(flt, store.all_entries())


def assert_compiled_agrees(flt, entries) -> None:
    """``compile_filter(flt)`` (default registry) decides every entry as
    :func:`matches` does: over the frozen image and its mutable copy,
    each twice — the first reading of a frozen image computes the
    normalized values it remembers, the second reads them."""
    compiled = compile_filter(flt)
    for entry in entries:
        for image in (entry, entry.copy()):
            want = matches(flt, image)
            for reading in ("cold", "warm"):
                assert compiled(image) == want, f"{reading} mismatch for {flt} on {sorted(image)}"


# ----------------------------------------------------------------------
# compiled filters read remembered normalized values exactly as matches()
# normalizes afresh
# ----------------------------------------------------------------------
#: Multi-valued images: spellings that normalize alike ("aa"/" AA "), a
#: value with inner spaces, numbers with a leading zero and surrounding
#: spaces, and a non-numeric value in the INTEGER-syntax ``age`` — so
#: ordering compares mixed types.
_MULTI_TEXT = st.lists(st.sampled_from(["aa", " AA ", "ab", "b  a", "ccc"]), min_size=1, max_size=3)
_MULTI_AGES = st.lists(st.sampled_from(["7", "9", "010", " 41 ", "oops"]), min_size=1, max_size=3)
_MULTI_IMAGES = st.fixed_dictionaries(
    {},
    optional={
        "sn": _MULTI_TEXT,
        "commonName": _MULTI_TEXT,
        "mail": _MULTI_TEXT,  # case-exact
        "age": _MULTI_AGES,
    },
)


def _rich_leaves():
    preds = []
    for attr, values in (
        ("sn", ["aa", "AA", "b a", "ccc", "zz"]),
        ("cn", ["aa", "ab"]),
        ("mail", ["aa", "AA"]),
        ("age", ["7", "9", "10", "41", "oops"]),
        ("nosuchattr", ["zz"]),
    ):
        preds.append(Present(attr))
        for value in values:
            preds.append(Equality(attr, value))
            preds.append(Approx(attr, value))
            preds.append(GreaterOrEqual(attr, value))
            preds.append(LessOrEqual(attr, value))
        preds.append(Substring(attr, initial=values[0][:1]))
        preds.append(Substring(attr, any_parts=(values[-1][-1:],), final=values[0][-1:]))
        preds.append(Substring(attr, initial=" ", any_parts=(values[-1],)))
    return preds


_rich_trees = st.recursive(
    st.sampled_from(_rich_leaves()),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        children.map(Not),
    ),
    max_leaves=5,
)

#: The default registry's types again, in a registry of their own: an
#: entry under it is read afresh by a filter compiled under the default
#: one, and must be decided alike.
FOREIGN = AttributeRegistry(
    DEFAULT_REGISTRY.get(name) for name in ("objectClass", "cn", "sn", "mail", "age")
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_MULTI_IMAGES, min_size=1, max_size=5), _rich_trees)
def test_compiled_filter_reads_remembered_values_as_matches_normalizes(images, flt):
    store = EntryStore()
    root = DN.parse("o=xyz")
    foreign = []
    for i, image in enumerate(images):
        attrs = {"objectClass": ["person"], **image}
        store.put(Entry(root.child(f"cn=e{i}"), attrs))
        foreign.append(Entry(root.child(f"cn=f{i}"), attrs, registry=FOREIGN).freeze())
    held = list(store.all_entries())
    assert all(entry.frozen for entry in held)
    assert_compiled_agrees(flt, held + foreign)


@settings(max_examples=100, deadline=None)
@given(_ops, st.booleans())
def test_tree_structure_consistent(ops, early):
    """children_of and subtree_region agree with the live DN set, built
    before the ops (and maintained by them) or after them."""
    store = EntryStore()
    root = DN.parse("o=xyz")
    store.put(Entry(root, {"objectClass": ["organization"], "o": "xyz"}))
    if early:
        store.children_of(root), store.subtree_region(root)

    live = {root}
    for op, name, value in ops:
        dn = root.child(f"cn={name}")
        if op == "put":
            store.put(Entry(dn, {"objectClass": ["person"], "cn": name, "sn": value or "x"}))
            live.add(dn)
        else:
            store.delete(dn)
            live.discard(dn)

    assert set(store.children_of(root)) == live - {root}
    region = store.subtree_region(root)
    assert set(region) == live and region[0] == root
    walked, stack = set(), [DN(())]
    while stack:  # the tree walk from the virtual root, depth first
        dn = stack.pop()
        if dn in store:
            walked.add(dn)
        stack.extend(store.children_of(dn))
    assert walked == live
    assert len(store) == len(live)
