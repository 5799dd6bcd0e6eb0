"""Tests for search controls (server-side sorting, RFC 2891 / §2.2)."""

import pytest

from repro.ldap import Entry, Scope, SearchRequest, SortControl
from repro.server import DirectoryServer


@pytest.fixture()
def server() -> DirectoryServer:
    s = DirectoryServer("host")
    s.add_naming_context("o=xyz")
    s.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for cn, sn, age in (("Carol", "Zeta", "30"), ("Alice", "Young", "40"), ("Bob", "young", "20")):
        s.add(
            Entry(
                f"cn={cn},o=xyz",
                {"objectClass": ["person"], "cn": cn, "sn": sn, "age": age},
            )
        )
    return s


class TestSortControl:
    def test_sorts_by_key(self, server):
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"),
            controls=[SortControl(keys=("cn",))],
        )
        assert [e.first("cn") for e in result.entries] == ["Alice", "Bob", "Carol"]

    def test_reverse(self, server):
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"),
            controls=[SortControl(keys=("cn",), reverse=True)],
        )
        assert [e.first("cn") for e in result.entries] == ["Carol", "Bob", "Alice"]

    def test_normalized_comparison(self, server):
        # "Young" and "young" compare equal; secondary key breaks the tie
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"),
            controls=[SortControl(keys=("sn", "cn"))],
        )
        assert [e.first("cn") for e in result.entries] == ["Alice", "Bob", "Carol"]

    def test_integer_syntax_key(self, server):
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"),
            controls=[SortControl(keys=("age",))],
        )
        ages = [e.first("age") for e in result.entries]
        assert ages == sorted(ages, key=int)

    def test_absent_values_sort_last(self, server):
        server.add(
            Entry("cn=Dave,o=xyz", {"objectClass": ["person"], "cn": "Dave", "sn": "A"})
        )
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"),
            controls=[SortControl(keys=("age",))],
        )
        assert result.entries[-1].first("cn") == "Dave"

    def test_no_controls_no_sorting_requirement(self, server):
        result = server.search(SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"))
        assert len(result.entries) == 3

    def test_sorting_on_root_search(self, server):
        result = server.search(
            SearchRequest("", Scope.SUB, "(objectClass=person)"),
            controls=[SortControl(keys=("cn",))],
        )
        assert [e.first("cn") for e in result.entries] == ["Alice", "Bob", "Carol"]

    def test_sort_key_need_not_be_a_requested_attribute(self, server):
        # The server sorts what it evaluated — the stored entries — and
        # projects on the way out; a key left out of the attribute list
        # still orders the result (RFC 2891 sorts entries, not PDUs).
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)", ["cn"]),
            controls=[SortControl(keys=("age",))],
        )
        assert [e.first("cn") for e in result.entries] == ["Bob", "Carol", "Alice"]
        assert not any(e.has_attribute("age") for e in result.entries)
