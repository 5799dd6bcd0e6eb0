"""Tests for the cost-based search planner (docs/PLANNER.md)."""

import random

import pytest

from repro.chaos import ReferenceModel
from repro.ldap import DN, Entry, Scope, SearchRequest, matches, parse_filter
from repro.server import DirectoryServer, EntryStore, Modification, SearchPlan


def build_server(n: int = 40) -> DirectoryServer:
    """A master with *n* people across 4 departments, numeric ages."""
    server = DirectoryServer("master")
    server.add_naming_context("o=xyz")
    server.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    server.add(
        Entry(
            "ou=people,o=xyz",
            {"objectClass": ["organizationalUnit"], "ou": "people"},
        )
    )
    for i in range(n):
        server.add(
            Entry(
                f"cn=p{i},ou=people,o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": f"p{i}",
                    "sn": f"Name{i:03d}",
                    "age": str(i + 5),
                    "departmentNumber": str(2000 + i % 4),
                },
            )
        )
    return server


@pytest.fixture()
def server() -> DirectoryServer:
    return build_server()


@pytest.fixture()
def store(server) -> EntryStore:
    return server.store


def plan(store, text) -> SearchPlan:
    return store.plan_for(parse_filter(text))


def brute(store, text):
    flt = parse_filter(text)
    return {e.dn for e in store.all_entries() if matches(flt, e)}


class TestStrategies:
    def test_equality(self, store):
        p = plan(store, "(cn=p7)")
        assert p.strategy == "equality"
        assert p.candidates == {DN.parse("cn=p7,ou=people,o=xyz")}

    def test_and_intersects_multiple_conjuncts(self, store):
        p = plan(store, "(&(departmentNumber=2001)(sn=Name01*))")
        assert p.strategy == "intersect"
        # Both conjuncts were intersected: the set is strictly smaller
        # than either one's result.
        dept = plan(store, "(departmentNumber=2001)").candidates
        assert p.candidates < dept
        assert brute(store, "(&(departmentNumber=2001)(sn=Name01*))") <= p.candidates

    def test_strategies_are_what_table_1_traffic_needs(self):
        assert set(SearchPlan.STRATEGIES) == {
            "scan", "absent", "presence", "equality", "substring", "intersect"
        }

    @pytest.mark.parametrize(
        "text",
        [
            "(age>=40)",
            "(&(age>=9)(age<=11))",
            "(objectClass>=person)",
            "(|(cn=p1)(cn=p2)(departmentNumber=2003))",
        ],
    )
    def test_range_and_or_plan_a_scan_that_answers_the_model(self, server, text):
        # Table 1's traffic is equality, substring and AND: a range or an
        # OR has no index strategy, and the scan it plans is a sound
        # superset the server verifies.
        assert plan(server.store, text).strategy == "scan"
        request = SearchRequest("o=xyz", Scope.SUB, text)
        found = {str(e.dn): e for e in server.search(request).entries}
        assert found == ReferenceModel.of(server).content(request)

    def test_or_with_unindexable_child_scans(self, store):
        p = plan(store, "(|(cn=p1)(!(cn=p2)))")
        assert p.is_scan

    def test_not_scans(self, store):
        assert plan(store, "(!(cn=p1))").is_scan

    def test_broad_presence_degrades_to_scan(self, store):
        # (objectClass=*) selects everything; probing a near-total
        # candidate set is worse than walking the region.
        p = plan(store, "(objectClass=*)")
        assert p.is_scan
        assert p.estimate >= len(store)

    def test_missing_attribute_is_absent(self, store):
        p = plan(store, "(nosuchattr=x)")
        assert p.strategy == "absent"
        assert p.candidates == set()

    def test_substring_with_short_component_still_prunes(self, store):
        p = plan(store, "(cn=*p1*)")
        assert p.candidates is not None
        assert brute(store, "(cn=*p1*)") <= p.candidates

    @pytest.mark.parametrize(
        "text", ["(surname=aa)", "(sn=aa)", "(commonName=a)", "(cn=a)"]
    )
    def test_absent_is_sound_for_every_spelling(self, text):
        # An attribute stored under an alias has an index under its key;
        # a filter spelling it either way finds that index, never
        # "absent", and search answers what matches() says.
        master = DirectoryServer("master")
        master.add_naming_context("o=x")
        master.add(Entry("o=x", {"objectClass": ["organization"], "o": "x"}))
        master.add(
            Entry(
                "cn=a,o=x",
                {"objectClass": ["person"], "commonName": "a", "surname": "aa"},
            )
        )
        flt = parse_filter(text)
        assert master.store.plan_for(flt).strategy == "equality"
        found = master.search(SearchRequest("o=x", Scope.SUB, flt)).entries
        assert found == [e for e in master.store.all_entries() if matches(flt, e)]
        assert [str(e.dn) for e in found] == ["cn=a,o=x"]
        projected = master.search(
            SearchRequest("o=x", Scope.SUB, flt, attributes=["sn"])
        ).entries
        assert [list(e) for e in projected] == [[("sn", ["aa"])]]


class TestCostModel:
    def test_estimates_rank_conjuncts(self, store):
        planner = store._planner
        eq = planner._plan_predicate(parse_filter("(cn=p1)"))
        dept = planner._plan_predicate(parse_filter("(departmentNumber=2001)"))
        assert eq.estimate < dept.estimate

    def test_empty_intersection_short_circuits(self, store):
        # Two department posting lists are disjoint and both large
        # enough to be intersected (not skipped by INTERSECT_STOP).
        p = plan(store, "(&(departmentNumber=2001)(departmentNumber=2002))")
        assert p.candidates == set()

    def test_tiny_first_conjunct_stops_intersecting(self, store):
        # One candidate left: verifying it beats materializing another
        # posting list, so the planner stops (still a sound superset).
        p = plan(store, "(&(cn=p1)(departmentNumber=2001))")
        assert p.candidates == {DN.parse("cn=p1,ou=people,o=xyz")}


class TestNumericRangeRegression:
    """End-to-end regression for the lexicographic OrderingIndex bug.

    Ages run 5..44; under string ordering "9" >= "10" but 9 < 10, so the
    old index produced wrong-shaped candidate sets for numeric ranges
    (e.g. (age>=10) lost ages 100+ and kept single digits).
    """

    def test_numeric_range_search_results(self, server):
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(age>=40)")
        )
        ages = sorted(int(e.first("age")) for e in result.entries)
        assert ages == [40, 41, 42, 43, 44]

    def test_two_sided_range(self, server):
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(&(age>=9)(age<=11))")
        )
        assert sorted(int(e.first("age")) for e in result.entries) == [9, 10, 11]

    def test_lexicographic_shape_would_fail(self, server):
        # "9" > "10" lexicographically: a string-ordered index would
        # exclude the age-10 entry from (age<=9)'s complement checks.
        low = server.search(SearchRequest("o=xyz", Scope.SUB, "(age<=9)"))
        assert sorted(int(e.first("age")) for e in low.entries) == [5, 6, 7, 8, 9]


def cns(server, text) -> set:
    request = SearchRequest("o=xyz", Scope.SUB, text)
    return {e.first("cn") for e in server.search(request).entries}


class TestRangeAndOrAnswersTrackWrites:
    """A range or an OR plans a scan, so no index has to be kept up to
    date for it: every write the store takes shows in the next answer."""

    def test_range_answer_follows_a_modify(self, server):
        assert cns(server, "(age<=5)") == {"p0"}
        server.modify("cn=p0,ou=people,o=xyz", [Modification.replace("age", "50")])
        assert cns(server, "(age<=5)") == set()
        assert cns(server, "(age>=45)") == {"p0"}

    def test_range_answer_follows_a_delete_and_an_add(self, server):
        server.delete("cn=p39,ou=people,o=xyz")
        assert cns(server, "(age>=43)") == {"p38"}
        server.add(
            Entry("cn=q,ou=people,o=xyz", {"objectClass": ["person"], "cn": "q", "age": "100"})
        )
        assert cns(server, "(age>=43)") == {"p38", "q"}

    def test_a_non_numeric_integer_value_compares_as_a_string(self, server):
        # A schema-violating value is stored, and matching degrades to
        # string comparison for it: "unknown" > "10" as strings.
        server.add(
            Entry("cn=u,ou=people,o=xyz", {"objectClass": ["person"], "cn": "u", "age": "unknown"})
        )
        assert "u" in cns(server, "(age>=10)")
        assert "u" not in cns(server, "(age<=10)")

    def test_a_multi_valued_holder_matches_while_one_value_is_in_range(self, server):
        server.add(
            Entry(
                "cn=m,ou=people,o=xyz",
                {"objectClass": ["person"], "cn": "m", "sn": ["Alpha", "Gamma"]},
            )
        )
        assert "m" in cns(server, "(sn<=Beta)") and "m" in cns(server, "(sn>=Beta)")
        server.modify("cn=m,ou=people,o=xyz", [Modification.delete("sn", "alpha")])
        assert "m" not in cns(server, "(sn<=Beta)") and "m" in cns(server, "(sn>=Beta)")

    @pytest.mark.parametrize("holders, check_every", [(60, 1), (600, 25)])
    def test_range_answers_under_removal_of_one_widely_shared_value(
        self, holders, check_every
    ):
        """Many entries hold one age beside a few neighbours (one a
        schema violator) and are deleted in random order.  At every
        step of the small population, and at every 25th and each of the
        last 25 steps of the large one, the range answers equal plain
        integer comparisons over the survivors."""
        server = build_server(n=0)
        ages = {f"h{i}": "41" for i in range(holders)}
        ages.update({"n40": "40", "n42": "42", "oops": "oops", "n9": "9"})
        for cn, age in ages.items():
            server.add(
                Entry(f"cn={cn},ou=people,o=xyz", {"objectClass": ["person"], "cn": cn, "age": age})
            )
        order = sorted(ages)
        random.Random(41).shuffle(order)
        while order:
            cn = order.pop()
            server.delete(f"cn={cn},ou=people,o=xyz")
            del ages[cn]
            if len(ages) % check_every and len(ages) > 25:
                continue
            numbers = {cn: int(age) for cn, age in ages.items() if age != "oops"}
            for probe in (9, 40, 41, 42, 100):
                above = {cn for cn, n in numbers.items() if n >= probe}
                below = {cn for cn, n in numbers.items() if n <= probe}
                if "oops" in ages:  # "oops" > any digit string
                    above.add("oops")
                assert cns(server, f"(age>={probe})") == above
                assert cns(server, f"(age<={probe})") == below
        assert cns(server, "(age>=0)") == set()

    def test_or_answer_follows_writes(self, server):
        text = "(|(cn=p1)(departmentNumber=2003))"
        request = SearchRequest("o=xyz", Scope.SUB, text)
        dept_2003 = {f"p{i}" for i in range(3, 40, 4)}
        assert cns(server, text) == dept_2003 | {"p1"}
        server.modify("cn=p1,ou=people,o=xyz", [Modification.replace("departmentNumber", "2003")])
        server.modify("cn=p2,ou=people,o=xyz", [Modification.replace("departmentNumber", "2003")])
        server.delete("cn=p3,ou=people,o=xyz")
        assert cns(server, text) == (dept_2003 - {"p3"}) | {"p1", "p2"}
        found = {str(e.dn): e for e in server.search(request).entries}
        assert found == ReferenceModel.of(server).content(request)

    def test_and_with_range_conjuncts_narrows_by_its_equality(self, store):
        text = "(&(departmentNumber=2001)(age>=20)(age<=25))"
        p = plan(store, text)
        assert p.strategy == "equality"
        assert p.candidates == plan(store, "(departmentNumber=2001)").candidates
        assert brute(store, text) == {DN.parse("cn=p17,ou=people,o=xyz")}

    def test_range_and_or_searches_count_as_scans(self, server):
        server.search(SearchRequest("o=xyz", Scope.SUB, "(age>=40)"))
        server.search(SearchRequest("o=xyz", Scope.SUB, "(|(cn=p1)(cn=p2))"))
        metrics = server.metrics.to_dict()
        assert metrics['server.plan.strategy{strategy="scan"}'] == 2


class TestServerWiring:
    def test_plan_metrics_recorded(self, server):
        server.search(SearchRequest("o=xyz", Scope.SUB, "(cn=p1)"))
        server.search(SearchRequest("o=xyz", Scope.SUB, "(!(cn=p1))"))
        metrics = server.metrics.to_dict()
        assert metrics['server.plan.strategy{strategy="equality"}'] == 1
        assert metrics['server.plan.strategy{strategy="scan"}'] == 1
        assert metrics["server.plan.matched"] >= 1
        assert metrics["server.plan.examined"] >= metrics["server.plan.matched"]

    def test_range_scan_region_path(self, server):
        # Force the sorted-range intersection path for SUB candidate sets.
        server.RANGE_SCAN_THRESHOLD = 1
        result = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=2001)")
        )
        assert len(result.entries) == 10
        scoped = server.search(
            SearchRequest("ou=people,o=xyz", Scope.ONE, "(departmentNumber=2001)")
        )
        assert len(scoped.entries) == 10

    def test_search_results_identical_across_paths(self, server):
        narrow = build_server()
        narrow.RANGE_SCAN_THRESHOLD = 0
        for text in ("(departmentNumber=2002)", "(age>=12)", "(cn=*p3*)"):
            a = server.search(SearchRequest("o=xyz", Scope.SUB, text))
            b = narrow.search(SearchRequest("o=xyz", Scope.SUB, text))
            assert {str(e.dn) for e in a.entries} == {str(e.dn) for e in b.entries}


class TestSubtreeRangeIndex:
    def test_region_matches_walk(self, store):
        base = DN.parse("ou=people,o=xyz")
        region = store.subtree_region(base)
        walked, stack = set(), [base]
        while stack:  # the tree walk: children_of, depth first
            dn = stack.pop()
            walked.add(dn)
            stack.extend(store.children_of(dn))
        assert set(region) == walked
        assert region[0] == base  # parents sort first

    def test_region_survives_mutation(self, store):
        base = DN.parse("ou=people,o=xyz")
        before = len(store.subtree_region(base))
        store.delete(DN.parse("cn=p0,ou=people,o=xyz"))
        assert len(store.subtree_region(base)) == before - 1
        store.put(
            Entry(
                "cn=zz,ou=people,o=xyz",
                {"objectClass": ["person"], "cn": "zz", "sn": "Z"},
            )
        )
        assert len(store.subtree_region(base)) == before

    def test_sibling_prefix_not_included(self, store):
        # "ou=people" must not capture a sibling "ou=people2" subtree.
        store.put(
            Entry(
                "ou=people2,o=xyz",
                {"objectClass": ["organizationalUnit"], "ou": "people2"},
            )
        )
        store.put(
            Entry(
                "cn=q,ou=people2,o=xyz",
                {"objectClass": ["person"], "cn": "q", "sn": "Q"},
            )
        )
        region = set(store.subtree_region(DN.parse("ou=people,o=xyz")))
        assert DN.parse("cn=q,ou=people2,o=xyz") not in region
        assert DN.parse("ou=people2,o=xyz") not in region


class TestMixedWorkload:
    """The planner over a generated enterprise directory and a mixed
    three-shape filter workload (prefix substring, AND, equality — the
    shapes of Table 1's traffic): most searches run an index plan, and the entries
    examined stay far below what scanning the store per search would
    examine.  Both are counts, so they hold on any machine."""

    N_QUERIES = 600

    def requests(self, directory):
        def values(attr):
            return sorted({e.first(attr) for e in directory.entries if e.first(attr)})

        blocks = sorted({serial[:4] for serial in values("serialNumber")})[:40]
        depts = values("departmentNumber")
        for i in range(self.N_QUERIES):
            block, dept = blocks[i % len(blocks)], depts[i % len(depts)]
            yield SearchRequest(
                directory.suffix,
                Scope.SUB,
                [
                    f"(serialNumber={block}*)",
                    f"(&(objectClass=person)(serialNumber={block}*))",
                    f"(departmentNumber={dept})",
                ][i % 3],
            )

    def test_index_plans_dominate_and_prune(self):
        from repro.workload import DirectoryConfig, generate_directory

        directory = generate_directory(DirectoryConfig(employees=600, seed=20050607))
        master = DirectoryServer("master")
        master.add_naming_context(directory.suffix)
        master.load(directory.entries)
        for request in self.requests(directory):
            master.search(request)
        metrics = master.metrics.to_dict()
        scans = metrics.get('server.plan.strategy{strategy="scan"}', 0)
        assert scans < self.N_QUERIES * 0.5
        full_scans = self.N_QUERIES * len(master.store)
        assert metrics["server.plan.examined"] < full_scans * 0.25
        assert metrics["server.plan.matched"] > 0
