"""repro — Filter Based Directory Replication (ICDCS 2005), reproduced.

A self-contained Python implementation of Apurva Kumar's *Filter Based
Directory Replication: Algorithms and Performance*:

* :mod:`repro.ldap` — the LDAP v3 substrate (DNs, entries, filters,
  queries, controls, schema, LDIF);
* :mod:`repro.server` — simulated directory servers, partitioning,
  referral-chasing clients and a message-counting network;
* :mod:`repro.sync` — the ReSync filter-synchronization protocol (its
  provider, consumers and recovery ladder; the §5.2 comparison
  baselines live in ``tests/oracles``);
* :mod:`repro.core` — the paper's contribution: query/filter
  containment, LDAP templates, subtree and filter replicas, filter
  generalization, dynamic selection, recent-query caching;
* :mod:`repro.workload` — synthetic enterprise directory and Table 1
  workload generation;
* :mod:`repro.metrics` — the experiment harness driving the benches.

Quickstart::

    from repro.workload import generate_directory, WorkloadGenerator
    from repro.server import DirectoryServer
    from repro.sync import ResyncProvider
    from repro.core import FilterReplica
    from repro.ldap import SearchRequest, Scope

    directory = generate_directory()
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    provider = ResyncProvider(master)

    replica = FilterReplica("branch")
    replica.add_filter(
        SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)"), provider
    )
    answer = replica.answer(
        SearchRequest("", Scope.SUB, "(serialNumber=000105IN)")
    )
    assert answer.is_hit
"""

__version__ = "1.0.0"

__all__ = ["ldap", "server", "sync", "core", "workload", "metrics"]
