"""The paper's contribution: containment, templates, replicas, selection.

* :mod:`repro.core.containment` / :mod:`repro.core.filter_containment` —
  the ``QC`` algorithm and Propositions 1–3 (§4);
* :mod:`repro.core.templates` — LDAP templates (§3.4.2);
* :mod:`repro.core.subtree_replica` — the baseline model (§3.4.1);
* :mod:`repro.core.filter_replica` — filter based replication (§3, §7);
* :mod:`repro.core.generalization` / :mod:`repro.core.selection` —
  replica content determination (§6);
* :mod:`repro.core.query_cache` — recent-user-query window (§7.4) and
  the exact-key negative result cache of the stored-filter scan;
* :mod:`repro.core.routing` — sublinear candidate routing for the
  containment scans (docs/ROUTING.md), the only answering path; the
  linear reference scans live in ``tests/oracles``.
"""

from .containment import (
    attributes_contained_in,
    query_contained_in,
    region_contained_in,
)
from .filter_containment import (
    filter_contained_in,
    general_contained_in,
    predicate_contained_in,
    prefix_upper_bound,
)
from .filter_replica import FilterReplica, StoredFilter
from .frontend import ReplicaFrontend
from .generalization import (
    Generalizer,
    HierarchyGeneralization,
    IdentityGeneralization,
    PrefixGeneralization,
    PrefixSuffixGeneralization,
    SuffixGeneralization,
)
from .query_cache import CachedQuery, NegativeResultCache, RecentQueryCache
from .replica import AnswerStatus, HitStats, ReplicaAnswer
from .routing import ContainmentIndex
from .selection import CandidateStats, FilterSelector, SelectionReport
from .subtree_replica import ReplicationContext, SubtreeReplica
from .templates import Template, TemplateRegistry, template_key

__all__ = [
    "query_contained_in",
    "region_contained_in",
    "attributes_contained_in",
    "filter_contained_in",
    "general_contained_in",
    "predicate_contained_in",
    "prefix_upper_bound",
    "Template",
    "TemplateRegistry",
    "template_key",
    "AnswerStatus",
    "ReplicaAnswer",
    "HitStats",
    "SubtreeReplica",
    "ReplicationContext",
    "FilterReplica",
    "StoredFilter",
    "ReplicaFrontend",
    "RecentQueryCache",
    "CachedQuery",
    "NegativeResultCache",
    "ContainmentIndex",
    "Generalizer",
    "IdentityGeneralization",
    "PrefixGeneralization",
    "PrefixSuffixGeneralization",
    "SuffixGeneralization",
    "HierarchyGeneralization",
    "FilterSelector",
    "CandidateStats",
    "SelectionReport",
]
