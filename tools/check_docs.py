#!/usr/bin/env python3
"""Docs-consistency checks (CI `lint` job, alongside ruff).

Five classes of drift this catches (the first two have bitten this repo's docs
before they were checked):

1. **Dead intra-repo links** — every relative markdown link in every
   tracked ``*.md`` must resolve to a file or directory in the tree.
   External (``http://``, ``https://``, ``mailto:``) and pure-anchor
   (``#...``) links are out of scope.
2. **Phantom instruments** — every metric and span name listed in the
   docs/OBSERVABILITY.md naming table (§2) must still exist in
   ``src/``.  Names are usually literal at their creation site
   (``registry.counter("sync.reconcile.attempts")``); a few families
   are constructed (``net.traffic.<field>``), so a name also passes
   when both its family prefix (``net.traffic.``) and its leaf
   (``round_trips``) occur in the sources.  Templated rows
   (``server.op.<op>``) are checked by family alone.

3. **Journal record kinds** — the record table of docs/PROTOCOL.md
   §10.1 must name exactly the kinds ``ResyncProvider.FOLDS`` folds
   (the one place ``src/`` decodes the journal): a kind added to one
   and not the other is a record nobody replays, or documents.

4. **Decision tables** — docs/RECOVERY.md's decision table must be the
   ``LADDER`` dict of ``repro.sync.ladder``, docs/FAULTS.md §4's
   position × event table the ``HEALTH`` dict of ``repro.sync.health``,
   docs/FAULTS.md §2 (stream → kinds) and §3 (kind → stream, cells)
   the ``FAULTS`` dict of ``repro.server.faults``, and docs/PROTOCOL.md
   §3's outcome table the ``OUTCOMES`` dict of ``repro.sync.session``,
   and docs/ALGORITHMS.md §1's key table the attributes the default
   attribute registry marks ``unique`` (syntax and spellings), key for
   key and outcome for outcome: "which rung", "which state", "which
   fault reaches which exchange", "which PDUs an update sends a
   session" and "which attributes the master keeps unique" are data,
   and the docs render it.

5. **Experiment ids** — every ``benchmarks/bench_*.py`` declares the
   experiment ids it holds at the head of its docstring (``E20 —
   ...``; a module holding several lists them, ``E17, E18 — ...``),
   no id is declared twice, and DESIGN.md
   §3's per-experiment table has one row per declared id, every bench
   file in some row, and every file a row names present in the tree
   (a ``path::test`` target must also define that test).

Run from the repository root::

    python tools/check_docs.py

Exits 0 when clean, 1 with a per-finding report otherwise.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
OBSERVABILITY = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")
PROTOCOL = os.path.join(REPO_ROOT, "docs", "PROTOCOL.md")
RECOVERY = os.path.join(REPO_ROOT, "docs", "RECOVERY.md")
FAULTS = os.path.join(REPO_ROOT, "docs", "FAULTS.md")
DESIGN = os.path.join(REPO_ROOT, "DESIGN.md")
ALGORITHMS = os.path.join(REPO_ROOT, "docs", "ALGORITHMS.md")
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

SKIP_DIRS = {
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "__pycache__",
    ".ruff_cache",
    "node_modules",
}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A naming-table row: ``| `some.metric.name` | ...``
NAME_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_.<>]+)`\s*\|")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: A backticked name in a table cell, a stream suffix's colon dropped.
TICKED_RE = re.compile(r"`:?(\w+)`")
#: A bench module's headline: the experiment ids it holds, then " — ".
HEADLINE_RE = re.compile(r'^"""(E\d+(?:, E\d+)*) — ')
#: A file a DESIGN.md §3 row names, with an optional ``::test``.
TARGET_RE = re.compile(r"`([\w/.]+\.py)(?:::(\w+))?`")


def markdown_files() -> list:
    found = []
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def source_texts() -> list:
    texts = []
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
    return texts


def check_links(md_files: list) -> list:
    problems = []
    for path in md_files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # Fenced code blocks routinely contain example "links" — skip them.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        rel = os.path.relpath(path, REPO_ROOT)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path)
            )
            if not os.path.exists(resolved):
                problems.append(f"{rel}: dead link -> {target}")
    return problems


def documented_names() -> list:
    """Metric and span names from the OBSERVABILITY.md naming tables."""
    names = []
    with open(OBSERVABILITY, encoding="utf-8") as fh:
        for line in fh:
            match = NAME_ROW_RE.match(line.strip())
            if match and "." in match.group(1):
                names.append(match.group(1))
    return names


def check_instruments(sources: list) -> list:
    problems = []
    names = documented_names()
    if not names:
        return ["docs/OBSERVABILITY.md: no instrument names parsed — "
                "has the naming-table format changed?"]
    for name in names:
        family, _, leaf = name.rpartition(".")
        templated = "<" in name
        if not templated and any(name in text for text in sources):
            continue
        family_found = any(family + "." in text for text in sources)
        if templated:
            if family_found:
                continue
            problems.append(
                f"docs/OBSERVABILITY.md: templated instrument `{name}`: "
                f"family `{family}.` not found in src/"
            )
            continue
        leaf_found = any(leaf in text for text in sources)
        if family_found and leaf_found:
            continue
        problems.append(
            f"docs/OBSERVABILITY.md: instrument `{name}` not found in src/ "
            f"(neither literally nor as family `{family}.` + leaf `{leaf}`)"
        )
    return problems


def documented_record_kinds() -> set:
    """First-column names of the docs/PROTOCOL.md §10.1 record table."""
    with open(PROTOCOL, encoding="utf-8") as fh:
        text = fh.read()
    start = text.find("### 10.1")
    end = text.find("### 10.2")
    if start < 0 or end < start:
        return set()
    return set(re.findall(r"^\|\s*`([a-z_]+)`\s*\|", text[start:end], flags=re.MULTILINE))


def check_journal_kinds() -> list:
    sys.path.insert(0, SRC_ROOT)
    from repro.sync.resync import ResyncProvider

    documented = documented_record_kinds()
    folded = set(ResyncProvider.FOLDS)
    if documented == folded:
        return []
    return [
        "docs/PROTOCOL.md §10.1: record table and ResyncProvider.FOLDS differ — "
        f"documented only: {sorted(documented - folded)}, "
        f"folded only: {sorted(folded - documented)}"
    ]


def table_rows(path: str, first_header: str) -> list:
    """Cell lists, header row first, of the markdown table in *path*
    whose header row starts with *first_header*."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for at, line in enumerate(lines):
        if line.startswith(f"| {first_header} |") and lines[at + 1].startswith("|---"):
            block = [line]
            for row in lines[at + 2:]:
                if not row.startswith("|"):
                    break
                block.append(row)
            return [[cell.strip() for cell in row.strip("|").split("|")] for row in block]
    return []


def documented_ladder() -> dict:
    """docs/RECOVERY.md's decision table as ``{(cookie carried, content
    warm): tiers}``."""
    rows = table_rows(RECOVERY, "request carried a cookie")
    return {
        tuple(cell == "yes" for cell in row[:2]): tuple(re.findall(r"`(\w+)`", row[2]))
        for row in rows[1:]
    }


def documented_health() -> dict:
    """docs/FAULTS.md §4's position × event table as ``{(position,
    event): next position}``; a ``·`` cell is no move."""
    rows = table_rows(FAULTS, "position | `gate`")
    if not rows:
        return {}
    events = [cell.strip("`") for cell in rows[0][1:]]
    return {
        (row[0].strip("`"), event): cell.strip("`")
        for row in rows[1:]
        for event, cell in zip(events, row[1:])
        if cell != "·"
    }


def documented_faults() -> dict:
    """docs/FAULTS.md §3's kind table as ``{kind: (stream, cells)}``; a
    row naming several kinds gives each of them its stream and cells."""
    return {
        kind: (TICKED_RE.findall(row[1])[0], tuple(TICKED_RE.findall(row[2])))
        for row in table_rows(FAULTS, "kind | stream")[1:]
        for kind in TICKED_RE.findall(row[0])
    }


def documented_streams() -> dict:
    """docs/FAULTS.md §2's stream table as ``{stream: kinds it draws}``."""
    return {
        TICKED_RE.findall(row[1])[0]: tuple(TICKED_RE.findall(row[2]))
        for row in table_rows(FAULTS, "stream | suffix")[1:]
    }


def documented_outcomes() -> dict:
    """docs/PROTOCOL.md §3's outcome table as ``{(bool, bool, bool):
    PDU kinds}``; a ``—`` cell is nothing sent."""
    rows = table_rows(PROTOCOL, "in content before")
    return {
        tuple(cell == "yes" for cell in row[:3]): tuple(re.findall(r"`([\w-]+)`", row[3]))
        for row in rows[1:]
    }


def documented_keys() -> dict:
    """docs/ALGORITHMS.md §1's key table as ``{key: (syntax, spellings)}``."""
    return {
        TICKED_RE.findall(row[0])[0]: (
            TICKED_RE.findall(row[1])[0],
            tuple(TICKED_RE.findall(row[2])),
        )
        for row in table_rows(ALGORITHMS, "unique attribute")[1:]
    }


def schema_keys() -> dict:
    """The default registry's unique attributes, as :func:`documented_keys`."""
    sys.path.insert(0, SRC_ROOT)
    from repro.ldap.attributes import DEFAULT_REGISTRY

    types = (DEFAULT_REGISTRY.get(key) for key in sorted(DEFAULT_REGISTRY.unique_keys()))
    return {t.key: (t.syntax.value, (t.name,) + t.aliases) for t in types}


def check_decision_tables() -> list:
    sys.path.insert(0, SRC_ROOT)
    from repro.server.faults import FAULTS as fault_table, STREAMS
    from repro.sync.health import HEALTH
    from repro.sync.ladder import LADDER
    from repro.sync.session import OUTCOMES

    problems = []
    for where, documented, table in (
        ("docs/RECOVERY.md decision table and repro.sync.ladder.LADDER",
         documented_ladder(), LADDER),
        ("docs/FAULTS.md §4 position × event table and repro.sync.health.HEALTH",
         documented_health(), HEALTH),
        ("docs/FAULTS.md §3 kind table and repro.server.faults.FAULTS",
         documented_faults(), fault_table),
        ("docs/FAULTS.md §2 stream table and the streams of repro.server.faults.FAULTS",
         documented_streams(), STREAMS),
        ("docs/PROTOCOL.md §3 outcome table and repro.sync.session.OUTCOMES",
         documented_outcomes(), OUTCOMES),
        ("docs/ALGORITHMS.md §1 key table and the unique attributes of DEFAULT_REGISTRY",
         documented_keys(), schema_keys()),
    ):
        differing = sorted(
            str(key)
            for key in set(documented) | set(table)
            if documented.get(key) != table.get(key)
        )
        if differing:
            problems.append(f"{where} differ at {', '.join(differing)}")
    return problems


def bench_ids() -> dict:
    """``{benchmarks/bench_*.py: [ids its docstring headline declares]}``."""
    ids = {}
    for name in sorted(os.listdir(BENCH_DIR)):
        if name.startswith("bench_") and name.endswith(".py"):
            with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as fh:
                match = HEADLINE_RE.match(fh.readline())
            ids[f"benchmarks/{name}"] = match.group(1).split(", ") if match else []
    return ids


def check_experiment_ids() -> list:
    problems = []
    declared = bench_ids()
    owner = {}
    for path, ids in declared.items():
        if not ids:
            problems.append(f"{path}: docstring headline declares no experiment id")
        for exp in ids:
            if exp in owner:
                problems.append(f"experiment id {exp} declared by {owner[exp]} and {path}")
            owner.setdefault(exp, path)
    rows = {}
    listed = set()
    for row in table_rows(DESIGN, "Exp")[1:]:
        exp = row[0]
        if exp in rows:
            problems.append(f"DESIGN.md §3: two rows for {exp}")
        rows[exp] = row
        for path, test in TARGET_RE.findall(row[-1]):
            full = os.path.join(REPO_ROOT, path)
            if not os.path.isfile(full):
                problems.append(f"DESIGN.md §3 {exp}: {path} does not exist")
                continue
            if test:
                with open(full, encoding="utf-8") as fh:
                    if f"def {test}(" not in fh.read():
                        problems.append(f"DESIGN.md §3 {exp}: {path} defines no {test}")
            if path in declared:
                listed.add(path)
                if exp not in declared[path]:
                    problems.append(f"DESIGN.md §3 {exp}: {path} does not declare {exp}")
    problems += [f"{path}: in no DESIGN.md §3 row" for path in sorted(set(declared) - listed)]
    problems += [
        f"{exp} ({owner[exp]}): no DESIGN.md §3 row" for exp in sorted(set(owner) - set(rows))
    ]
    return problems


def main() -> int:
    md_files = markdown_files()
    sources = source_texts()
    problems = (
        check_links(md_files)
        + check_instruments(sources)
        + check_journal_kinds()
        + check_decision_tables()
        + check_experiment_ids()
    )
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        print(f"\n{len(problems)} docs-consistency problem(s)")
        return 1
    names = len(documented_names())
    print(
        f"ok: {len(md_files)} markdown files link-clean, "
        f"{names} documented instruments present in src/, "
        f"{len(documented_record_kinds())} journal record kinds match the fold, "
        f"{len(documented_ladder())} ladder cells, "
        f"{len(documented_health())} health moves, "
        f"{len(documented_faults())} fault kinds, "
        f"{len(documented_streams())} seed streams and "
        f"{len(documented_outcomes())} update outcomes and "
        f"{len(documented_keys())} unique attributes match their tables; "
        f"{len(bench_ids())} benches declare unique experiment ids, all in DESIGN.md §3"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
