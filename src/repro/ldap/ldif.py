"""Minimal LDIF (LDAP Data Interchange Format, RFC 2849) support.

Used by the examples, by tests and by the consumer snapshot tier
(:mod:`repro.sync.snapshot`) to dump directory content in a
human-readable, diff-friendly form.  Supports the content subset
(``dn:`` + attribute lines, records separated by blank lines) with
base64 encoding of unsafe values.

Round-trip fidelity is load-bearing: a snapshot-restored replica that
silently differs from what was dumped would diverge *undetectably*
from the master.  The writer therefore base64-encodes any value the
parser could not reproduce byte-for-byte (leading/trailing whitespace,
leading ``:``/``<``, control or non-ASCII characters), and the parser
strips exactly the single separator space — never the value's own
whitespace.  The identity property ``parse_ldif(entries_to_ldif(es))
== es`` is enforced for arbitrary generated entries in
``tests/ldap/test_ldif.py``.

A record is rendered once per frozen image: :func:`entry_to_ldif` of a
committed image is computed on the first ask and remembered by the image
(:meth:`Entry.rendered <repro.ldap.entry.Entry.rendered>`), so repeated
dumps of an unchanged content render nothing; a mutable entry renders
afresh.  The safe-string test is one compiled match over printable
ASCII after its first- and last-character checks.
"""

from __future__ import annotations

import base64
import binascii
import re
from typing import Iterable, Iterator, List, TextIO, Tuple

from .entry import Entry

__all__ = ["entry_to_ldif", "entries_to_ldif", "parse_ldif", "write_ldif"]

#: RFC 2849 version-spec line — recognized (and skipped) at the head of
#: a file, so LDIF produced by foreign tools parses.
_VERSION_LINE = re.compile(r"version:\s*\d+\s*$")


#: Printable ASCII, the only characters a plain (non-base64) value may hold.
_PRINTABLE = re.compile(r"[\x20-\x7e]*")


def _is_safe(value: str) -> bool:
    """RFC 2849 SAFE-STRING test (conservative).

    Leading *and trailing* whitespace are unsafe: the parser strips one
    separator space after ``:``, so a value that starts with a space
    would lose it, and trailing spaces are invisible in the dump and
    commonly mangled by editors — both are forced through base64 so the
    round-trip is exact.
    """
    if value == "":
        return True
    if value[0] in {" ", ":", "<"}:
        return False
    if value[-1] == " ":
        return False
    return _PRINTABLE.fullmatch(value) is not None


def _attr_line(name: str, value: str) -> str:
    if _is_safe(value):
        return f"{name}: {value}"
    encoded = base64.b64encode(value.encode("utf-8")).decode("ascii")
    return f"{name}:: {encoded}"


def _render(entry: Entry) -> str:
    lines: List[str] = [_attr_line("dn", str(entry.dn))]
    for name, values in sorted(entry, key=lambda item: item[0].lower()):
        for value in values:
            lines.append(_attr_line(name, value))
    return "\n".join(lines)


def entry_to_ldif(entry: Entry) -> str:
    """Render one entry as an LDIF record (no trailing blank line).  A
    frozen image renders its record once and remembers it."""
    return entry.rendered(_render)


def entries_to_ldif(entries: Iterable[Entry]) -> str:
    """Render entries as LDIF, sorted by DN for deterministic diffs."""
    ordered = sorted(entries, key=lambda e: str(e.dn).lower())
    return "\n\n".join(entry_to_ldif(e) for e in ordered) + "\n"


def write_ldif(entries: Iterable[Entry], stream: TextIO) -> None:
    """Write entries to *stream* in LDIF form."""
    stream.write(entries_to_ldif(entries))


def parse_ldif(text: str) -> Iterator[Entry]:
    """Parse LDIF content records back into entries.

    Handles continuation lines (leading space), ``::`` base64 values,
    ``#`` comments and a leading RFC 2849 ``version: 1`` line (skipped).
    Raises :class:`ValueError` on records without a ``dn:`` line, on
    lines without a ``:`` separator, on undecodable base64 values and
    on unsupported ``name:< url`` references — always naming the
    offending line.
    """
    # Unfold continuation lines first.
    unfolded: List[str] = []
    for raw in text.splitlines():
        if raw.startswith(" ") and unfolded:
            unfolded[-1] += raw[1:]
        else:
            unfolded.append(raw)

    record: List[str] = []
    at_head = True  # before the first content line of the file
    for line in unfolded + [""]:
        stripped = line.rstrip("\n")
        if stripped.startswith("#"):
            continue
        if stripped == "":
            if record:
                yield _record_to_entry(record)
                record = []
            continue
        if at_head and _VERSION_LINE.match(stripped):
            at_head = False
            continue
        at_head = False
        record.append(stripped)


def _parse_attr_line(line: str) -> Tuple[str, str]:
    """Split one (unfolded) ``name: value`` line into its parts.

    The three RFC 2849 value forms are told apart by what follows the
    first ``:`` — a second ``:`` (base64), a ``<`` (URL reference,
    unsupported here) or a plain value, from which exactly one
    separator space is stripped.
    """
    name, sep, rest = line.partition(":")
    if not sep:
        raise ValueError(f"LDIF line without a ':' separator: {line!r}")
    name = name.strip()
    if name == "":
        raise ValueError(f"LDIF line without an attribute name: {line!r}")
    if rest.startswith(":"):
        data = rest[1:].strip()
        try:
            value = base64.b64decode(data, validate=True).decode("utf-8")
        except (binascii.Error, UnicodeDecodeError) as exc:
            raise ValueError(
                f"undecodable base64 value in LDIF line {line!r}: {exc}"
            ) from None
        return name, value
    if rest.startswith("<"):
        raise ValueError(f"URL-valued LDIF lines are not supported: {line!r}")
    # Exactly one separator space — the rest of the value, including any
    # further leading/trailing whitespace, belongs to the value itself
    # (though the writer base64-encodes such values; see _is_safe).
    return name, rest[1:] if rest.startswith(" ") else rest


def _record_to_entry(lines: List[str]) -> Entry:
    dn_value = None
    attrs: List[tuple] = []
    for line in lines:
        name, value = _parse_attr_line(line)
        if name.lower() == "dn":
            dn_value = value
        else:
            attrs.append((name, value))
    if dn_value is None:
        raise ValueError(f"LDIF record without dn line: {lines!r}")
    entry = Entry(dn_value)
    # Every spelling of one attribute into one list, in record order,
    # verbatim.  add_values() would drop values that are
    # *matching-equivalent* to an earlier one (DIRECTORY_STRING
    # collapses whitespace, so "a b" and "a  b" normalize alike) and
    # break the byte-exact round trip the snapshot tier depends on.
    for name, value in attrs:
        entry.append_values(name, value)
    return entry
