"""The sketch as it was first built: every hash fed part by part.

:mod:`repro.sync.reconcile` hashes pre-joined bytes in one call, takes
an item's checksum from the digest a frozen image remembers, and builds
each position from a per-partition prefix and a per-item suffix made
once.  :class:`ReferenceSketch` is the construction it replaced — a
``blake2b`` object fed one ``update()`` per part and separator, and an
item inserted by hashing its checksum and each of its positions anew —
kept so ``tests/sync/test_sketch_reference.py`` can hold every cell of
the production sketch, its inserts and its peel equal to this one.

A run charges a sketch its BER length without building it
(:meth:`EntrySketch.encoded_size <repro.sync.reconcile.EntrySketch.encoded_size>`,
arithmetic); :func:`encoded_bytes` builds the BER that length measures
(``tests/ldap/test_ber_sizes.py``: the two agree).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

from repro.ldap import Entry

from .ber import encode_integer, encode_sequence


def per_part_h64(*parts) -> int:
    """64-bit hash of *parts*: each part's string form, then ``\\x1f``,
    fed to the digest one ``update()`` at a time."""
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


def reference_digest(entry: Entry) -> Tuple[int, int]:
    """``(key, fingerprint)`` of *entry*, hashed part by part."""
    parts: List[str] = ["fp", str(entry.dn)]
    for key in sorted(entry.values_by_key()):
        parts.append(key)
        parts.extend(sorted(str(v) for v in entry.normalized_values(key)))
    return per_part_h64("key", str(entry.dn)), per_part_h64(*parts)


def _check(key: int, fp: int) -> int:
    return per_part_h64("chk", key, fp)


class ReferenceSketch:
    """An IBLT over ``(key, fp)`` items: ``hash_count`` equal partitions,
    one cell per partition at ``h64("pos", salt, i, key, fp) % width``."""

    def __init__(self, size: int, salt: int = 0, hash_count: int = 3):
        self.size = size - size % hash_count
        self.salt = salt
        self.hash_count = hash_count
        self.counts = [0] * self.size
        self.key_xor = [0] * self.size
        self.fp_xor = [0] * self.size
        self.check_xor = [0] * self.size

    def _positions(self, key: int, fp: int) -> List[int]:
        width = self.size // self.hash_count
        return [
            i * width + per_part_h64("pos", self.salt, i, key, fp) % width
            for i in range(self.hash_count)
        ]

    def insert(self, key: int, fp: int, sign: int = 1) -> None:
        check = _check(key, fp)
        for i in self._positions(key, fp):
            self.counts[i] += sign
            self.key_xor[i] ^= key
            self.fp_xor[i] ^= fp
            self.check_xor[i] ^= check

    def _pure(self, i: int) -> bool:
        return self.counts[i] in (1, -1) and self.check_xor[i] == _check(
            self.key_xor[i], self.fp_xor[i]
        )

    def decode(
        self,
    ) -> Optional[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
        """Peel pure cells into ``(positive, negative)``; None when the
        peel stalls or leaves residue.  Destructive."""
        positive: List[Tuple[int, int]] = []
        negative: List[Tuple[int, int]] = []
        stack = [i for i in range(self.size) if self._pure(i)]
        while stack:
            i = stack.pop()
            if not self._pure(i):
                continue
            sign = self.counts[i]
            key, fp = self.key_xor[i], self.fp_xor[i]
            (positive if sign > 0 else negative).append((key, fp))
            check = _check(key, fp)
            for j in self._positions(key, fp):
                self.counts[j] -= sign
                self.key_xor[j] ^= key
                self.fp_xor[j] ^= fp
                self.check_xor[j] ^= check
                if self._pure(j):
                    stack.append(j)
        if any(self.counts) or any(self.key_xor) or any(self.fp_xor) or any(self.check_xor):
            return None
        return positive, negative


def reference_sketch(
    entries, size: int, salt: int = 0, hash_count: int = 3
) -> ReferenceSketch:
    """``build_sketch`` as it was: each entry's digest inserted ``+1``."""
    sketch = ReferenceSketch(size, salt=salt, hash_count=hash_count)
    for entry in entries:
        sketch.insert(*reference_digest(entry))
    return sketch


def encoded_bytes(sketch) -> bytes:
    """The BER form of *sketch* (any object with ``size``, ``salt``,
    ``hash_count`` and the four cell arrays)::

        SEQUENCE { size INTEGER, salt INTEGER, hashCount INTEGER,
                   cells SEQUENCE OF SEQUENCE {
                       count, keyXor, fpXor, checkXor INTEGER } }
    """
    cells = b"".join(
        encode_sequence(
            encode_integer(sketch.counts[i]),
            encode_integer(sketch.key_xor[i]),
            encode_integer(sketch.fp_xor[i]),
            encode_integer(sketch.check_xor[i]),
        )
        for i in range(sketch.size)
    )
    return encode_sequence(
        encode_integer(sketch.size),
        encode_integer(sketch.salt),
        encode_integer(sketch.hash_count),
        encode_sequence(cells),
    )
