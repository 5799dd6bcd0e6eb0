"""Sketch-based anti-entropy reconciliation (recovery tier 2).

When a provider refuses the cookie of a consumer that still holds
content, the paper's answer is a full content rebuild — O(content)
traffic for what is usually an O(delta) divergence.  Following the
set-reconciliation construction of *Directory Reconciliation*
(Mitzenmacher & Morgan, PAPERS.md), this module recovers the symmetric
difference between the master's content and the replica's from an
**invertible sketch** whose wire size tracks the divergence, not the
directory:

* every entry is reduced to a 64-bit DN key (:func:`entry_key`) plus a
  64-bit content fingerprint (:func:`entry_fingerprint`) over its
  normalized attributes, and the pair to a 64-bit checksum — the triple
  is :func:`entry_digest`, which a frozen entry image computes once, so
  a sketch pays only its ``hash_count`` position hashes per item;
* an :class:`EntrySketch` is a fixed array of cells, each holding a
  signed count and the XORs of the keys, fingerprints and per-item
  checksums hashed into it (an IBLT); each item lands in one cell of
  each of ``hash_count`` equal partitions, so its positions are
  distinct by construction;
* subtracting the replica's sketch from the master's leaves a sketch of
  the symmetric difference alone, decodable by peeling **pure** cells
  (count ±1 with a matching checksum) as long as the difference is
  small enough for the cell count — ``+1`` items exist only at the
  master (fetch them), ``-1`` items only at the replica (modified or
  deleted there);
* decode is *verified*: it succeeds only if peeling empties the sketch,
  and every peeled item carries a checksum over (key, fingerprint), so
  a corrupted or undersized sketch yields a detected failure — the
  caller doubles the cell count and retries (bounded by
  :data:`~repro.sync.ladder.MAX_CELLS`), never applies garbage.

The orchestration (who asks for a sketch when, how failures ladder into
a full rebuild) lives in :mod:`repro.sync.ladder` (``LADDER``,
:class:`~repro.sync.ladder.SketchTier`); the provider-side scan in
:meth:`~repro.sync.resync.ResyncProvider.reconcile`.  Wire framing is
specified in docs/PROTOCOL.md §11 and docs/RECOVERY.md tier 2.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2b
from typing import Iterable, List, Optional, Tuple

from ..ldap.ber import integer_size, tlv_size
from ..ldap.dn import DN
from ..ldap.entry import Entry

__all__ = [
    "EntrySketch",
    "entry_key",
    "entry_fingerprint",
    "entry_digest",
    "build_sketch",
    "cells_for_divergence",
    "corrupt_cell",
]

def _hash(data: bytes) -> int:
    """64-bit blake2b of *data*: every hash of this module is one call."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def _h64(*parts) -> int:
    """64-bit hash of the string forms of *parts*, each ended by ``\\x1f``."""
    return _hash(("\x1f".join(map(str, parts)) + "\x1f").encode("utf-8"))


def _item(key: int, fp: int) -> bytes:
    """The bytes an item ``(key, fp)`` ends every position hash with."""
    return f"{key}\x1f{fp}\x1f".encode("utf-8")


def entry_key(dn: DN) -> int:
    """64-bit identity of a DN — the unit the fetch phase addresses."""
    return _h64("key", str(dn))


def entry_fingerprint(entry: Entry) -> int:
    """64-bit digest of an entry's DN plus normalized attributes.

    Two entries that are :meth:`~repro.ldap.entry.Entry.semantically_equal`
    fingerprint identically, and only those do (every attribute held,
    under its key; values normalized and order-independent), so a
    replica's copy cancels the master's sketch item exactly when it is a
    semantically equal one.
    """
    parts: List[str] = ["fp", str(entry.dn)]
    for key in sorted(entry.values_by_key()):
        parts.append(key)
        parts.extend(sorted(str(v) for v in entry.normalized_values(key)))
    return _h64(*parts)


def _digest(entry: Entry) -> Tuple[int, int, int]:
    key, fp = entry_key(entry.dn), entry_fingerprint(entry)
    return key, fp, _check(key, fp)


def entry_digest(entry: Entry) -> Tuple[int, int, int]:
    """``(key, fingerprint, checksum)`` — the item an entry is in a
    sketch: :func:`entry_key` of its DN, :func:`entry_fingerprint` and
    the checksum of the two.  A frozen image remembers it
    (:meth:`~repro.ldap.entry.Entry.derived`): master, provider and
    every consumer share one image per version (DESIGN.md §8), so each
    version is hashed once, not once per sketch per side."""
    return entry.derived(_digest)


def _check(key: int, fp: int) -> int:
    """Per-item checksum guarding pure-cell detection during peeling."""
    return _h64("chk", key, fp)


def cells_for_divergence(divergence: int, hash_count: int = 3, floor: int = 24) -> int:
    """Cell count for an estimated symmetric difference of *divergence*.

    Peeling an IBLT with ``hash_count`` ≥ 3 succeeds with high
    probability above ~1.3 cells per item; 2× leaves margin for an
    estimate that is only a hint.  Rounded up to a multiple of
    *hash_count* so the partitions divide evenly.
    """
    need = max(floor, 2 * max(1, divergence))
    return ((need + hash_count - 1) // hash_count) * hash_count


@lru_cache(maxsize=None)
def loaded_sketch_bytes(cells: int, hash_count: int = 3) -> int:
    """Wire bytes of a *cells*-cell sketch whose every cell is loaded
    (count 1, every XOR a full 64 bits): the most such a sketch costs,
    measured on :meth:`EntrySketch.encoded_size` itself."""
    sketch = EntrySketch(cells, hash_count=hash_count)
    full = (1 << 64) - 1
    sketch.counts = [1] * sketch.size
    sketch.key_xor = sketch.fp_xor = sketch.check_xor = [full] * sketch.size
    return sketch.encoded_size()


class EntrySketch:
    """An invertible (IBLT-style) sketch of a set of entry digests.

    ``size`` cells split into ``hash_count`` equal partitions; an item
    ``(key, fp)`` occupies exactly one cell per partition, positioned by
    a salted hash.  Cells hold ``(count, key_xor, fp_xor, check_xor)``.
    Two sketches built with identical ``(size, salt, hash_count)`` are
    compatible for :meth:`subtract`.

    Partition ``i`` places an item at ``h64("pos", salt, i, key, fp)``
    modulo its width.  The hashed bytes are a per-partition prefix
    (``pos␟salt␟i␟``, made once per sketch) followed by the item's own
    ``key␟fp␟`` (:func:`_item`, made once per item), so a position costs
    one digest.
    """

    def __init__(self, size: int, salt: int = 0, hash_count: int = 3):
        if hash_count < 2:
            raise ValueError("hash_count must be >= 2")
        if size < hash_count:
            raise ValueError("size must be >= hash_count")
        self.size = size - size % hash_count  # partitions divide evenly
        self.salt = salt
        self.hash_count = hash_count
        self.counts = [0] * self.size
        self.key_xor = [0] * self.size
        self.fp_xor = [0] * self.size
        self.check_xor = [0] * self.size
        self._width = width = self.size // hash_count
        self._partitions = [
            (i * width, f"pos\x1f{salt!s}\x1f{i}\x1f".encode("utf-8"))
            for i in range(hash_count)
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _positions(self, item: bytes) -> List[int]:
        """The cell of each partition for the item whose bytes are *item*
        (:func:`_item`)."""
        width = self._width
        return [base + _hash(prefix + item) % width for base, prefix in self._partitions]

    def _fold(self, key: int, fp: int, check: int, sign: int) -> List[int]:
        """Add the item ``(key, fp)``, whose checksum is *check*, *sign*
        times to its cells and return them — the one fold of
        :func:`build_sketch` (``+1``) and the peel (``-count``)."""
        cells = self._positions(_item(key, fp))
        for i in cells:
            self.counts[i] += sign
            self.key_xor[i] ^= key
            self.fp_xor[i] ^= fp
            self.check_xor[i] ^= check
        return cells

    def subtract(self, other: "EntrySketch") -> "EntrySketch":
        """Cell-wise difference ``self - other``; both sketches must
        share size, salt and hash count (enforced)."""
        if (self.size, self.salt, self.hash_count) != (
            other.size,
            other.salt,
            other.hash_count,
        ):
            raise ValueError("sketches are not compatible for subtraction")
        diff = EntrySketch(self.size, self.salt, self.hash_count)
        for i in range(self.size):
            diff.counts[i] = self.counts[i] - other.counts[i]
            diff.key_xor[i] = self.key_xor[i] ^ other.key_xor[i]
            diff.fp_xor[i] = self.fp_xor[i] ^ other.fp_xor[i]
            diff.check_xor[i] = self.check_xor[i] ^ other.check_xor[i]
        return diff

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _pure(self, i: int) -> bool:
        return self.counts[i] in (1, -1) and self.check_xor[i] == _check(
            self.key_xor[i], self.fp_xor[i]
        )

    def decode(
        self,
    ) -> Optional[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
        """Peel the sketch into ``(positive, negative)`` item lists.

        For a difference sketch (master minus replica), positive items
        exist only at the master and negative items only at the replica.
        Returns None when peeling stalls or leaves residue — an
        undersized or corrupted sketch — in which case nothing decoded
        here may be trusted.  Destructive: decode on a copy-free basis
        is fine because callers only decode difference sketches they
        own.
        """
        positive: List[Tuple[int, int]] = []
        negative: List[Tuple[int, int]] = []
        stack = [i for i in range(self.size) if self._pure(i)]
        while stack:
            i = stack.pop()
            if not self._pure(i):
                continue  # became impure (or zero) since it was queued
            sign = self.counts[i]
            key, fp = self.key_xor[i], self.fp_xor[i]
            (positive if sign > 0 else negative).append((key, fp))
            # A pure cell's checksum is its item's.
            for j in self._fold(key, fp, self.check_xor[i], -sign):
                if self._pure(j):
                    stack.append(j)
        if (
            any(self.counts)
            or any(self.key_xor)
            or any(self.fp_xor)
            or any(self.check_xor)
        ):
            return None
        return positive, negative

    # ------------------------------------------------------------------
    # wire size
    # ------------------------------------------------------------------
    def encoded_size(self) -> int:
        """Wire bytes of the sketch's BER form, charged to the network's
        ``bytes_sent`` by the reconcile exchange::

            SEQUENCE { size INTEGER, salt INTEGER, hashCount INTEGER,
                       cells SEQUENCE OF SEQUENCE {
                           count, keyXor, fpXor, checkXor INTEGER } }

        by length arithmetic: each INTEGER's length comes from its bit
        length (:func:`repro.ldap.ber.integer_size`)."""
        cells = 0
        for cell in zip(self.counts, self.key_xor, self.fp_xor, self.check_xor):
            cells += tlv_size(sum(map(integer_size, cell)))
        params = integer_size(self.size) + integer_size(self.salt) + integer_size(self.hash_count)
        return tlv_size(params + tlv_size(cells))


def build_sketch(
    entries: Iterable[Entry], size: int, salt: int = 0, hash_count: int = 3
) -> EntrySketch:
    """Sketch the digest set of *entries* (every item inserted ``+1``).

    Each item's checksum comes with its digest, so an image a sketch
    has seen before costs ``hash_count`` digests here and nothing else."""
    sketch = EntrySketch(size, salt=salt, hash_count=hash_count)
    for entry in entries:
        sketch._fold(*entry_digest(entry), 1)
    return sketch


def corrupt_cell(sketch: EntrySketch, position: float) -> int:
    """Deterministically damage one cell of *sketch* (fault injection).

    *position* in ``[0, 1)`` selects the cell; its fingerprint XOR is
    flipped so peeling either stalls on it or unmasks the damage through
    the checksum — a decode failure, never silent garbage.  Returns the
    damaged cell index.
    """
    i = min(int(position * sketch.size), sketch.size - 1)
    sketch.fp_xor[i] ^= _h64("corrupt", sketch.salt, i) or 1
    return i
