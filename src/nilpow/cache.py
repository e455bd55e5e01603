"""On-disk cache for computed subspaces.

Entries are JSON files keyed by a content hash of (format version, spec,
object id). Each degree's echelon rows are stored as lists of (ordinal,
coeff) pairs, in pivot order, written from the block's entries
(`_Block.entries`). Field elements serialize canonically: residues as
decimal integers, rationals as "num/den" in lowest terms. Each entry
stores the SHA-256 of its rows. Decoding turns the pairs into
(row, column, value) arrays, which `_Block.load` checks and writes into
each multidegree part's `[I | R]`: neither direction forms a dense
matrix. Corrupt or wrong-version entries behave as misses; so do entries
whose rows do not match their digest, are not canonical RREF as a block
writes it (pairs in ordinal order), have a row across two multidegrees
(the cached derived powers are multigraded) or unequal ranks in two parts
that a permutation of letters with equal nil exponents exchanges (the
derived powers are symmetric), which `subspace_from_payload` rejects. The
encoder writes each block's canonical rows (`_Block.canonical_entries`),
target parts included; the decoded level is symmetric, so a target part
reads its source's rows, and the entry's rows of it are checked but not
kept.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CorruptCacheEntry
from .linalg import Entries, Subspace
from .words import AlgebraSpec

CACHE_FORMAT_VERSION = "nilpow-cache-2"


def spec_key(spec: AlgebraSpec) -> dict:
    return {
        "m": spec.m,
        "nil": list(spec.nil),
        "field": str(spec.field),
        "max_degree": spec.max_degree,
    }


def cache_key(spec: AlgebraSpec, object_id: str) -> str:
    payload = json.dumps(
        {"version": CACHE_FORMAT_VERSION, "spec": spec_key(spec), "object": object_id},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _rows_digest(rows: dict) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def subspace_to_payload(s: Subspace) -> dict:
    fmt = s.spec.field.format_coeff
    rows = {}
    for d, r in s.dims():
        e = s.block(d).canonical_entries()
        pairs = [[o, fmt(c)] for o, c in zip(e.col.tolist(), e.val.tolist())]
        at = np.searchsorted(e.row, np.arange(r + 1)).tolist()  # where each row's pairs start
        rows[str(d)] = [pairs[lo:hi] for lo, hi in zip(at, at[1:])]
    return {"version": CACHE_FORMAT_VERSION, "rows": rows, "digest": _rows_digest(rows)}


def subspace_from_payload(spec: AlgebraSpec, payload: dict) -> Subspace:
    """Decode a payload into a multigraded, symmetric subspace, taking each
    degree's rows as they are; raises `CorruptCacheEntry` unless they match
    the stored digest, are in canonical RREF, are each multihomogeneous and
    have equal ranks in the parts of each orbit of the letter permutations."""
    s = Subspace(spec, symmetric=True)
    f = spec.field
    try:
        if payload["digest"] != _rows_digest(payload["rows"]):
            raise CorruptCacheEntry("rows do not match their digest")
        for d_str, rows in payload["rows"].items():
            d = int(d_str)
            if not 1 <= d <= spec.max_degree:
                raise CorruptCacheEntry(f"degree {d} outside 1..{spec.max_degree}")
            blk = s.block(d)
            pairs = [pair for row in rows for pair in row]
            ordinals = [o for o, _ in pairs]
            col = np.array(ordinals, dtype=np.int64)
            if set(map(type, ordinals)) - {int} or ((col < 0) | (col >= blk.dim)).any():
                raise CorruptCacheEntry(f"an ordinal of degree {d} is not in 0..{blk.dim - 1}")
            coeffs = [c for _, c in pairs]
            if f.p is None:
                val = np.array([f.parse_coeff(c) for c in coeffs], dtype=object)
            else:  # one conversion; a non-integer or one past int64 raises
                val = np.array(coeffs, dtype=np.int64) % f.p
                if val.shape != col.shape:  # a nested list
                    raise CorruptCacheEntry(f"a coefficient of degree {d} is not a number")
            row = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
            if not blk.load(Entries((len(rows), blk.dim), row, col, val)):
                raise CorruptCacheEntry(f"degree {d} rows are not in canonical echelon form")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CorruptCacheEntry(f"undecodable rows: {exc!r}") from exc
    return s


def cache_put(cache_dir: str | Path, key: str, payload: dict) -> None:
    d = Path(cache_dir)
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / f"{key}.tmp"
    tmp.write_text(json.dumps(payload, sort_keys=True))
    tmp.replace(d / f"{key}.json")


def cache_get(cache_dir: str | Path, key: str) -> Optional[dict]:
    path = Path(cache_dir) / f"{key}.json"
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
    if not isinstance(payload, dict) or payload.get("version") != CACHE_FORMAT_VERSION:
        return None
    return payload
