"""On-disk cache for computed subspaces.

Entries are JSON files keyed by a content hash of (format version, spec,
object id). A cached subspace is a derived power, which the permutations of
letters with equal nil exponents keep, and decodes as a symmetric one: its
target parts (`words.letter_orbits`) read their source's rows. So each
degree stores only the rows of `_Block.entries` whose pivot lies outside
the target parts, canonical RREF as they are, in pivot order, as three flat
lists: row lengths, ordinals and coefficients (residues as integers,
rationals as "num/den" in lowest terms). Each entry stores the SHA-256 of
its rows. Decoding turns the lists into (row, column, value) arrays, which
`_Block.load` checks and writes into each multidegree part's `[I | R]`:
neither direction forms a dense matrix. Corrupt or wrong-version entries
are misses; so are entries that `subspace_from_payload` rejects: rows that
do not match their digest, a non-integer where an integer belongs, rows not
canonical RREF as a block writes them or across two multidegrees. An entry
that cannot be written is skipped with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CorruptCacheEntry
from .linalg import Entries, Subspace
from .words import AlgebraSpec, letter_orbits, multidegree_parts

CACHE_FORMAT_VERSION = "nilpow-cache-3"


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
    """The payload of s, a space that the letter permutations keep."""
    f = s.spec.field
    rows = {}
    for d, _ in s.dims():
        e = s.block(d).entries()
        start = np.flatnonzero(np.diff(e.row, prepend=-1))  # each row's first entry, its pivot
        orbits = letter_orbits(s.spec, d)
        target = orbits.target if orbits is not None else []
        keep = ~np.isin(multidegree_parts(s.spec, d)[0][e.col[start]], target)
        col, val = e.col[keep[e.row]], e.val[keep[e.row]]
        coeffs = val.tolist() if f.p is not None else [f.format_coeff(c) for c in val]
        rows[str(d)] = [np.diff(start, append=e.row.size)[keep].tolist(), col.tolist(), coeffs]
    return {"version": CACHE_FORMAT_VERSION, "rows": rows, "digest": _rows_digest(rows)}


def _ints(values, what: str) -> np.ndarray:
    """A flat list of integers as int64; a float must not truncate."""
    a = np.array(values)
    if a.ndim != 1 or (a.size and a.dtype.kind != "i"):
        raise CorruptCacheEntry(f"{what} is not an integer")
    return a.astype(np.int64, copy=False)


def subspace_from_payload(spec: AlgebraSpec, payload: dict) -> Subspace:
    """Decode a payload into a multigraded, symmetric subspace, taking each
    degree's rows as they are; raises `CorruptCacheEntry` unless they match
    the stored digest, are in canonical RREF and are each multihomogeneous."""
    s = Subspace(spec, symmetric=True)
    f = spec.field
    try:
        if payload["digest"] != _rows_digest(payload["rows"]):
            raise CorruptCacheEntry("rows do not match their digest")
        for d_str, (lengths, ordinals, coeffs) in payload["rows"].items():
            d = int(d_str)
            if not 1 <= d <= spec.max_degree:
                raise CorruptCacheEntry(f"degree {d} outside 1..{spec.max_degree}")
            blk = s.block(d)
            lengths = _ints(lengths, f"a row length of degree {d}")
            col = _ints(ordinals, f"an ordinal of degree {d}")
            if ((col < 0) | (col >= blk.dim)).any():
                raise CorruptCacheEntry(f"an ordinal of degree {d} is not in 0..{blk.dim - 1}")
            val = (np.array([f.parse_coeff(c) for c in coeffs], dtype=object) if f.p is None
                   else _ints(coeffs, f"a coefficient of degree {d}") % f.p)
            row = np.repeat(np.arange(lengths.size), lengths)
            if not row.size == col.size == val.size:
                raise CorruptCacheEntry(f"the row lengths of degree {d} do not add up to its entries")
            if not blk.load(Entries((lengths.size, blk.dim), row, col, val)):
                raise CorruptCacheEntry(f"degree {d} rows are not in canonical echelon form")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CorruptCacheEntry(f"undecodable rows: {exc!r}") from exc
    return s


def cache_put(cache_dir: str | Path, key: str, payload: dict) -> None:
    """Write an entry through a temporary file of its own, so that writers
    sharing a directory replace whole entries; on an `OSError`, warn and
    write nothing. The entry's mode follows the umask, as for any new file."""
    d, tmp = Path(cache_dir), None
    try:
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / f"{key}.{os.urandom(8).hex()}.tmp"
        with open(tmp, "x") as out:  # created here, by this writer only
            out.write(json.dumps(payload, sort_keys=True))
        tmp.replace(d / f"{key}.json")
    except OSError as exc:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        print(f"warning: not writing cache entry {key}: {exc}", file=sys.stderr)


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
