import hashlib
import importlib.resources
import json
import os
import types
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import numpy as np
import pytest

import nilpow.algebra
import nilpow.certify
from nilpow import AlgebraSpec, DerivedTower, Field
from nilpow.cache import _rows_digest, cache_get, cache_key, cache_put, subspace_from_payload, subspace_to_payload
from nilpow.cli import main
from nilpow.errors import CorruptCacheEntry
from nilpow.words import letter_orbits, multidegree_parts


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SPEC22 = ["--generators", "2", "--nil", "2,2"]
# the schema certificates are published against, as the installed package holds it
SCHEMA = json.loads(importlib.resources.files("nilpow").joinpath("certificate_schema.json").read_text())


def test_package_exports_every_public_name():
    public = {n for n, v in vars(nilpow).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(set(nilpow.__all__)) == len(nilpow.__all__)
    assert all(hasattr(nilpow, n) for n in nilpow.__all__)
    assert public == set(nilpow.__all__)


def test_dims_csv(capsys):
    code, out, _ = run_cli(
        capsys, "dims", *SPEC22, "--max-degree", "5", "--levels", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim_A,dim_A1,dim_A2"
    table = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert table == [
        (1, 2, 0, 0),
        (2, 2, 1, 0),
        (3, 2, 2, 0),
        (4, 2, 1, 0),
        (5, 2, 2, 2),
    ]


def test_dims_single_generator(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--generators", "1", "--nil", "3", "--max-degree", "5", "--levels", "1"
    )
    assert code == 0
    dims = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert dims == [1, 1, 0, 0, 0]


def test_characteristic_two_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "dims", *SPEC22, "--field", "fp:2", "--max-degree", "5"
    )
    assert code == 1
    assert "error" in err


def test_too_large_prime_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "dims", *SPEC22, "--field", "fp:2305843009213693951", "--max-degree", "5"
    )
    assert code == 1 and out == ""
    assert "2^31" in err


def test_usage_error_exits_one(capsys):
    # argparse exits 2, which would read as INCONCLUSIVE
    code, _, err = run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "x")
    assert code == 1 and "invalid int value" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "fk", *SPEC22, "--max-degree", "6", "--k", "-1"],
        ["check", "identities", *SPEC22, "--max-degree", "6", "--trials", "-3"],
        ["dims", *SPEC22, "--max-degree", "6", "--levels", "-1"],
    ],
)
def test_out_of_range_integer_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"argument {argv[-2]}: {argv[-1]} is below" in err


def test_nil_one_warns(capsys):
    code, _, err = run_cli(
        capsys, "dims", "--generators", "2", "--nil", "2,1", "--max-degree", "4"
    )
    assert code == 0
    assert "nil exponent 1" in err


def test_bad_nil_length_exits_one(capsys):
    code, _, err = run_cli(capsys, "dims", "--generators", "2", "--nil", "2", "--max-degree", "4")
    assert code == 1


def test_certify_verified_exit_zero(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "24", "--out", str(out_file)
    )
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["verdict"] == "VERIFIED"
    assert cert["n"] == 11 and cert["bound"] == 20
    jsonschema.validate(cert, SCHEMA)


def test_unwritable_out_exits_one(capsys, tmp_path):
    for cmd in (["certify", "--i", "1"], ["dims"]):
        out = tmp_path / "missing" / "out.json"
        code, _, err = run_cli(capsys, *cmd, *SPEC22, "--max-degree", "6", "--out", str(out))
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err
        assert not out.parent.exists()


def test_certify_small_degree_exit_two(capsys):
    code, out, err = run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "10")
    assert code == 2
    cert = json.loads(out)
    assert cert["verdict"] == "INCONCLUSIVE"
    assert "INCONCLUSIVE" in err
    jsonschema.validate(cert, SCHEMA)


def test_certify_no_governed_degree_exit_two(capsys):
    # n = 11 gives bound 20 = D, but no degree 2n-1 = 21 is exercised
    code, out, err = run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "20")
    assert code == 2
    cert = json.loads(out)
    assert cert["verdict"] == "INCONCLUSIVE"
    assert cert["reason"] == "max degree 20 below 21, no governed degree exercised"
    assert cert["n"] == 11 and cert["bound"] == 20 and cert["generators"] == []
    assert f"INCONCLUSIVE: {cert['reason']}" in err
    jsonschema.validate(cert, SCHEMA)


def test_certify_trivial_single_generator(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--i", "1", "--generators", "1", "--nil", "4", "--max-degree", "8"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "VERIFIED" and cert["generators"] == []


def test_certify_reproducible_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys,
            "certify", "--i", "1", *SPEC22, "--max-degree", "24", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_takes_no_seed(capsys):
    # certify draws nothing at random: --seed is a usage error, and the
    # certificate's seed field reads 0 until a format bump drops it
    code, _, _ = run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "8", "--seed", "17")
    assert code == 1
    code, out, _ = run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "8")
    assert code == 2 and json.loads(out)["seed"] == 0


def test_certify_words_serialized_dotted(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "24", "--out", str(out_file))
    cert = json.loads(out_file.read_text())
    words = [t["word"] for g in cert["generators"] for t in g["terms"]]
    assert words and all(w.startswith("x1.") or w.startswith("x2.") for w in words)


def test_check_identities(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "identities", *SPEC22, "--max-degree", "8",
        "--trials", "50", "--seed", "7",
    )
    assert code == 0
    assert "identities: pass" in out


def test_check_lemma1(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "lemma1", "--generators", "2", "--nil", "3,3", "--max-degree", "6",
        "--trials", "20",
    )
    assert code == 0
    assert "lemma1[derived power 1]: pass" in out


def test_check_fk(capsys):
    code, out, _ = run_cli(
        capsys, "check", "fk", *SPEC22, "--max-degree", "10", "--k", "2", "--trials", "30"
    )
    assert code == 0
    assert "f_2: pass" in out


def test_check_fk_vacuous_counts_no_checks(capsys):
    # 2^k = 4 arguments of degree >= 1 have total degree above D = 3
    code, out, _ = run_cli(
        capsys, "check", "fk", *SPEC22, "--max-degree", "3", "--k", "2", "--trials", "3"
    )
    assert code == 0
    assert out == "f_2: pass (0 checks seed=0)\n"


# -- cache -------------------------------------------------------------------


def test_check_all_builds_one_tower(capsys, monkeypatch):
    # the tower builds its levels through nilpow.algebra, and lemma1 on
    # A^(1) and A^(2) reads [U, U] from it (levels 2 and 3, each built
    # once); only the one random Lie ideal of 20 trials takes its own
    # [U, U] step, through nilpow.certify. id(A^(2)) is closed once,
    # though lemma1 and f_2 both read it.
    calls = {"algebra": [], "certify": []}
    closures = []
    step = nilpow.algebra._derived_step
    close = nilpow.algebra.ideal_closure

    def counted(module):
        def step_counted(*args, **kwargs):
            calls[module].append(kwargs["from_full"])
            return step(*args, **kwargs)

        return step_counted

    def close_counted(s):
        closures.append(s)
        return close(s)

    monkeypatch.setattr(nilpow.algebra, "_derived_step", counted("algebra"))
    monkeypatch.setattr(nilpow.certify, "_derived_step", counted("certify"))
    monkeypatch.setattr(nilpow.algebra, "ideal_closure", close_counted)
    monkeypatch.setattr(nilpow.certify, "ideal_closure", close_counted)
    code, _, _ = run_cli(capsys, "check", "all", *SPEC22, "--max-degree", "6", "--trials", "20")
    assert code == 0
    assert calls["algebra"] == [True, False, False]
    assert len(calls["certify"]) == 1
    # id(A^(2)) and id(A^(3)) for lemma1, id(A^(1)) for f_1, and the random ideal's
    assert len(closures) == 4


def test_cache_round_trip(tmp_path):
    for field in (Field.prime(32003), Field.rationals()):
        spec = AlgebraSpec(m=2, nil=(2, 2), field=field, max_degree=6)
        s = DerivedTower(spec).level(1)
        key = cache_key(spec, "derived[1]")
        cache_put(tmp_path, key, subspace_to_payload(s))
        payload = cache_get(tmp_path, key)
        assert payload is not None
        restored = subspace_from_payload(spec, payload)
        assert restored.dims() == s.dims() and restored.contains_subspace(s)


# The SHA-256 of each entry that `dims --levels 3` writes for (3; 2,2,2) at
# D=10 (`nilpow-cache-3`: the rows outside the target parts, as flat lists),
# as a tower that eliminates every multidegree part writes them too: the
# rows of an entry depend on the space alone, byte for byte.
M3_CACHE_ENTRIES = {
    "592056c888cbd082e2bf6c504aa97387c17dc17e18656cc139aba5761c4ae6b0.json": (
        "7bfb98ea72b72375df5aa9cb6e260037d86624eb34642c6746b45c19bd85ef86"
    ),
    "73fc4261b5eda62ca30f108bc6f938ff88b7ac8a6e7016ad0d78cdb27c61cd59.json": (
        "53e95c07559afd1dbb75ea466b8147c8e13b6afde83f51b9c5887c130f92543d"
    ),
    "a34452be0020221efc4d22c3016f841012cc8a0ef9af7bb099c4dc0ff5fa7b6e.json": (
        "7b2d2c2b50e21cb24f05457fae77acbe4dd671638a9e3322d55adb8a09c91615"
    ),
}


def test_m3_cache_entries_are_pinned(capsys, tmp_path):
    argv = ["dims", "--generators", "3", "--nil", "2,2,2", "--max-degree", "10", "--levels", "3"]
    code, out, _ = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert code == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == M3_CACHE_ENTRIES
    assert run_cli(capsys, *argv, "--cache", str(tmp_path))[:2] == (0, out)  # read back


def _pivots(flat):
    """The pivot ordinals of a degree's [row lengths, ordinals, coeffs]."""
    lengths, ordinals, _ = flat
    return [ordinals[at] for at in np.cumsum([0] + lengths[:-1])]


@pytest.mark.parametrize("nil", [(2, 2, 2), (3, 3), (2, 2, 3)])
def test_entries_hold_no_target_rows(capsys, tmp_path, nil):
    # a target part reads its source's rows, so no entry holds a row of one
    spec = AlgebraSpec(m=len(nil), nil=nil, max_degree=9)
    argv = ["dims", "--generators", str(spec.m), "--nil", ",".join(map(str, nil)), "--max-degree", "9"]
    run_cli(capsys, *argv, "--levels", "3", "--cache", str(tmp_path))
    tower, targets = DerivedTower(spec), 0
    for j in (1, 2, 3):
        rows = cache_get(tmp_path, cache_key(spec, f"derived[{j}]"))["rows"]
        for d, flat in rows.items():
            orbits = letter_orbits(spec, int(d))
            if orbits is not None:
                part = multidegree_parts(spec, int(d))[0][_pivots(flat)]
                assert not np.isin(part, orbits.target).any(), (j, d)
                targets += tower.level(j).dim_at(int(d)) > len(part)
    assert targets  # some level has rows in a target part, which the entry leaves out


def test_cache_miss_on_empty(tmp_path):
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    assert cache_get(tmp_path, cache_key(spec, "derived[1]")) is None


def test_cache_version_mismatch_is_miss(tmp_path):
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    key = cache_key(spec, "derived[1]")
    cache_put(tmp_path, key, {"version": "something-else", "rows": {}})
    assert cache_get(tmp_path, key) is None


def test_cache_corrupt_entry_ignored(tmp_path, capsys):
    spec = AlgebraSpec(m=2, nil=(2, 2), max_degree=6)
    key = cache_key(spec, "derived[1]")
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache_get(tmp_path, key) is None
    assert "corrupt" in capsys.readouterr().err


def test_writers_sharing_a_cache_directory(capsys, tmp_path):
    # two writers of one entry at once: each writes whole entries through a
    # temporary file of its own, so neither loses its file to the other
    payload = {"version": "any", "rows": list(range(20000))}

    def write(_):
        for _ in range(50):
            cache_put(tmp_path, "key", payload)

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(write, range(2)))
    assert [p.name for p in tmp_path.iterdir()] == ["key.json"]
    assert json.loads((tmp_path / "key.json").read_text()) == payload
    assert capsys.readouterr().err == ""
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / "key.json").stat().st_mode & 0o777 == 0o666 & ~umask  # as a plain write makes it


def test_unwritable_cache_runs_uncached(capsys, tmp_path):
    # a cache "directory" that is a file: no entry can be written, and the
    # run warns once per level and goes on
    args = ["dims", *SPEC22, "--max-degree", "6", "--levels", "2"]
    _, plain, _ = run_cli(capsys, *args)
    path = tmp_path / "cache"
    path.write_text("")
    code, out, err = run_cli(capsys, *args, "--cache", str(path))
    assert code == 0 and out == plain
    warnings = err.splitlines()
    assert len(warnings) == 2 and all(w.startswith("warning: not writing cache entry") for w in warnings), err


def _pairs(flat):
    """A degree's [row lengths, ordinals, coeffs] as rows of [ordinal, coeff]."""
    lengths, ordinals, coeffs = flat
    at = np.cumsum([0] + lengths).tolist()
    pairs = [[o, c] for o, c in zip(ordinals, coeffs)]
    return [pairs[lo:hi] for lo, hi in zip(at, at[1:])]


def _flat(rows):
    return [[len(r) for r in rows], [o for r in rows for o, _ in r], [c for r in rows for _, c in r]]


def _as_pairs(tamper):
    """A tamper of the rows of each degree written as lists of [ordinal,
    coeff] pairs, as one of the flat lists."""

    def flat_tamper(rows):
        nested = {d: _pairs(flat) for d, flat in rows.items()}
        tamper(nested)
        rows.clear()
        rows.update({d: _flat(r) for d, r in nested.items()})

    return flat_tamper


def _tallest(rows):
    return max(rows.values(), key=len)


def _tallest_flat(rows):
    return max(rows.values(), key=lambda flat: len(flat[0]))


def _entry_in_pivot_column(rows):
    # a row gets an entry in the pivot column of a later row of its own
    # multidegree part, so that only the echelon-form check can see it
    d, tall = max(rows.items(), key=lambda kv: len(kv[1]))
    part_of, _ = multidegree_parts(AlgebraSpec(m=2, nil=(3, 3), max_degree=7), int(d))
    i, j = next(
        (i, j)
        for i in range(len(tall))
        for j in range(i + 1, len(tall))
        if part_of[tall[i][0][0]] == part_of[tall[j][0][0]]
    )
    tall[i].append([tall[j][0][0], 1])


def _long_row(rows):
    # a row of the tallest degree with a pair after its pivot pair
    return next(r for r in _tallest(rows) if len(r) >= 2)


def _swap_pairs(rows):
    # a row's first two pairs change places: the rows still add up to a
    # canonical matrix, but are not written as a block writes them
    row = _long_row(rows)
    row[0], row[1] = row[1], row[0]


def _change_non_pivot(rows):
    # entries after a row's pivot sit in non-pivot columns; still canonical RREF
    entry = next(r for r in _tallest(rows) if len(r) > 1)[-1]
    entry[1] = 2 if entry[1] != 2 else 3


def _to_float(k):
    # the last value of flat list k (0: row lengths, 1: ordinals) becomes a
    # float of the same value: one conversion to int64 would take it
    # silently, so only a type check sees it
    def tamper(rows):
        values = _tallest_flat(rows)[k]
        values[-1] = float(values[-1])

    return tamper


# kind -> (tamper, the reason `subspace_from_payload` gives). The digest is
# recomputed after each tamper, so that each reaches the check it names,
# except for "last row dropped" and "non-pivot entry changed": the rows
# stay canonical RREF of one multidegree per row, so only the digest
# catches them.
NOT_RREF = "rows are not in canonical echelon form"
TAMPERS = {
    "non-monic pivot": (_as_pairs(lambda rows: _tallest(rows)[0][0].__setitem__(1, 2)), NOT_RREF),
    "rows out of pivot order": (_as_pairs(lambda rows: _tallest(rows).reverse()), NOT_RREF),
    "entry in another pivot column": (_as_pairs(_entry_in_pivot_column), NOT_RREF),
    "zero row": (_as_pairs(lambda rows: _tallest(rows).append([])), NOT_RREF),
    "pair repeated": (_as_pairs(lambda rows: _long_row(rows).append(list(_long_row(rows)[-1]))), NOT_RREF),
    "pairs out of order in a row": (_as_pairs(_swap_pairs), NOT_RREF),
    "ordinal out of range": (_as_pairs(lambda rows: _tallest(rows)[0].append([10**6, 1])), "an ordinal of degree"),
    "negative ordinal": (_as_pairs(lambda rows: _tallest(rows)[0].append([-1, 1])), "an ordinal of degree"),
    "float ordinal": (_to_float(1), "an ordinal of degree 7 is not an integer"),
    "float row length": (_to_float(0), "a row length of degree 7 is not an integer"),
    "row lengths past the entries": (
        lambda rows: _tallest_flat(rows)[0].__setitem__(-1, _tallest_flat(rows)[0][-1] + 1),
        "row lengths of degree 7 do not add up",
    ),
    "bad coefficient": (_as_pairs(lambda rows: _tallest(rows)[0][0].__setitem__(1, "one")), "a coefficient of degree"),
    "bad degree": (lambda rows: rows.__setitem__("99", [[1], [0], [1]]), "degree 99 outside 1..7"),
    "degree rows not a list": (lambda rows: rows.update({k: 7 for k in rows}), "undecodable rows: TypeError"),
    "last row dropped": (_as_pairs(lambda rows: _tallest(rows).pop()), "rows do not match their digest"),
    "non-pivot entry changed": (_as_pairs(_change_non_pivot), "rows do not match their digest"),
}
STALE_DIGEST = {"last row dropped", "non-pivot entry changed"}


@pytest.mark.parametrize("kind", TAMPERS)
def test_tampered_cache_entry_never_changes_dims(capsys, tmp_path, kind):
    args = ["dims", "--generators", "2", "--nil", "3,3", "--max-degree", "7", "--levels", "2"]
    _, plain, _ = run_cli(capsys, *args)
    run_cli(capsys, *args, "--cache", str(tmp_path))
    tamper, reason = TAMPERS[kind]
    for path in tmp_path.glob("*.json"):
        payload = json.loads(path.read_text())
        tamper(payload["rows"])
        if kind not in STALE_DIGEST:
            payload["digest"] = _rows_digest(payload["rows"])
        path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *args, "--cache", str(tmp_path))
    assert code == 0 and out == plain
    warnings = err.splitlines()
    assert len(warnings) == 2  # one per cached level
    assert all(w.startswith("warning: ignoring cache entry") and reason in w for w in warnings), err
    # the entries were rewritten: a further warm run reads them cleanly
    assert run_cli(capsys, *args, "--cache", str(tmp_path)) == (0, plain, "")


def test_entry_across_multidegrees_is_a_miss(capsys, tmp_path):
    # an entry in a non-pivot column of another multidegree keeps the rows in
    # canonical RREF, and the recomputed digest matches: only the multidegree
    # guard of `_Block.load` rejects it
    args = ["dims", "--generators", "2", "--nil", "3,3", "--max-degree", "7", "--levels", "2"]
    _, plain, _ = run_cli(capsys, *args)
    run_cli(capsys, *args, "--cache", str(tmp_path))
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=7)
    path = tmp_path / f"{cache_key(spec, 'derived[1]')}.json"
    payload = json.loads(path.read_text())
    d, flat = max(payload["rows"].items(), key=lambda kv: len(kv[1][0]))
    rows = _pairs(flat)
    part_of, _ = multidegree_parts(spec, int(d))
    pivots = {row[0][0] for row in rows}
    row = rows[0]
    col = next(c for c in range(part_of.size) if c not in pivots and part_of[c] != part_of[row[0][0]])
    row.append([col, 1])
    row.sort()
    payload["rows"][d] = _flat(rows)
    payload["digest"] = _rows_digest(payload["rows"])
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCacheEntry, match="two multidegree parts"):
        subspace_from_payload(spec, payload)
    code, out, err = run_cli(capsys, *args, "--cache", str(tmp_path))
    assert code == 0 and out == plain
    assert "warning: ignoring cache entry" in err


def test_entry_with_wrong_target_rows_decodes_to_the_level():
    # Target part 2 of degree 4 holds one row of the level, which the entry
    # leaves out. A stray unit row on the part's first column, outside the
    # level, keeps the entry canonical RREF, and the recomputed digest
    # matches. A target reads its source's rows, so the entry must decode
    # to the true level, or be refused; a stray row must not change the
    # answer.
    spec = AlgebraSpec(m=3, nil=(2, 2, 2), max_degree=8)
    level = DerivedTower(spec).level(2)
    payload = subspace_to_payload(level)
    part_of, cols = multidegree_parts(spec, 4)
    assert 2 in letter_orbits(spec, 4).target.tolist()
    stray = np.zeros((1, part_of.size), dtype=np.int64)
    stray[0, cols[2][0]] = 1
    assert level.block(4).contains_matrix(stray) == 0
    rows = _pairs(payload["rows"]["4"])
    assert not any(part_of[row[0][0]] == 2 for row in rows)
    rows = sorted(rows + [[[int(cols[2][0]), 1]]], key=lambda row: row[0][0])
    payload["rows"]["4"] = _flat(rows)
    payload["digest"] = _rows_digest(payload["rows"])
    try:
        decoded = subspace_from_payload(spec, payload)
    except CorruptCacheEntry:
        return
    assert decoded.dims() == level.dims()
    assert decoded.contains_subspace(level) and level.contains_subspace(decoded)


# how a tamper rewrites each coefficient of a degree: to an integer past
# int64 of the same residue, or to a list holding the coefficient
RESIDUE_TAMPERS = {"past int64": lambda c: c + 10**20 * 32003, "a list": lambda c: [c]}


@pytest.mark.parametrize("kind", RESIDUE_TAMPERS)
def test_coefficient_that_is_no_residue_is_corrupt(kind):
    # F_p coefficients are decoded in one conversion to int64, so a value
    # past int64 is a corrupt entry even where its residue is right
    spec = AlgebraSpec(m=2, nil=(3, 3), max_degree=7)
    payload = subspace_to_payload(DerivedTower(spec).level(1))
    coeffs = _tallest_flat(payload["rows"])[2]
    coeffs[:] = [RESIDUE_TAMPERS[kind](c) for c in coeffs]
    payload["digest"] = _rows_digest(payload["rows"])
    with pytest.raises(CorruptCacheEntry):
        subspace_from_payload(spec, payload)


def test_rational_coefficient_that_is_no_string_is_a_miss(capsys, tmp_path):
    # over Q each coefficient is the text of a rational; a float of the same
    # value, with the digest recomputed, is a corrupt entry as over F_p
    args = ["dims", "--generators", "2", "--nil", "3,3", "--max-degree", "7", "--levels", "1", "--field", "q"]
    _, plain, _ = run_cli(capsys, *args)
    run_cli(capsys, *args, "--cache", str(tmp_path))
    spec = AlgebraSpec(m=2, nil=(3, 3), field=Field.rationals(), max_degree=7)
    path = tmp_path / f"{cache_key(spec, 'derived[1]')}.json"
    payload = json.loads(path.read_text())
    coeffs = _tallest_flat(payload["rows"])[2]
    coeffs[coeffs.index("-1")] = -1.0
    payload["digest"] = _rows_digest(payload["rows"])
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCacheEntry, match="TypeError"):
        subspace_from_payload(spec, payload)
    code, out, err = run_cli(capsys, *args, "--cache", str(tmp_path))
    assert code == 0 and out == plain
    assert err.startswith("warning: ignoring cache entry") and "TypeError" in err


def test_cached_certify_matches_uncached(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    plain, cached, cached2 = (tmp_path / n for n in ("plain.json", "c1.json", "c2.json"))
    run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "14", "--out", str(plain))
    run_cli(
        capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "14",
        "--cache", str(cache_dir), "--out", str(cached),
    )
    assert any(cache_dir.iterdir())
    run_cli(
        capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "14",
        "--cache", str(cache_dir), "--out", str(cached2),
    )
    assert plain.read_bytes() == cached.read_bytes() == cached2.read_bytes()


def test_timings_flag_controls_json(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "14", "--out", str(out_file))
    assert json.loads(out_file.read_text())["timings_ms"] == {}
    run_cli(
        capsys, "certify", "--i", "1", *SPEC22, "--max-degree", "14",
        "--timings", "--out", str(out_file),
    )
    assert json.loads(out_file.read_text())["timings_ms"]
