"""Certification pipeline.

For a target derived-power index i the pipeline finds the nilpotency
index n of the quotient by the associative ideal of the (i+2)-nd derived
power, extracts the echelon basis of the i-th derived power in degrees
up to 2n-2, closes it under the bracket, and compares dimensions with the
i-th derived power in every degree up to the truncation bound. All
verdicts are explicitly "up to max_degree": VERIFIED additionally
requires max_degree >= 2n-1 so at least one degree governed by the
generation argument is exercised.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .algebra import (
    DerivedTower,
    _brackets,
    _derived_step,
    _word_brackets,
    bracket,
    eval_f,
    ideal_closure,
    lie_ideal_closure,
    lie_subalgebra_closure,
)
from .errors import (
    BoundExceedsTruncation,
    InternalSoundnessFailure,
    NotALieIdeal,
)
from .linalg import GradedVector, Subspace, span
from .words import AlgebraSpec, dim_component, format_word, normal_words

VERIFIED = "VERIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


# -- randomness (seeded, reproducible) ---------------------------------------


def random_homogeneous(spec: AlgebraSpec, rng: random.Random, d: int) -> GradedVector:
    """Random homogeneous element of degree d with dense random coefficients."""
    dim = dim_component(spec, d)
    if dim == 0:
        return GradedVector(spec)
    if spec.field.is_prime_field:
        row = [rng.randrange(spec.field.p) for _ in range(dim)]
    else:
        row = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)]
    return GradedVector(spec, {d: row})


def random_lie_ideal(spec: AlgebraSpec, rng: random.Random) -> Subspace:
    """Lie-ideal closure of one random homogeneous element."""
    d = rng.randint(1, max(1, spec.max_degree - 2))
    return lie_ideal_closure(spec, span(spec, [random_homogeneous(spec, rng, d)]))


# -- nilpotency of the ideal quotients ---------------------------------------


@dataclass
class NilpotencyReport:
    """Degree data of the quotient by id(k-th derived power)."""

    k: int
    n: Optional[int]
    quotient_dims: list[tuple[int, int]]
    total_dim: int

    @property
    def found(self) -> bool:
        return self.n is not None


def nilpotency_index(
    spec: AlgebraSpec, k: int, tower: DerivedTower | None = None
) -> NilpotencyReport:
    """Smallest degree n at which the whole component lies in the ideal of
    the k-th derived power; None if no such degree up to max_degree."""
    tower = tower or DerivedTower(spec)
    ideal = ideal_closure(spec, tower.level(k))
    qdims = [
        (d, dim_component(spec, d) - ideal.dim_at(d))
        for d in range(1, spec.max_degree + 1)
    ]
    n = next((d for d, q in qdims if q == 0), None)
    if n is not None:
        # forced by A_d = A_1 * A_{d-1}; a violation is an engine bug
        for d, q in qdims:
            if d >= n and q != 0:
                raise InternalSoundnessFailure(
                    f"quotient nonzero at degree {d} after vanishing at {n}"
                )
    total = sum(q for d, q in qdims if n is None or d < n)
    return NilpotencyReport(k=k, n=n, quotient_dims=qdims, total_dim=total)


def generating_set(
    spec: AlgebraSpec, i: int, n: int, tower: DerivedTower | None = None
) -> list[GradedVector]:
    """Echelon basis of the i-th derived power in degrees <= 2n-2 (for i=0,
    the degree-1 component: the nonzero generators)."""
    bound = 2 * n - 2
    if bound > spec.max_degree:
        raise BoundExceedsTruncation(
            f"bound {bound} exceeds max degree {spec.max_degree}"
        )
    if i == 0:
        return [GradedVector.from_word(spec, w) for w in normal_words(spec, 1)]
    tower = tower or DerivedTower(spec)
    gens: list[GradedVector] = []
    for d in range(1, bound + 1):
        gens.extend(tower.level(i).basis_vectors(d))
    return gens


# -- the main certificate ----------------------------------------------------


@dataclass
class Certificate:
    spec: AlgebraSpec
    i: int
    n: Optional[int]
    bound: Optional[int]
    generators: list[GradedVector]
    dims_target: list[tuple[int, int]]
    dims_closure: list[tuple[int, int]]
    quotient_dims: list[tuple[int, int]]
    verdict: str
    reason: Optional[str]
    seed: int
    timings_ms: dict[str, float] = dc_field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED


def certify_generation(
    spec: AlgebraSpec, i: int, seed: int = 0, tower: DerivedTower | None = None
) -> Certificate:
    """Run the full generation pipeline for the i-th derived power (i >= 1)."""
    if i < 1:
        raise ValueError("certification target index must be >= 1")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    tower = tower or DerivedTower(spec)
    tower.level(i + 2)  # builds every level the pipeline reads
    timings["tower"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    rep = nilpotency_index(spec, i + 2, tower)
    timings["nilpotency"] = (time.perf_counter() - t0) * 1000.0

    target = tower.level(i)
    dims_target = target.dims(all_degrees=True)

    def inconclusive(reason: str, gens=None, dims_closure=None) -> Certificate:
        return Certificate(
            spec=spec,
            i=i,
            n=rep.n,
            bound=None if rep.n is None else 2 * rep.n - 2,
            generators=gens or [],
            dims_target=dims_target,
            dims_closure=dims_closure or [],
            quotient_dims=rep.quotient_dims,
            verdict=INCONCLUSIVE,
            reason=reason,
            seed=seed,
            timings_ms=timings,
        )

    if rep.n is None:
        return inconclusive(
            f"nilpotency index for k={i + 2} not found up to degree {spec.max_degree}"
        )
    n = rep.n
    bound = 2 * n - 2
    if spec.max_degree < 2 * n - 1:
        if bound > spec.max_degree:
            return inconclusive(f"bound {bound} exceeds max degree {spec.max_degree}")
        return inconclusive(
            f"max degree {spec.max_degree} below {2 * n - 1}, no governed degree exercised"
        )

    t0 = time.perf_counter()
    gens = generating_set(spec, i, n, tower)
    timings["generators"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    closure = lie_subalgebra_closure(spec, gens)
    timings["closure"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    dims_closure = closure.dims(all_degrees=True)
    for (d, dim_t), (_, dim_c) in zip(dims_target, dims_closure):
        if dim_c > dim_t:
            raise InternalSoundnessFailure(
                f"closure dimension {dim_c} exceeds target {dim_t} at degree {d}"
            )
    if not target.contains_subspace(closure):
        raise InternalSoundnessFailure("closure escaped the target subspace")
    timings["verify"] = (time.perf_counter() - t0) * 1000.0

    for (d, dim_t), (_, dim_c) in zip(dims_target, dims_closure):
        if dim_c < dim_t:
            return inconclusive(
                f"closure dimension {dim_c} below target {dim_t} at degree {d}",
                gens=gens,
                dims_closure=dims_closure,
            )
    return Certificate(
        spec=spec,
        i=i,
        n=n,
        bound=bound,
        generators=gens,
        dims_target=dims_target,
        dims_closure=dims_closure,
        quotient_dims=rep.quotient_dims,
        verdict=VERIFIED,
        reason=None,
        seed=seed,
        timings_ms=timings,
    )


# -- Lemma-1 style containment -----------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    checked: int
    counterexample: Optional[str] = None
    seed: Optional[int] = None
    trials: Optional[int] = None


def lemma1_check(spec: AlgebraSpec, u: Subspace) -> CheckReport:
    """Verify [id([U,U]), A] <= U for a Lie ideal U, degree-wise.

    Raises NotALieIdeal when the precondition [A, U] <= U fails.
    """
    checked = 0

    def first_escape(s: Subspace, message: str) -> Optional[str]:
        """``message`` filled in for the first bracket [w, row r of s_e] outside
        U_f, w a basis word; adds the brackets tested to ``checked``."""
        nonlocal checked
        for f in range(2, spec.max_degree + 1):
            for d, a, m in _word_brackets(s, f):
                checked += m.shape[0]
                r = u.block(f).contains_matrix(m)
                if r is not None:
                    w = format_word(spec, normal_words(spec, d)[a])
                    return message.format(w=w, r=r, e=f - d, f=f)
        return None

    escape = first_escape(u, "[{w}, U_{e}] not inside U at degree {f}")
    if escape is not None:
        raise NotALieIdeal(escape)
    w_ideal = ideal_closure(spec, _derived_step(spec, u, from_full=False))
    escape = first_escape(w_ideal, "[row {r} of id([U,U])_{e}, {w}] escapes U at degree {f}")
    return CheckReport(name="lemma1", passed=escape is None, checked=checked, counterexample=escape)


def fk_identity_check(
    spec: AlgebraSpec,
    k: int,
    trials: int = 100,
    seed: int = 0,
    tower: DerivedTower | None = None,
) -> CheckReport:
    """Seeded random check that level-k bracketed evaluations land in the
    associative ideal of the k-th derived power."""
    tower = tower or DerivedTower(spec)
    ideal = ideal_closure(spec, tower.level(k))
    rng = random.Random(seed)
    nargs = 2**k
    for t in range(trials):
        degrees = [1] * nargs
        budget = spec.max_degree - nargs
        while budget > 0 and rng.random() < 0.7:
            degrees[rng.randrange(nargs)] += 1
            budget -= 1
        args = [random_homogeneous(spec, rng, d) for d in degrees]
        val = eval_f(k, args)
        if not ideal.contains(val):
            return CheckReport(
                name=f"f_{k}",
                passed=False,
                checked=t + 1,
                counterexample=f"trial {t}: evaluation of degrees {degrees} escapes the ideal",
                seed=seed,
                trials=trials,
            )
    return CheckReport(name=f"f_{k}", passed=True, checked=trials, seed=seed, trials=trials)


def degree_split_check(
    spec: AlgebraSpec, i: int, n: int, tower: DerivedTower | None = None
) -> CheckReport:
    """For every total degree >= 2n-1 and every split p+q with p >= n, all
    basis-word brackets from degrees (p, q) lie in the (i+1)-st derived
    power."""
    tower = tower or DerivedTower(spec)
    target = tower.level(i + 1)
    words = tower.level(0)
    checked = 0
    for total in range(2 * n - 1, spec.max_degree + 1):
        for p in range(n, total):
            q = total - p
            for a, m in _brackets(
                spec, p, q, words.block(p).matrix, words.block(q).matrix, target.arith
            ):
                checked += m.shape[0]
                bad = target.block(total).contains_matrix(m)
                if bad is not None:
                    wp = format_word(spec, normal_words(spec, p)[a])
                    wq = format_word(spec, normal_words(spec, q)[bad])
                    return CheckReport(
                        name="degree_split",
                        passed=False,
                        checked=checked,
                        counterexample=f"[{wp}, {wq}] escapes level {i + 1} at degree {total}",
                    )
    return CheckReport(name="degree_split", passed=True, checked=checked)


def identity_check(
    spec: AlgebraSpec, trials: int = 100, seed: int = 0
) -> CheckReport:
    """Seeded random check of the three classical bracket/circle identities
    and the half-splitting of the product (characteristic != 2)."""
    from .algebra import jordan, mul

    rng = random.Random(seed)
    half = spec.field.half
    for t in range(trials):
        degs = []
        while len(degs) < 3:
            d = rng.randint(1, max(1, spec.max_degree // 2))
            degs.append(d)
        x, y, z = (random_homogeneous(spec, rng, d) for d in degs)
        lhs1 = mul(x, y)
        rhs1 = (bracket(x, y) + jordan(x, y)).scale(half)
        ok1 = lhs1 == rhs1
        lhs2 = bracket(z, jordan(x, y))
        rhs2 = jordan(bracket(z, x), y) + jordan(bracket(z, y), x)
        ok2 = lhs2 == rhs2
        rhs3 = bracket(jordan(z, x), y) + bracket(jordan(z, y), x)
        ok3 = lhs2 == rhs3
        if not (ok1 and ok2 and ok3):
            which = "1" if not ok1 else ("2" if not ok2 else "3")
            return CheckReport(
                name="identities",
                passed=False,
                checked=t + 1,
                counterexample=f"identity ({which}) failed on degrees {degs} at trial {t}",
                seed=seed,
                trials=trials,
            )
    return CheckReport(name="identities", passed=True, checked=trials, seed=seed, trials=trials)
