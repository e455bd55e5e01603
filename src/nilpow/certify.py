"""Certification pipeline.

For a target derived-power index i the pipeline finds the nilpotency
index n of the quotient by the associative ideal of the (i+2)-nd derived
power and extracts the echelon basis of L = A^(i) in degrees up to
b = 2n-2. By graded Nakayama that basis generates L up to max_degree
exactly when L_d = [L, L]_d = A^(i+1)_d for b < d <= max_degree: by
induction the closure agrees with L below d, so its degree-d part is
[L, L]_d. As A^(i+1) lies in L, equal dimensions suffice, and the
closure's dimensions are read off the tower through the first degree
where A^(i+1) falls short (`lie_subalgebra_closure`, the tests'
reference, computes them directly). All verdicts are explicitly "up to
max_degree": VERIFIED additionally requires max_degree >= 2n-1 so at
least one degree governed by the generation argument is exercised.

Every pipeline step reads the presentation from the object it receives: a
`DerivedTower` (nilpotency index, generating set, certificate, fk and
degree-split checks) or a `Subspace` (Lemma-1 check), so the index n, the
tower and the generators always come from one spec.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .algebra import (
    DerivedTower,
    _brackets,
    _derived_step,
    _word_brackets,
    bracket,
    eval_f,
    ideal_closure,
    jordan,
    lie_ideal_closure,
    mul,
)
from .errors import (
    BoundExceedsTruncation,
    InternalSoundnessFailure,
    NotALieIdeal,
)
from .linalg import Entries, GradedVector, Subspace, _first_nonmember, span
from .words import AlgebraSpec, dim_component, format_word, normal_words

VERIFIED = "VERIFIED"
INCONCLUSIVE = "INCONCLUSIVE"
# f_k trials drawn and tested together: one membership test per degree each
_TRIAL_BATCH = 256


# -- randomness (seeded, reproducible) ---------------------------------------


def random_homogeneous(spec: AlgebraSpec, rng: random.Random, d: int) -> GradedVector:
    """Random homogeneous element of degree d with dense random coefficients."""
    dim = dim_component(spec, d)
    if dim == 0:
        return GradedVector(spec)
    if spec.field.p is not None:
        row = np.array([rng.randrange(spec.field.p) for _ in range(dim)], dtype=np.int64)
    else:
        row = np.array([Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)], dtype=object)
    return GradedVector._of(spec, {d: row})  # residues in [0, p), or Fractions


def random_lie_ideal(spec: AlgebraSpec, rng: random.Random) -> Subspace:
    """Lie-ideal closure of one random homogeneous element."""
    d = rng.randint(1, max(1, spec.max_degree - 2))
    return lie_ideal_closure(span(spec, [random_homogeneous(spec, rng, d)]))


# -- nilpotency of the ideal quotients ---------------------------------------


@dataclass
class NilpotencyReport:
    """Degree data of the quotient by id(k-th derived power)."""

    k: int
    n: Optional[int]
    quotient_dims: list[tuple[int, int]]
    total_dim: int


def nilpotency_index(tower: DerivedTower, k: int) -> NilpotencyReport:
    """Smallest degree n at which the whole component lies in the ideal of
    the k-th derived power; None if no such degree up to max_degree."""
    spec = tower.spec
    ideal = tower.ideal(k)
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


def generating_set(tower: DerivedTower, i: int, n: int) -> list[GradedVector]:
    """Echelon basis of the i-th derived power in degrees <= 2n-2."""
    bound = 2 * n - 2
    if bound > tower.spec.max_degree:
        raise BoundExceedsTruncation(
            f"bound {bound} exceeds max degree {tower.spec.max_degree}"
        )
    return [g for d in range(1, bound + 1) for g in tower.level(i).basis_vectors(d)]


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
    timings_ms: dict[str, float] = dc_field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED


def certify_generation(tower: DerivedTower, i: int) -> Certificate:
    """Run the full generation pipeline for the i-th derived power (i >= 1)."""
    if i < 1:
        raise ValueError("certification target index must be >= 1")
    spec = tower.spec
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    tower.level(i + 2)  # builds every level the pipeline reads
    timings["tower"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    rep = nilpotency_index(tower, i + 2)
    timings["nilpotency"] = (time.perf_counter() - t0) * 1000.0

    target = tower.level(i)
    dims_target = target.dims(all_degrees=True)
    n = rep.n
    bound = None if n is None else 2 * n - 2
    gens: list[GradedVector] = []
    dims_closure: list[tuple[int, int]] = []
    if n is None:
        reason = f"nilpotency index for k={i + 2} not found up to degree {spec.max_degree}"
    elif bound > spec.max_degree:
        reason = f"bound {bound} exceeds max degree {spec.max_degree}"
    elif spec.max_degree < 2 * n - 1:
        reason = f"max degree {spec.max_degree} below {2 * n - 1}, no governed degree exercised"
    else:
        t0 = time.perf_counter()
        gens = generating_set(tower, i, n)
        timings["generators"] = (time.perf_counter() - t0) * 1000.0

        # graded Nakayama (module docstring): the closure is A^(i) up to the
        # bound, then A^(i+1) through the first degree where that falls short
        t0 = time.perf_counter()
        above = tower.level(i + 1)
        if not target.contains_subspace(above):
            raise InternalSoundnessFailure(f"derived power {i + 1} escaped derived power {i}")
        reason = None
        for (d, dim_t), (_, dim_a) in zip(dims_target, above.dims(all_degrees=True)):
            dim_c = dim_t if d <= bound else dim_a
            dims_closure.append((d, dim_c))
            if dim_c < dim_t:
                reason = f"closure dimension {dim_c} below target {dim_t} at degree {d}"
                break
        timings["verify"] = (time.perf_counter() - t0) * 1000.0
    return Certificate(
        spec=spec,
        i=i,
        n=n,
        bound=bound,
        generators=gens,
        dims_target=dims_target,
        dims_closure=dims_closure,
        quotient_dims=rep.quotient_dims,
        verdict=VERIFIED if reason is None else INCONCLUSIVE,
        reason=reason,
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


def _first_escape(
    u: Subspace, s: Subspace, degrees: Iterable[int], lo: int = 1
) -> tuple[int, Optional[dict]]:
    """Test the brackets [w, row r of s_e] against u_f for f in ``degrees``,
    w a basis word of degree f - e >= lo. Returns the rows tested and, for
    the first bracket outside u, the fields w, v (word r of degree e), r, e
    and f; None if every bracket lies in u. Each run of words is one
    membership test; the count stops at the word of the first escape. Which
    word escapes first does not depend on the basis of s_e, but which row
    does: it is named among the canonical rows."""
    spec = u.spec
    checked = 0
    for f in degrees:
        for d, a, m in _word_brackets(s, f, lo):
            r = u.block(f).contains_matrix(m)
            if r is None:
                checked += m.shape[0]
                continue
            e = f - d
            n = s.dim_at(e)
            checked += (r // n + 1) * n
            a += r // n
            # the word again, on the canonical rows, which s's rows need not be
            one = np.zeros(1, dtype=np.intp)
            word = Entries((1, dim_component(spec, d)), one, one + a, np.full(1, spec.field.one))
            [(_, m)] = _brackets(spec, d, e, word, s.block(e).canonical_entries())
            r = u.block(f).contains_matrix(m)
            w = format_word(spec, normal_words(spec, d)[a])
            v = format_word(spec, normal_words(spec, e)[r])
            return checked, dict(w=w, v=v, r=r, e=e, f=f)
    return checked, None


def lemma1_check(u: Subspace, uu_ideal: Optional[Subspace] = None) -> CheckReport:
    """Verify [id([U,U]), A] <= U for a Lie ideal U, degree-wise.
    ``uu_ideal`` is id([U,U]) when the caller holds it, as a tower does for
    U = A^(i): `DerivedTower.ideal(i + 1)`; otherwise it is built here.

    Raises NotALieIdeal when the precondition [A, U] <= U fails.
    """
    degrees = range(2, u.spec.max_degree + 1)
    checked, hit = _first_escape(u, u, degrees)
    if hit is not None:
        raise NotALieIdeal("[{w}, U_{e}] not inside U at degree {f}".format(**hit))
    if uu_ideal is None:
        uu_ideal = ideal_closure(_derived_step(u.spec, u, from_full=False))
    more, hit = _first_escape(u, uu_ideal, degrees)
    escape = hit and "[row {r} of id([U,U])_{e}, {w}] escapes U at degree {f}".format(**hit)
    return CheckReport(name="lemma1", passed=hit is None, checked=checked + more, counterexample=escape)


def fk_identity_check(tower: DerivedTower, k: int, trials: int = 100, seed: int = 0) -> CheckReport:
    """Seeded random check that level-k bracketed evaluations land in the
    associative ideal of the k-th derived power. With 2^k > max_degree every
    evaluation truncates to zero, so no trial is run. Trials are drawn and
    tested `_TRIAL_BATCH` at a time, which bounds the rows held; the report
    names the first failing trial, as one test per trial would."""
    spec = tower.spec
    report = CheckReport(name=f"f_{k}", passed=True, checked=0, seed=seed, trials=trials)
    nargs = 2**k
    if nargs > spec.max_degree:
        return report
    ideal = tower.ideal(k)
    rng = random.Random(seed)
    for t0 in range(0, trials, _TRIAL_BATCH):
        drawn = []
        for _ in range(min(_TRIAL_BATCH, trials - t0)):
            degrees = [1] * nargs
            budget = spec.max_degree - nargs
            while budget > 0 and rng.random() < 0.7:
                degrees[rng.randrange(nargs)] += 1
                budget -= 1
            drawn.append((degrees, [random_homogeneous(spec, rng, d) for d in degrees]))
        t = _first_nonmember(ideal, [eval_f(k, args) for _, args in drawn])
        if t is not None:
            report.passed, report.checked = False, t0 + t + 1
            report.counterexample = f"trial {t0 + t}: evaluation of degrees {drawn[t][0]} escapes the ideal"
            return report
        report.checked = t0 + len(drawn)
    return report


def degree_split_check(tower: DerivedTower, i: int, n: int) -> CheckReport:
    """For every total degree >= 2n-1 and every split p+q with p >= n, all
    basis-word brackets from degrees (p, q) lie in the (i+1)-st derived
    power."""
    degrees = range(2 * n - 1, tower.spec.max_degree + 1)
    checked, hit = _first_escape(tower.level(i + 1), tower.level(0), degrees, lo=n)
    escape = hit and "[{w}, {v}] escapes level {level} at degree {f}".format(level=i + 1, **hit)
    return CheckReport(name="degree_split", passed=hit is None, checked=checked, counterexample=escape)


def identity_check(
    spec: AlgebraSpec, trials: int = 100, seed: int = 0
) -> CheckReport:
    """Seeded random check of the three classical bracket/circle identities
    and the half-splitting of the product (characteristic != 2)."""
    rng = random.Random(seed)
    half = spec.field.half
    for t in range(trials):
        degs = [rng.randint(1, max(1, spec.max_degree // 2)) for _ in range(3)]
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
