"""Per-module spans and counters for the traced benchmark run.

The tracer wraps nilpow functions from outside the package: it replaces a
name in every nilpow module where callers look it up, and methods on their
class. Each wrapped call records a span (job id, span id, parent span id,
name, start, end) and adds to the job's counters. Spans stay in memory and
are written out when the run ends.

`fields` is not wrapped: its per-element calls would dominate the run. Its
cost shows up inside `algebra.sparse_mul_s`. The cached `normal_words` and
`mul_table` are wrapped beneath their `lru_cache`, so only misses are
spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

# span name -> the group a linalg insertion is attributed to
INSERT_PARENTS = {
    "algebra.ideal_closure": "ideal_closure",
    "algebra.lie_subalgebra_closure": "lie_closure",
    "algebra.lie_ideal_closure": "lie_ideal_closure",
    "cache.subspace_from_payload": "cache_decode",
}
INSERT_GROUPS = ["derived_step", "ideal_closure", "lie_closure", "lie_ideal_closure", "cache_decode", "other"]
DERIVED_LEVELS = (1, 2, 3)

# Time metrics: metric -> span names. The metric is the time covered by
# spans of those names that have no ancestor of those names.
COVER = {
    "words.tables_s": {"words.mul_table", "words.normal_words"},
    "linalg.insert_s": {"linalg.insert_matrix", "linalg.insert"},
    "linalg.member_s": {"linalg.contains_matrix", "linalg.contains", "linalg.contains_subspace"},
    "linalg.matmul_s": {"linalg.matmul"},
    **{f"algebra.derived_L{k}_s": {f"algebra.derived_step.L{k}"} for k in DERIVED_LEVELS},
    "algebra.ideal_closure_s": {"algebra.ideal_closure"},
    "algebra.lie_closure_s": {"algebra.lie_subalgebra_closure"},
    "algebra.lie_ideal_closure_s": {"algebra.lie_ideal_closure"},
    "algebra.sparse_mul_s": {"algebra.mul"},
    "certify.nilpotency_s": {"certify.nilpotency_index"},
    "certify.identities_s": {"certify.identity_check"},
    "certify.lemma1_s": {"certify.lemma1_check"},
    "certify.fk_s": {"certify.fk_identity_check"},
    "cache.get_s": {"cache.cache_get"},
    "cache.decode_s": {"cache.subspace_from_payload"},
    "cache.encode_s": {"cache.subspace_to_payload"},
    "cache.put_s": {"cache.cache_put"},
}
# Self-time metrics: metric -> span-name prefix. A span's self time is its
# duration minus the time its child spans cover.
SELF = {
    "algebra.candidates_self_s": "algebra.derived_step.",
    "certify.self_s": "certify.certify_generation",
    "cli.self_s": "cli.main",
}
COUNTS = [
    "words.table_entries",
    "linalg.rows_offered",
    "linalg.rank_gained",
    *[f"linalg.rows_offered.{g}" for g in INSERT_GROUPS],
    *[f"linalg.rank_gained.{g}" for g in INSERT_GROUPS],
    "linalg.rows_tested",
    "linalg.matmul_calls",
    "linalg.matmul_flops",
    "linalg.matmul_bytes",
    "algebra.sparse_mul_calls",
    "certify.checks",
    "cache.hits",
    "cache.misses",
    "cache.bytes",
]
# count metrics that are a ratio of two counters (0 when the base is 0)
RATIOS = {
    "linalg.insert_yield": ("linalg.rank_gained", "linalg.rows_offered"),
    **{
        f"linalg.insert_yield.{g}": (f"linalg.rank_gained.{g}", f"linalg.rows_offered.{g}")
        for g in INSERT_GROUPS
    },
    "linalg.matmul_blas_frac": ("linalg.matmul_blas_calls", "linalg.matmul_calls"),
}
PEAKS = {"linalg.block_mb"}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        # [job, parent span id, name, start, end]; the span id is the index
        self.spans: list[list] = []
        self.counters: dict[int, defaultdict] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []
        self._caches: list = []
        self._levels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------------

    def start_job(self, job: int) -> None:
        self._job = job
        self.counters[job] = defaultdict(int)
        self._levels.clear()

    @property
    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][2] if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        self.counters[self._job][name] += value

    def peak(self, name: str, value: float) -> None:
        c = self.counters[self._job]
        c[name] = max(c[name], value)

    def wrap(self, fn, name, after=None, skip_under: str | None = None):
        """``fn`` recording a span per call. ``name`` is a string or a
        function of the call's arguments; ``after(tracer, args, kwargs, result)``
        runs once the span is closed; calls made directly inside a span
        named ``skip_under`` record nothing."""
        spans, stack, now = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_under is not None and stack and spans[stack[-1]][2] == skip_under:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(self, args, kwargs)
            sid = len(spans)
            span = [self._job, stack[-1] if stack else -1, label, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[3] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = now()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced name; `uninstall` puts the originals back."""
        from nilpow import algebra, cache, certify, cli, linalg, words

        modules = [m for n, m in sorted(sys.modules.items()) if n == "nilpow" or n.startswith("nilpow.")]
        funcs = [
            (words, "normal_words", "words.normal_words", _table_entries, True),
            (algebra, "mul_table", "words.mul_table", _table_entries, True),
            (algebra, "_derived_step", _derived_name, _derived_done, False),
            (algebra, "ideal_closure", "algebra.ideal_closure", None, False),
            (algebra, "lie_subalgebra_closure", "algebra.lie_subalgebra_closure", None, False),
            (algebra, "lie_ideal_closure", "algebra.lie_ideal_closure", None, False),
            (algebra, "mul", "algebra.mul", _count("algebra.sparse_mul_calls"), False),
            (certify, "nilpotency_index", "certify.nilpotency_index", None, False),
            (certify, "certify_generation", "certify.certify_generation", None, False),
            (certify, "identity_check", "certify.identity_check", _checks, False),
            (certify, "lemma1_check", "certify.lemma1_check", _checks, False),
            (certify, "fk_identity_check", "certify.fk_identity_check", _checks, False),
            (cache, "cache_get", "cache.cache_get", _cache_get, False),
            (cache, "cache_put", "cache.cache_put", _cache_put, False),
            (cache, "subspace_from_payload", "cache.subspace_from_payload", None, False),
            (cache, "subspace_to_payload", "cache.subspace_to_payload", None, False),
            (cli, "main", "cli.main", None, False),
        ]
        for home, attr, label, after, cached in funcs:
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.add(f"{home.__name__}.{attr}")
                continue
            if cached:
                repl = functools.lru_cache(maxsize=None)(self.wrap(orig.__wrapped__, label, after))
                self._caches.append(repl)
            else:
                repl = self.wrap(orig, label, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, repl)
        methods = [
            (linalg, "_Arith", "matmul", "linalg.matmul", _matmul, None),
            (linalg, "_Block", "insert_matrix", "linalg.insert_matrix", _inserted_rows, None),
            (linalg, "_Block", "insert", "linalg.insert", _inserted_row, "linalg.insert_matrix"),
            (linalg, "_Block", "contains_matrix", "linalg.contains_matrix", _tested_matrix, None),
            (linalg, "Subspace", "contains", "linalg.contains", _tested_vector, None),
            (linalg, "Subspace", "contains_subspace", "linalg.contains_subspace", None, None),
        ]
        for mod, cls_name, attr, label, after, skip_under in methods:
            cls = getattr(mod, cls_name, None)
            orig = getattr(cls, attr, None) if cls is not None else None
            if orig is None:
                self.missing.add(f"{mod.__name__}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self.wrap(orig, label, after, skip_under))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        for c in self._caches:
            c.cache_clear()
        self._caches.clear()

    # -- results ---------------------------------------------------------------

    def job_times(self) -> dict[int, dict[str, float]]:
        """Per job: the time metrics of `COVER` and `SELF`, in seconds."""
        by_job: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        labels = {span[2] for span in self.spans}
        cover = {lb: [(m, names) for m, names in COVER.items() if lb in names] for lb in labels}
        own = {lb: [m for m, prefix in SELF.items() if lb.startswith(prefix)] for lb in labels}
        for sid, (job, parent, label, t0, t1) in enumerate(self.spans):
            out = by_job[job]
            for metric, names in cover[label]:
                if not self._has_ancestor(parent, names):
                    out[metric] += t1 - t0
            for metric in own[label]:
                out[metric] += t1 - t0 - child_time[sid]
        return by_job

    def _has_ancestor(self, sid: int, names: set) -> bool:
        while sid >= 0:
            if self.spans[sid][2] in names:
                return True
            sid = self.spans[sid][1]
        return False

    def job_counts(self, job: int) -> dict[str, float]:
        c = self.counters.get(job, {})
        out = {name: c.get(name, 0) for name in COUNTS}
        for name, (num, den) in RATIOS.items():
            out[name] = c.get(num, 0) / c[den] if c.get(den) else 0.0
        for name in PEAKS:
            out[name] = c.get(name, 0.0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["id", "job", "parent", "name", "start", "end"]}) + "\n")
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def layer_metrics(tracer: Tracer, traced_jobs: list[int]) -> dict[str, float]:
    """Time metrics: median over the traced jobs of each job's value.
    Count metrics: those of the first traced job, so that they repeat
    exactly for one seed whatever the number of jobs a run fits."""
    times = tracer.job_times()
    out = {}
    for metric in [*COVER, *SELF]:
        out[metric] = statistics.median(times[j].get(metric, 0.0) for j in traced_jobs)
    out.update(tracer.job_counts(traced_jobs[0]))
    return out


METRIC_UNITS = {
    **{m: "s" for m in [*COVER, *SELF]},
    **{m: "count" for m in COUNTS},
    **{m: "ratio" for m in RATIOS},
    "linalg.matmul_flops": "flop_computed",
    "linalg.matmul_bytes": "B_computed",
    "linalg.block_mb": "MB_computed",
    "cache.bytes": "B",
}


# -- counter hooks: after(tracer, args, kwargs, result) ---------------------------


def _count(name: str):
    def after(t: Tracer, args, kwargs, result) -> None:
        t.count(name)

    return after


def _table_entries(t: Tracer, args, kwargs, result) -> None:
    t.count("words.table_entries", getattr(result, "size", None) or len(result))


def _derived_level(t: Tracer, args, kwargs) -> int | None:
    """Derived level a `_derived_step(spec, prev, from_full)` call computes:
    1 from the full space, one more than a level computed earlier in the
    job, None for any other subspace (as in the Lemma-1 check)."""
    prev = args[1] if len(args) > 1 else kwargs["prev"]
    from_full = args[2] if len(args) > 2 else kwargs["from_full"]
    if from_full:
        return 1
    return t._levels[prev] + 1 if prev in t._levels else None


def _derived_name(t: Tracer, args, kwargs) -> str:
    level = _derived_level(t, args, kwargs)
    return f"algebra.derived_step.L{level}" if level else "algebra.derived_step.other"


def _derived_done(t: Tracer, args, kwargs, result) -> None:
    level = _derived_level(t, args, kwargs)
    if level is not None:
        t._levels[result] = level


def _inserted_rows(t: Tracer, args, kwargs, result) -> None:
    _inserted(t, args[0], args[1].shape[0], result)


def _inserted_row(t: Tracer, args, kwargs, result) -> None:
    _inserted(t, args[0], 1, int(result))


def _inserted(t: Tracer, block, offered: int, gained: int) -> None:
    parent = t.parent_name or ""
    group = "derived_step" if parent.startswith("algebra.derived_step.") else INSERT_PARENTS.get(parent, "other")
    t.count("linalg.rows_offered", offered)
    t.count("linalg.rank_gained", gained)
    t.count(f"linalg.rows_offered.{group}", offered)
    t.count(f"linalg.rank_gained.{group}", gained)
    t.peak("linalg.block_mb", block.rank * block.dim * 8 / 1e6)


def _tested_matrix(t: Tracer, args, kwargs, result) -> None:
    t.count("linalg.rows_tested", args[1].shape[0])


def _tested_vector(t: Tracer, args, kwargs, result) -> None:
    t.count("linalg.rows_tested", len(args[1].parts))


def _matmul(t: Tracer, args, kwargs, result) -> None:
    arith, a, b = args[0], args[1], args[2]
    m = a.shape[0] if a.ndim == 2 else 1
    k = a.shape[-1]
    n = b.shape[-1] if b.ndim == 2 else 1
    t.count("linalg.matmul_calls")
    t.count("linalg.matmul_flops", 2 * m * k * n)
    t.count("linalg.matmul_bytes", 8 * (m * k + k * n + m * n))
    # the kernel's own exactness bound selects float64 BLAS
    if arith.p is not None and k * (arith.p - 1) ** 2 < 2**53:
        t.count("linalg.matmul_blas_calls")


def _checks(t: Tracer, args, kwargs, result) -> None:
    t.count("certify.checks", result.checked)


def _cache_get(t: Tracer, args, kwargs, result) -> None:
    if result is None:
        t.count("cache.misses")
        return
    t.count("cache.hits")
    t.count("cache.bytes", (Path(args[0]) / f"{args[1]}.json").stat().st_size)


def _cache_put(t: Tracer, args, kwargs, result) -> None:
    t.count("cache.bytes", (Path(args[0]) / f"{args[1]}.json").stat().st_size)
