"""The per-maintainer cache of compiled maintenance plans.

One :class:`PlanCache` lives inside each
:class:`~repro.core.maintainer.ViewMaintainer`.  It maps view names to
:class:`~repro.core.compiled.CompiledViewPlan` objects and tracks the
three events that matter for its correctness story:

* **hit** — a maintenance call executed an already-compiled plan;
* **miss** — no plan was cached (first use, post-invalidation, or the
  cache is disabled for ablation) and one was compiled;
* **invalidation** — a cached plan was discarded because something it
  depends on changed: an index was created or dropped, a base relation
  was dropped, or the view was re-registered under the same name.

The counters feed both the maintainer's ``stats`` mapping and — through
:mod:`repro.instrumentation` — the server's ``stats`` operation, so the
amortization claim ("plans are built once per view, not once per
transaction") is observable end to end.

Plan fingerprints (see :func:`repro.core.codegen.plan_fingerprint`)
cover the generated-source version, not just the normal form: every
plan carries ``("codegen", CODEGEN_VERSION)``, so bumping
``CODEGEN_VERSION`` when kernel emission changes misses on
:meth:`PlanCache.get` and recompiles — stale generated source is never
executed by a newer generator's runtime.
Invalidation also drops the compiled kernel artifacts along with the
plan: a static-irrelevance proof baked into generated screen source is
discarded the moment ``declare_constraint`` / ``drop_constraint``
changes what is provable.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.compiled import CompiledViewPlan
from repro.instrumentation import charge


class PlanCacheStats:
    """Cumulative hit/miss/invalidation counters for one cache."""

    __slots__ = ("hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "plan_cache_hits": self.hits,
            "plan_cache_misses": self.misses,
            "plan_cache_invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"<PlanCacheStats hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations}>"
        )


class PlanCache:
    """Compiled plans keyed by view name, with explicit invalidation.

    The cache never compiles anything itself — the maintainer owns
    compilation — it only stores, serves, and discards plans, charging
    the instrumentation counters as it goes.  A fingerprint check on
    :meth:`get` guards against serving a plan compiled for a different
    definition that happens to share the view's name (the
    re-registration race the invalidation path exists to prevent).
    """

    __slots__ = ("_plans", "stats")

    def __init__(self) -> None:
        self._plans: dict[str, CompiledViewPlan] = {}
        self.stats = PlanCacheStats()

    def get(
        self, name: str, fingerprint: tuple | None = None
    ) -> Optional[CompiledViewPlan]:
        """The cached plan for ``name``, or None (counted as hit/miss).

        When ``fingerprint`` is given, a cached plan whose definition
        identity differs is treated as stale: it is evicted and the call
        counts as a miss.
        """
        plan = self._plans.get(name)
        if plan is not None and fingerprint is not None:
            if plan.fingerprint != fingerprint:
                del self._plans[name]
                plan = None
        if plan is None:
            self.stats.misses += 1
            charge("plan_cache_misses")
            return None
        self.stats.hits += 1
        charge("plan_cache_hits")
        return plan

    def peek(self, name: str) -> Optional[CompiledViewPlan]:
        """The cached plan without touching the hit/miss counters."""
        return self._plans.get(name)

    def fingerprints(self) -> dict[str, tuple]:
        """Every cached plan's definition fingerprint, keyed by name.

        Purely observational — the staleness-audit hook: an external
        checker (the simulation harness's oracle, a debugging session)
        compares these against the live definitions' fingerprints to
        prove no cached plan outlived the definition it was compiled
        for.
        """
        return {name: plan.fingerprint for name, plan in self._plans.items()}

    def put(self, name: str, plan: CompiledViewPlan) -> CompiledViewPlan:
        """Store a freshly compiled plan (replacing any cached one)."""
        self._plans[name] = plan
        return plan

    def invalidate(self, name: str) -> bool:
        """Discard one view's plan; True when a plan was cached."""
        plan = self._plans.pop(name, None)
        if plan is None:
            return False
        self.stats.invalidations += 1
        charge("plan_cache_invalidations")
        return True

    def invalidate_all(self) -> int:
        """Discard every cached plan; returns how many were discarded."""
        count = len(self._plans)
        if count:
            self._plans.clear()
            self.stats.invalidations += count
            charge("plan_cache_invalidations", count)
        return count

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, name: str) -> bool:
        return name in self._plans

    def __iter__(self) -> Iterator[str]:
        return iter(self._plans)

    def __repr__(self) -> str:
        return f"<PlanCache {len(self._plans)} plans, {self.stats!r}>"
