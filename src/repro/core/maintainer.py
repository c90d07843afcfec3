"""The view maintainer: filter, then differentially re-evaluate.

This is the top of the paper's architecture.  All database updates are
"first filtered to remove from consideration those that cannot possibly
affect the view" (Section 4); for the remaining updates "a differential
algorithm can be applied to re-evaluate the view expression"
(Section 5).  :class:`ViewMaintainer` wires both stages into a
database's commit pipeline:

* **Immediate** views are brought up to date inside every commit — the
  paper's default assumption ("views are materialized every time a
  transaction updates the database").
* **Deferred** views are *snapshots* [AL80]: commits only compose the
  net deltas per view, and :meth:`refresh` applies the accumulated
  change on demand, through exactly the same differential machinery.

Both paths execute **compiled maintenance plans**
(:class:`~repro.core.compiled.CompiledViewPlan`): the relevance
screens, join orders, pushdown decisions and index bindings are built
once per view — eagerly at registration — cached in a
:class:`~repro.core.plancache.PlanCache`, and invalidated when a DDL
event (index create/drop, relation drop, view re-registration) could
stale them.  Every consumer of the maintainer — immediate commits,
deferred ``refresh``, WAL-replay recovery, changefeed followers, the
network view-server — therefore runs the same cached plan; the
``use_plan_cache`` switch disables reuse for ablation measurements.
"""

from __future__ import annotations

import contextlib
import enum
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta, Relation
from repro.core.codegen import CodegenStats, plan_fingerprint
from repro.core.compiled import CompiledViewPlan
from repro.core.plancache import PlanCache
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis import AnalysisReport
    from repro.core.consistency import ConsistencyReport
    from repro.scheduler.selfmaint import SelfMaintainability


class MaintenancePolicy(enum.Enum):
    """When a view is brought up to date."""

    #: Inside every committing transaction (the paper's main setting).
    IMMEDIATE = "immediate"
    #: On demand / periodically — snapshot refresh (Section 6, [AL80]).
    DEFERRED = "deferred"


class MaintenanceStats:
    """Per-view maintenance counters."""

    __slots__ = (
        "transactions_seen",
        "transactions_skipped",
        "deltas_applied",
        "tuples_screened",
        "tuples_irrelevant",
        "tuples_static_dropped",
        "view_tuples_inserted",
        "view_tuples_deleted",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_invalidations",
    )

    def __init__(self) -> None:
        self.transactions_seen = 0
        self.transactions_skipped = 0
        self.deltas_applied = 0
        self.tuples_screened = 0
        self.tuples_irrelevant = 0
        self.tuples_static_dropped = 0
        self.view_tuples_inserted = 0
        self.view_tuples_deleted = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_invalidations = 0

    def as_dict(self) -> dict[str, int]:
        """Counter values as a plain dict (for reports)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<MaintenanceStats {inner}>"


class ViewMaintainer:
    """Maintains a set of materialized views over one database.

    Parameters
    ----------
    database:
        The database whose commits to observe.
    use_relevance_filter:
        Screen deltas with the Section 4 filter before differential
        evaluation (default on; E10's ablation switch).
    share_subexpressions:
        Memoize partial joins across truth-table rows (default on;
        E13's ablation switch).
    use_indexes:
        Lazily create hash indexes on base relations so OLD operands
        are probed rather than re-hashed per transaction (default on).
    use_plan_cache:
        Reuse compiled maintenance plans across transactions (default
        on; E21's ablation switch — off compiles a fresh plan per
        maintenance call, restoring the pre-cache behavior).
    use_counter_free:
        Let compiled plans pin the Section 5.2 multiplicity counters to
        one when the chase over declared keys proves every view row has
        multiplicity ≤ 1 (default on; E26's ablation switch — off keeps
        full counter arithmetic even when the proof succeeds).  The
        fact is re-proved per plan compile and key DDL invalidates
        plans, so the switch never changes results, only the kernels'
        arithmetic.
    strict:
        Default for :meth:`define_view`'s ``strict`` parameter: run the
        static analyzer (:mod:`repro.analysis`) on every new definition
        and reject registrations with ERROR-level findings
        (:class:`~repro.errors.StrictAnalysisError`).
    auto_verify:
        After every maintenance step, recompute the view from scratch
        and compare — a self-checking mode for tests and debugging.
    """

    def __init__(
        self,
        database: Database,
        use_relevance_filter: bool = True,
        share_subexpressions: bool = True,
        use_indexes: bool = True,
        use_plan_cache: bool = True,
        use_counter_free: bool = True,
        strict: bool = False,
        auto_verify: bool = False,
    ) -> None:
        self.database = database
        self.use_relevance_filter = use_relevance_filter
        self.share_subexpressions = share_subexpressions
        self.use_indexes = use_indexes
        self.use_plan_cache = use_plan_cache
        self.use_counter_free = use_counter_free
        self.strict = strict
        self.auto_verify = auto_verify
        #: Cumulative codegen counters; owned here (not by plans) so
        #: they survive plan-cache evictions and recompiles.
        self._codegen_stats = CodegenStats()
        self._views: dict[str, MaterializedView] = {}
        self._policies: dict[str, MaintenancePolicy] = {}
        self._pending: dict[str, dict[str, Delta]] = {}
        #: Commits that touched a deferred view's operands since its
        #: last refresh — the backlog measure staleness SLAs bound.
        #: (Distinct from len(_pending): composition nets per relation.)
        self._commits_since_refresh: dict[str, int] = {}
        self._stats: dict[str, MaintenanceStats] = {}
        #: Per view: names it reads (base relations and upstream views).
        self._dependencies: dict[str, frozenset[str]] = {}
        self._subscribers: dict[str, list[Callable[[MaterializedView, Delta], None]]] = {}
        self._plan_cache = PlanCache()
        #: True while _maintain runs: a plan's own lazy index creation
        #: must not invalidate the plan executing it.
        self._in_maintenance = False
        database.add_commit_hook(self._on_commit)
        database.add_ddl_hook(self._on_ddl)

    # ------------------------------------------------------------------
    # View management
    # ------------------------------------------------------------------
    def define_view(
        self,
        name: str,
        expression: Expression,
        policy: MaintenancePolicy = MaintenancePolicy.IMMEDIATE,
        strict: bool | None = None,
    ) -> MaterializedView:
        """Register and materialize a view.

        The initial materialization is a complete evaluation of the
        defining expression — differential maintenance takes over from
        the next commit.

        The expression may reference *other registered views* by name
        (views over views): the upstream view then acts as a base
        relation whose per-commit delta is the one this maintainer just
        applied to it.  Upstream views must be IMMEDIATE — a deferred
        upstream has no per-commit delta to propagate.

        With ``strict`` (default: the maintainer's ``strict`` setting)
        the definition first runs through the static analyzer; any
        ERROR-level finding — today, a provably unsatisfiable condition
        (the view would be empty in every database state) — rejects the
        registration with :class:`~repro.errors.StrictAnalysisError`
        before anything is materialized.  WARN/INFO findings never
        block; read them via :meth:`analyze`.
        """
        definition, referenced = self._validated_definition(name, expression)
        effective_strict = self.strict if strict is None else strict
        if effective_strict:
            from repro.analysis import Severity, analyze_definition
            from repro.errors import StrictAnalysisError

            findings = analyze_definition(
                definition,
                constraints=self.database.constraints,
                keys=self.database.keys,
                view_operands=referenced & self._views.keys(),
            )
            errors = tuple(
                f for f in findings if f.severity is Severity.ERROR
            )
            if errors:
                raise StrictAnalysisError(name, errors)
        view = MaterializedView.materialize(definition, self._combined_instances())
        return self._install_view(view, referenced, policy)

    def restore_view(
        self,
        name: str,
        expression: Expression,
        contents: Relation,
        policy: MaintenancePolicy = MaintenancePolicy.IMMEDIATE,
        verify: bool = False,
    ) -> MaterializedView:
        """Register a view with pre-computed contents — no evaluation.

        This is the rebuild-from-snapshot path used by crash recovery
        (:class:`repro.replication.recovery.Recovery`): a checkpoint
        carries each view's stored relation (multiplicity counters
        included), so after a restart the view is re-adopted
        byte-for-byte and the replayed write-ahead-log tail flows
        through the normal differential pipeline — the view is never
        recomputed from scratch.

        ``contents`` must match the definition's *stored* schema by
        attribute names — the visible schema for plain views, the SPJ
        core's schema for aggregate views (checkpoints persist the core
        support relation; visible group rows are derived and re-rendered
        here).  Rows are re-encoded against the catalog's domains.
        ``verify`` recomputes the view and compares, turning a stale or
        tampered snapshot into an immediate error instead of a silently
        diverging view.
        """
        definition, referenced = self._validated_definition(name, expression)
        if definition.aggregate is not None:
            expected = definition.normal_form.output_schema()
            if tuple(contents.schema.names) != tuple(expected.names):
                raise MaintenanceError(
                    f"restored contents for aggregate view {name!r} have "
                    f"schema {list(contents.schema.names)}, expected the "
                    f"core support schema {list(expected.names)} (aggregate "
                    "checkpoints store the core rows, not the rendered "
                    "group rows)"
                )
            adopted = Relation(expected)
            for values, count in contents.items():
                adopted.add(tuple(contents.schema.decode_values(values)), count)
            from repro.core.aggregates import AggregateState

            state = AggregateState.from_core(definition.aggregate, adopted)
            view = MaterializedView(definition, state.visible_relation(), state)
            if verify:
                from repro.core.consistency import check_view_consistency

                check_view_consistency(view, self._combined_instances())
            return self._install_view(view, referenced, policy)
        expected = definition.output_schema()
        if tuple(contents.schema.names) != tuple(expected.names):
            raise MaintenanceError(
                f"restored contents for view {name!r} have schema "
                f"{list(contents.schema.names)}, expected {list(expected.names)}"
            )
        adopted = Relation(expected)
        for values, count in contents.items():
            adopted.add(tuple(contents.schema.decode_values(values)), count)
        view = MaterializedView(definition, adopted)
        if verify:
            from repro.core.consistency import check_view_consistency

            check_view_consistency(view, self._combined_instances())
        return self._install_view(view, referenced, policy)

    def _validated_definition(
        self, name: str, expression: Expression
    ) -> tuple[ViewDefinition, frozenset[str]]:
        """Shared registration checks for new and restored views."""
        if name in self._views:
            raise MaintenanceError(f"view {name!r} is already defined")
        if name in self.database.relation_names():
            raise MaintenanceError(
                f"view name {name!r} collides with a base relation; views "
                "and relations share one namespace (stacked views resolve "
                "references through it)"
            )
        definition = ViewDefinition(name, expression, self._combined_catalog())
        referenced = frozenset(definition.normal_form.relation_names)
        view_deps = referenced & self._views.keys()
        for dep in sorted(view_deps):
            if self._policies[dep] is not MaintenancePolicy.IMMEDIATE:
                raise MaintenanceError(
                    f"view {name!r} references deferred view {dep!r}; "
                    "stacked views require IMMEDIATE upstream maintenance"
                )
        return definition, referenced

    def _install_view(
        self,
        view: MaterializedView,
        referenced: frozenset[str],
        policy: MaintenancePolicy,
    ) -> MaterializedView:
        name = view.definition.name
        view.last_refresh_sequence = self.database.log.last_sequence()
        # Re-registration under a previously used name must never serve
        # the old definition's plan (drop_view already invalidates; this
        # also covers plans that survived an earlier detach()).
        self._plan_cache.invalidate(name)
        self._views[name] = view
        self._policies[name] = policy
        self._pending[name] = {}
        self._commits_since_refresh[name] = 0
        self._stats[name] = MaintenanceStats()
        self._dependencies[name] = referenced
        if self.use_plan_cache:
            # Compile eagerly: registration is the natural compile
            # point, and the first transaction then executes a cached
            # plan like every later one.
            self._plan_cache.put(name, self._compile_plan(view.definition))
        return view

    def drop_view(self, name: str) -> None:
        """Forget a view (its contents are discarded)."""
        self._require_view(name)
        dependants = [
            other
            for other, deps in self._dependencies.items()
            if name in deps and other != name
        ]
        if dependants:
            raise MaintenanceError(
                f"cannot drop view {name!r}: referenced by {sorted(dependants)}"
            )
        del self._views[name]
        del self._policies[name]
        del self._pending[name]
        del self._commits_since_refresh[name]
        del self._stats[name]
        del self._dependencies[name]
        self._subscribers.pop(name, None)
        self._plan_cache.invalidate(name)

    # ------------------------------------------------------------------
    # Compiled plans
    # ------------------------------------------------------------------
    def _compile_plan(self, definition: ViewDefinition) -> CompiledViewPlan:
        """Build a fresh compiled plan for one registered definition."""
        referenced = frozenset(definition.normal_form.relation_names)
        return CompiledViewPlan(
            definition,
            self.database,
            self._combined_catalog(),
            view_operands=referenced & self._views.keys(),
            share_subexpressions=self.share_subexpressions,
            use_indexes=self.use_indexes,
            use_counter_free=self.use_counter_free,
            codegen_stats=self._codegen_stats,
        )

    def expected_plan_fingerprint(self, name: str) -> tuple:
        """The fingerprint a served plan for ``name`` must carry *now*.

        Combines the registered definition's structural fingerprint
        with the generator version — the value the cache audit in the
        simulation oracle compares cached plans against.
        """
        self._require_view(name)
        definition = self._views[name].definition
        return plan_fingerprint(definition.normal_form, definition.aggregate)

    def codegen_stats(self) -> CodegenStats:
        """Cumulative codegen counters across all plans and recompiles."""
        return self._codegen_stats

    def kernel_source(self, name: str) -> str:
        """The generated kernel source for one view's current plan."""
        self._require_view(name)
        return self._plan_for(name).kernel_source()

    def _plan_for(self, name: str) -> CompiledViewPlan:
        """The plan a maintenance call executes — cached when possible.

        With the cache enabled this is a hit except right after an
        invalidation (the miss recompiles and re-caches).  With the
        cache disabled every call is a counted miss compiling a
        throwaway plan — the E21 ablation's cost model.
        """
        view = self._views[name]
        stats = self._stats[name]
        fingerprint = plan_fingerprint(
            view.definition.normal_form, view.definition.aggregate
        )
        plan = self._plan_cache.get(name, fingerprint)
        if plan is not None:
            stats.plan_cache_hits += 1
            return plan
        stats.plan_cache_misses += 1
        plan = self._compile_plan(view.definition)
        if self.use_plan_cache:
            self._plan_cache.put(name, plan)
        return plan

    def compiled_plan(self, name: str) -> CompiledViewPlan | None:
        """The currently cached plan for ``name`` (None when absent).

        Purely observational: does not compile and does not touch the
        hit/miss counters.
        """
        self._require_view(name)
        return self._plan_cache.peek(name)

    def plan_cache_stats(self) -> dict[str, int]:
        """Maintainer-wide plan-cache counters (hits/misses/invalidations)."""
        return self._plan_cache.stats.as_dict()

    def plan_fingerprints(self) -> dict[str, tuple]:
        """Cached plans' definition fingerprints (see PlanCache.fingerprints)."""
        return self._plan_cache.fingerprints()

    def _on_ddl(self, event: str, relation_name: str) -> None:
        """Invalidate plans a schema change could have staled.

        Index drops are the correctness-critical case — a cached plan
        holds direct bindings to index objects that stop being
        maintained the moment they leave the manager.  Index creation,
        relation drop/re-creation and anything else touching an operand
        invalidate too: the cheapest sound answer is to recompile, and
        compilation is exactly what this cache made rare.  The one
        exception is index creation *by a running plan* (the lazy
        binding path), which must not invalidate the plan executing it.
        """
        if event == "create_index" and self._in_maintenance:
            return
        for name, deps in self._dependencies.items():
            if relation_name in deps and self._plan_cache.invalidate(name):
                self._stats[name].plan_cache_invalidations += 1

    # ------------------------------------------------------------------
    # Combined catalogs (base relations + registered views)
    # ------------------------------------------------------------------
    def _combined_catalog(self):
        catalog = dict(self.database.schema_catalog())
        for view_name, view in self._views.items():
            catalog[view_name] = view.contents.schema
        return catalog

    def _combined_instances(self):
        instances = dict(self.database.instances())
        for view_name, view in self._views.items():
            instances[view_name] = view.contents
        return instances

    def subscribe(
        self, name: str, callback: Callable[[MaterializedView, Delta], None]
    ) -> None:
        """Receive every non-empty delta applied to view ``name``.

        Callbacks run right after the delta is applied (and after
        ``auto_verify``, when enabled), inside the commit for immediate
        views and inside ``refresh()`` for deferred ones.  This is the
        natural hook for alerters [BC79]: the view delta *is* the alert
        stream.
        """
        self._require_view(name)
        self._subscribers.setdefault(name, []).append(callback)

    def unsubscribe(
        self, name: str, callback: Callable[[MaterializedView, Delta], None]
    ) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        with contextlib.suppress(ValueError):
            self._subscribers.get(name, []).remove(callback)

    def view(self, name: str) -> MaterializedView:
        """The materialized view registered under ``name``."""
        self._require_view(name)
        return self._views[name]

    def view_names(self) -> tuple[str, ...]:
        """All registered view names, sorted."""
        return tuple(sorted(self._views))

    def stats(self, name: str) -> MaintenanceStats:
        """Maintenance counters for one view."""
        self._require_view(name)
        return self._stats[name]

    def all_stats(self) -> dict[str, dict[str, int]]:
        """Every view's maintenance counters as plain dicts.

        The JSON-ready form served by the view-server's ``stats`` op
        and convenient for ad-hoc reporting; per-view
        :class:`MaintenanceStats` objects stay available via
        :meth:`stats`.
        """
        return {name: self._stats[name].as_dict() for name in self.view_names()}

    def policy(self, name: str) -> MaintenancePolicy:
        """The registered maintenance policy for one view."""
        self._require_view(name)
        return self._policies[name]

    def explain(self, name: str, changed_relations: Iterable[str]) -> str:
        """Describe the compiled maintenance plan for a hypothetical update.

        ``changed_relations`` names the base relations a transaction
        would touch; the returned text shows the invariant/variant
        screening split, the truth-table rows, the delta-first join
        order with its pushdown decisions, and the hash index each OLD
        probe binds — the plan a real transaction with this shape would
        execute, served from the same cache.
        """
        self._require_view(name)
        return self._plan_for(name).describe(changed_relations)

    def analyze(self) -> "AnalysisReport":
        """Run the full static analyzer over every registered view.

        Per-view checks (unsatisfiable conditions, dead disjuncts,
        redundant atoms, loosenable bounds, static irrelevance under
        declared constraints, compiled-plan lint) plus the cross-view
        subsumption/equivalence pass.  Returns an
        :class:`~repro.analysis.AnalysisReport`; rendering it with
        ``format()`` or ``as_json()`` is deterministic for a given
        catalog state.
        """
        from repro.analysis import analyze_maintainer

        return analyze_maintainer(self)

    def recommended_indexes(self, name: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Indexes the planner would probe while maintaining this view.

        Simulates the delta-first plan for every single-relation update
        (the common case) and collects, for each OLD operand joined by
        equality links, the base relation and link attributes — exactly
        the indexes the lazy path would create on first use.  Returns
        sorted ``(relation_name, attributes)`` pairs.
        """
        self._require_view(name)
        plan = self._plan_for(name)
        normal_form = plan.execution_normal_form
        recommendations: set[tuple[str, tuple[str, ...]]] = set()
        for changed in range(len(normal_form.occurrences)):
            planner = plan.planner_for([changed])
            for step in planner.steps:
                if step.position == changed or not step.link_attr_names:
                    continue
                occurrence = normal_form.occurrences[step.position]
                if occurrence.name in self._views:
                    continue  # view operands carry no persistent index
                base_attrs = tuple(
                    occurrence.inverse[q] for q in step.link_attr_names
                )
                recommendations.add((occurrence.name, base_attrs))
        return tuple(sorted(recommendations))

    def create_recommended_indexes(self, name: str) -> int:
        """Eagerly create every recommended index; returns how many.

        Without this, the same indexes appear lazily on first use; with
        it, the first maintenance after a bulk load avoids the one-off
        index-build latency.
        """
        created = 0
        for relation_name, attrs in self.recommended_indexes(name):
            before = self.database.indexes.lookup(relation_name, attrs)
            self.database.create_index(relation_name, attrs)
            if before is None:
                created += 1
        return created

    def report(self) -> str:
        """A formatted per-view maintenance summary table."""
        from repro.bench.reporting import format_table

        rows = []
        for name in self.view_names():
            stats = self._stats[name]
            rows.append(
                [
                    name,
                    self._policies[name].value,
                    len(self._views[name].contents),
                    stats.transactions_seen,
                    stats.transactions_skipped,
                    stats.deltas_applied,
                    stats.tuples_screened,
                    stats.tuples_irrelevant,
                ]
            )
        return format_table(
            [
                "view",
                "policy",
                "tuples",
                "seen",
                "skipped",
                "applied",
                "screened",
                "irrelevant",
            ],
            rows,
            title="view maintenance summary",
        )

    def detach(self) -> None:
        """Stop observing commits (views stop being maintained)."""
        self.database.remove_commit_hook(self._on_commit)
        self.database.remove_ddl_hook(self._on_ddl)

    def _require_view(self, name: str) -> None:
        if name not in self._views:
            raise UnknownViewError(f"no view named {name!r}")

    # ------------------------------------------------------------------
    # Commit-side
    # ------------------------------------------------------------------
    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        if not deltas:
            return
        # Views are processed in definition order: upstream views exist
        # before anything that references them, so each view's operand
        # deltas — base-relation deltas from the transaction plus the
        # view deltas just applied upstream — are ready when needed.
        applied_view_deltas: dict[str, Delta] = {}
        for name, view in self._views.items():
            effective: dict[str, Delta] = {}
            for dep in self._dependencies[name]:
                delta = deltas.get(dep)
                if delta is None:
                    delta = applied_view_deltas.get(dep)
                if delta is not None and not delta.is_empty():
                    effective[dep] = delta
            if not effective:
                continue
            if self._policies[name] is MaintenancePolicy.IMMEDIATE:
                view_delta = self._maintain(name, view, effective)
                if not view_delta.is_empty():
                    applied_view_deltas[name] = view_delta
            else:
                self._commits_since_refresh[name] += 1
                pending = self._pending[name]
                for relation_name, delta in effective.items():
                    existing = pending.get(relation_name)
                    composed = (
                        delta if existing is None else existing.compose(delta)
                    )
                    if composed.is_empty():
                        pending.pop(relation_name, None)
                    else:
                        pending[relation_name] = composed

    def apply_deltas(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        """Maintain every view from externally supplied net deltas.

        The commit pipeline calls the same entry point through its
        hook; this public seam exists for **base-free hosts**
        (``base_free=True`` followers and shard nodes): they hold no
        base-relation rows to commit against, so they decode shipped
        deltas and feed them here directly.  Stacked views, deferred
        composition, subscribers and statistics all behave exactly as
        for a local commit.  Callers own sequencing: deltas must arrive
        in commit order, and the database log must be advanced so
        ``last_refresh_sequence`` bookkeeping stays meaningful.
        """
        self._on_commit(txn_id, deltas)

    # ------------------------------------------------------------------
    # Self-maintainability
    # ------------------------------------------------------------------
    def self_maintainability(self, name: str) -> "SelfMaintainability":
        """Classify one registered view (see
        :func:`repro.scheduler.selfmaint.classify_self_maintainability`);
        the proof uses the database's declared constraints and keys."""
        self._require_view(name)
        from repro.scheduler.selfmaint import classify_self_maintainability

        return classify_self_maintainability(
            self._views[name].definition,
            self.database.constraints,
            self.database.keys,
        )

    def is_self_maintainable(self, name: str) -> bool:
        """Can this view be maintained from its contents + deltas alone?

        True exactly when a base-free host could carry the view: no
        maintenance step ever consults base-relation state.  Sound but
        not complete (a ``False`` may be conservative).
        """
        return self.self_maintainability(name).self_maintainable

    # ------------------------------------------------------------------
    # Refresh-side (deferred views)
    # ------------------------------------------------------------------
    def refresh(self, name: str) -> bool:
        """Bring a deferred view up to date; True when work was done.

        The composed deltas accumulated since the last refresh behave
        exactly like one large transaction's net effect, so the same
        filter + differential pipeline applies (the paper's closing
        observation that its approach "also applies to this
        environment").
        """
        self._require_view(name)
        view = self._views[name]
        pending = self._pending[name]
        self._commits_since_refresh[name] = 0
        if not pending:
            view.last_refresh_sequence = self.database.log.last_sequence()
            return False
        self._pending[name] = {}
        self._maintain(name, view, pending)
        return True

    def pending_deltas(self, name: str) -> dict[str, Delta]:
        """A deferred view's composed, not-yet-applied deltas."""
        self._require_view(name)
        return dict(self._pending[name])

    def backlog(self, name: str) -> dict[str, int]:
        """How stale one view is, as four observable measures.

        * ``pending_relations`` — relations with a composed pending
          delta (deferred views; 0 for immediate ones);
        * ``pending_delta_size`` — net tuples across those composed
          deltas (inserts plus deletes after cancellation);
        * ``commits_since_refresh`` — commits that touched the view's
          operands since the last refresh (composition may net the
          *deltas* away, but the commit count still ages the snapshot);
        * ``sequence_lag`` — log sequences between the database head
          and the view's ``last_refresh_sequence``.

        The `stats` server op and the CLI ``stats <view>`` line expose
        these, and the staleness-SLA scheduler prioritizes by them.
        """
        self._require_view(name)
        pending = self._pending[name]
        return {
            "pending_relations": len(pending),
            "pending_delta_size": sum(
                delta.insert_count() + delta.delete_count()
                for delta in pending.values()
            ),
            "commits_since_refresh": self._commits_since_refresh[name],
            "sequence_lag": max(
                0,
                self.database.log.last_sequence()
                - self._views[name].last_refresh_sequence,
            ),
        }

    # ------------------------------------------------------------------
    # Quiescent points
    # ------------------------------------------------------------------
    def quiesce(self) -> tuple[str, ...]:
        """Bring every view up to date; returns the names that changed.

        Immediate views are always current, so this amounts to
        refreshing every deferred view's composed backlog.  Afterwards
        the maintainer is at a *quiescent point*: every registered view
        equals its definition evaluated against the current base state
        — the precondition :meth:`verify_all` checks, and the moment
        the simulation harness's oracle runs.
        """
        refreshed = []
        for name in self.view_names():
            if self._policies[name] is MaintenancePolicy.DEFERRED:
                if self.refresh(name):
                    refreshed.append(name)
        return tuple(refreshed)

    def verify_all(
        self, raise_on_mismatch: bool = True
    ) -> "dict[str, ConsistencyReport]":
        """Full-recompute oracle over every registered view.

        Each view's defining expression is evaluated from scratch
        against the current base relations (and upstream views, for
        stacked definitions) and diffed — multiplicity counters
        included — against the maintained contents.  Only meaningful at
        a quiescent point (:meth:`quiesce` first, or no deferred
        backlog).  With ``raise_on_mismatch`` the first divergence
        raises :class:`~repro.errors.MaintenanceError`; otherwise the
        per-view reports are returned for inspection either way.
        """
        from repro.core.consistency import check_view_consistency

        instances = self._combined_instances()
        reports: dict[str, ConsistencyReport] = {}
        for name in self.view_names():
            reports[name] = check_view_consistency(
                self._views[name], instances, raise_on_mismatch=raise_on_mismatch
            )
        return reports

    # ------------------------------------------------------------------
    # The filter + differential pipeline
    # ------------------------------------------------------------------
    def _maintain(
        self, name: str, view: MaterializedView, deltas: Mapping[str, Delta]
    ) -> Delta:
        """Execute the compiled plan; returns the applied view delta
        (empty when everything was screened)."""
        stats = self._stats[name]
        stats.transactions_seen += 1
        plan = self._plan_for(name)

        self._in_maintenance = True
        try:
            relevant: dict[str, Delta] = {}
            for relation_name, delta in deltas.items():
                if self.use_relevance_filter:
                    filtered, filter_stats = plan.screen(relation_name, delta)
                    stats.tuples_screened += filter_stats.checked
                    stats.tuples_irrelevant += filter_stats.irrelevant
                    stats.tuples_static_dropped += filter_stats.static_dropped
                    if not filtered.is_empty():
                        relevant[relation_name] = filtered
                else:
                    if not delta.is_empty():
                        relevant[relation_name] = delta

            if not relevant:
                # Every update was provably irrelevant: the view is
                # already up to date — the payoff Section 4 is after.
                stats.transactions_skipped += 1
                charge("transactions_skipped_irrelevant")
                view.last_refresh_sequence = self.database.log.last_sequence()
                return Delta(view.contents.schema)

            view_delta = plan.compute_delta(self._combined_instances(), relevant)
            if view.aggregate_state is not None:
                # The pipeline produced a delta over the SPJ *core*; the
                # fold stage turns it into the visible group-row delta
                # every downstream consumer (contents, subscribers,
                # changefeeds, stacked views) sees.
                view_delta = plan.fold_aggregate(view.aggregate_state, view_delta)
        finally:
            self._in_maintenance = False
        stats.view_tuples_inserted += len(view_delta.inserted)
        stats.view_tuples_deleted += len(view_delta.deleted)
        view.apply_delta(view_delta)
        stats.deltas_applied += 1
        view.last_refresh_sequence = self.database.log.last_sequence()

        if self.auto_verify:
            from repro.core.consistency import check_view_consistency

            check_view_consistency(view, self._combined_instances())

        if not view_delta.is_empty():
            for callback in self._subscribers.get(name, ()):
                callback(view, view_delta)
        return view_delta

    def __repr__(self) -> str:
        return (
            f"<ViewMaintainer {len(self._views)} views, "
            f"filter={'on' if self.use_relevance_filter else 'off'}, "
            f"sharing={'on' if self.share_subexpressions else 'off'}, "
            f"plan_cache={'on' if self.use_plan_cache else 'off'} "
            f"({len(self._plan_cache)} plans)>"
        )
