"""Compiled maintenance plans: one per view, built once, executed often.

Algorithm 4.1 is explicitly *amortized*: the invariant portion of the
screening condition is split out (Definition 4.2) so that its
constraint graph and all-pairs shortest paths are built once and reused
for every tuple in a batch.  This module extends the same amortization
from "once per batch" to "once per view registration":

* the Section 4 relevance screens (normalization, invariant/variant
  split, Floyd–Warshall APSP) are built per participating relation at
  compile time and reused by every subsequent transaction;
* the Section 5 row planners (delta-first join order, hash-join links,
  selection pushdown, projection positions) are built per truth-table
  shape — the tuple of changed occurrence positions — and cached;
* OLD-operand probes bind to persistent hash indexes once, and the
  bindings are kept until an index create/drop, relation drop or view
  re-registration invalidates the whole plan.

A :class:`CompiledViewPlan` is the unit the
:class:`~repro.core.plancache.PlanCache` stores and every maintenance
entry point — immediate commits, deferred ``refresh``, WAL-replay
recovery, changefeed followers, and the network view-server above them
— executes.  The plan is deliberately *stateless with respect to data*:
it holds no tuples, only derived control structure, so executing the
same plan against a replica produces byte-for-byte the leader's result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.algebra.expressions import NormalForm
from repro.algebra.relation import Delta, Relation
from repro.algebra.tags import Tag
from repro.algebra.schema import RelationSchema
from repro.analysis.dependencies import (
    FkReduction,
    ViewKey,
    derive_view_key,
    fk_reduction,
)
from repro.core.codegen import (
    AggregateKernel,
    CODEGEN_VERSION,
    CodegenStats,
    DeltaBatch,
    IndexProbe,
    ProbeFn,
    ScreenKernel,
    ShapeKernels,
    codegen_rows,
    compile_kernel,
    compile_shape_kernels,
    generate_aggregate_source,
    generate_screen_source,
    generate_shape_source,
    plan_fingerprint,
)
from repro.core.differential import changed_positions_for, execute_kernels
from repro.core.irrelevance import (
    FilterStats,
    RelevanceFilter,
    is_statically_irrelevant,
)
from repro.core.planner import RowPlanner
from repro.core.truthtable import count_delta_rows
from repro.core.views import ViewDefinition
from repro.errors import MaintenanceError
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.aggregates import AggregateState
    from repro.engine.database import Database
    from repro.engine.indexes import HashIndex

ValueTuple = tuple[int, ...]


class CompiledViewPlan:
    """Everything derivable from a view definition ahead of any delta.

    Parameters
    ----------
    definition:
        The view's validated definition (carries the normal form).
    database:
        The database whose base relations and indexes the plan binds.
    catalog:
        Schema catalog at compile time (base relations *and* upstream
        views), used to build relevance screens per operand relation.
    view_operands:
        Names among the view's operands that are themselves registered
        views — they carry no persistent index, and their screens bind
        against view output schemas.
    share_subexpressions, use_indexes:
        The owning maintainer's evaluation switches, frozen into the
        plan.  The plan emits batch kernels from generated source
        (:mod:`repro.core.codegen`) — screens and aggregate folds at
        registration time, row kernels per truth-table shape on first
        use — and executes those.
    use_counter_free:
        Allow the generated apply kernels to pin the Section 5.2
        multiplicity counters to one when the chase over declared keys
        proves every view row has multiplicity ≤ 1 (E26's ablation
        switch; the fact itself is re-proved at compile time from the
        database's key catalog, and key DDL invalidates the plan).
    codegen_stats:
        Optional maintainer-owned :class:`~repro.core.codegen.CodegenStats`
        sink; cumulative codegen counters survive plan eviction there.
    """

    __slots__ = (
        "definition",
        "normal_form",
        "fingerprint",
        "share_subexpressions",
        "use_indexes",
        "use_counter_free",
        "_database",
        "_view_operands",
        "_schemas",
        "_screens",
        "_static_irrelevant",
        "_index_bindings",
        "_codegen_stats",
        "_screen_kernels",
        "_shape_kernels",
        "_aggregate_source",
        "_aggregate_kernel",
        "_reduction",
        "_view_key",
        "_exec_normal_form",
    )

    def __init__(
        self,
        definition: ViewDefinition,
        database: "Database",
        catalog: Mapping[str, RelationSchema],
        view_operands: Iterable[str] = (),
        share_subexpressions: bool = True,
        use_indexes: bool = True,
        use_counter_free: bool = True,
        codegen_stats: CodegenStats | None = None,
    ) -> None:
        self.definition = definition
        self.normal_form: NormalForm = definition.normal_form
        #: Identity of the executable this plan is: the definition's
        #: structural fingerprint extended with the generated-source
        #: version.  The cache refuses to serve a plan whose fingerprint
        #: no longer matches the registered view and generator.
        self.fingerprint: tuple = plan_fingerprint(
            self.normal_form, definition.aggregate
        )
        self.share_subexpressions = share_subexpressions
        self.use_indexes = use_indexes
        self.use_counter_free = use_counter_free
        self._codegen_stats = codegen_stats
        self._database = database
        self._view_operands = frozenset(view_operands)
        # Chase-derived facts (keys DDL invalidates the plan, so they
        # are re-proved on every compile, like static irrelevance).
        # Both are gated on set-semantics operands: view operands are
        # bags, for which the multiplicity-≤-1 argument fails.
        self._reduction: FkReduction | None = None
        self._view_key: ViewKey | None = None
        if definition.aggregate is None and not self._view_operands:
            self._reduction = fk_reduction(self.normal_form, database.keys)
            self._view_key = derive_view_key(self.normal_form, database.keys)
        #: The normal form execution actually runs: the FK-reduced
        #: single-occurrence form when the chase proved one, the
        #: definition's own otherwise.  Planners, kernels, operand
        #: construction and index bindings all speak this form.
        self._exec_normal_form: NormalForm = (
            self._reduction.normal_form
            if self._reduction is not None
            else self.normal_form
        )
        self._schemas: dict[str, RelationSchema] = {}
        # Compile the Section 4 screens eagerly — one per participating
        # relation; this is the Definition 4.2 invariant split plus its
        # APSP, the paper's built-once structure.
        self._screens: dict[str, RelevanceFilter] = {}
        for name in set(self.normal_form.relation_names):
            try:
                schema = catalog[name]
            except KeyError:
                raise MaintenanceError(
                    f"cannot compile plan for view {definition.name!r}: "
                    f"operand {name!r} is not in the catalog"
                ) from None
            self._schemas[name] = schema
            self._screens[name] = RelevanceFilter(self.normal_form, name, schema)
        # Static irrelevance (the analyzer's check (d), proved here so
        # the *plan itself* carries the optimization): a relation whose
        # declared constraint makes C ∧ K_R unsatisfiable for every
        # occurrence can never contribute a relevant legal update, so
        # its deltas are dropped with zero per-tuple screening.  The
        # proof is part of the compiled plan; declare/drop-constraint
        # DDL events invalidate the plan, re-running it on recompile.
        constraints = database.constraints
        self._static_irrelevant: frozenset[str] = frozenset(
            name
            for name in self._screens
            if name not in self._view_operands
            and (constraint := constraints.get(name)) is not None
            and is_statically_irrelevant(self.normal_form, name, constraint)
        )
        #: (position, link_attrs) → bound HashIndex, or None for
        #: view-typed operands (no persistent index exists).
        self._index_bindings: dict[
            tuple[int, tuple[str, ...]], "HashIndex | None"
        ] = {}
        # Generated batch kernels.  Screen kernels are compiled eagerly
        # — they bake the APSP distances and any static-irrelevance
        # proof into source, so they must be rebuilt whenever the plan
        # is (constraint DDL invalidates the plan, not just a flag).
        # Shape kernels, each holding its row planner, are keyed by the
        # changed-position tuple (the truth-table shape) and compiled on
        # first use: a view over p relations has 2^p − 1 possible shapes
        # but a workload usually exercises a handful.
        self._screen_kernels: dict[str, tuple[str, ScreenKernel]] = {}
        self._shape_kernels: dict[tuple[int, ...], ShapeKernels] = {}
        # The aggregate fold kernel (when the view aggregates) compiles
        # eagerly with the screens: its shape depends only on the spec
        # and core schema, never on the incoming delta.
        self._aggregate_source: str | None = None
        self._aggregate_kernel: AggregateKernel | None = None
        for name in sorted(self._screens):
            source = generate_screen_source(
                name,
                self._screens[name],
                self._schemas[name],
                statically_irrelevant=name in self._static_irrelevant,
            )
            kernel = compile_kernel(
                source,
                "screen_kernel",
                f"<codegen:{definition.name}:screen:{name}>",
            )
            self._screen_kernels[name] = (source, kernel)
        if definition.aggregate is not None:
            source = generate_aggregate_source(
                definition.aggregate, self.normal_form.output_schema()
            )
            self._aggregate_source = source
            self._aggregate_kernel = compile_kernel(
                source,
                "fold_kernel",
                f"<codegen:{definition.name}:aggregate>",
            )
        charge("codegen_plans_compiled")
        if codegen_stats is not None:
            codegen_stats.plans_compiled += 1

    # ------------------------------------------------------------------
    # Section 4: screening
    # ------------------------------------------------------------------
    def screen(self, relation_name: str, delta: Delta) -> tuple[Delta, FilterStats]:
        """Screen one relation's delta through the compiled filter."""
        screen = self._screens.get(relation_name)
        if screen is None:
            # The relation does not participate in the view: everything
            # is irrelevant (Theorem 4.1's trivial case).
            stats = FilterStats()
            stats.checked = len(delta.inserted) + len(delta.deleted)
            stats.irrelevant = stats.checked
            return Delta(delta.schema), stats
        if relation_name in self._static_irrelevant:
            # Proven at compile time: no legal update to this relation
            # can affect the view, so the whole delta is discarded with
            # zero per-tuple screening work.
            stats = FilterStats()
            stats.checked = len(delta.inserted) + len(delta.deleted)
            stats.irrelevant = stats.checked
            stats.static_dropped = stats.checked
            charge("static_tuples_dropped", stats.checked)
            return Delta(delta.schema), stats
        if (
            self._reduction is not None
            and relation_name in self._reduction.probe_relations
        ):
            # The FK reduction proved probe-side updates can never
            # change the view (legal states keep the foreign key
            # satisfied, and the probe contributes only its referenced
            # key attributes, which the referencing side already
            # carries).  Dropped wholesale, like static irrelevance.
            stats = FilterStats()
            stats.checked = len(delta.inserted) + len(delta.deleted)
            stats.irrelevant = stats.checked
            stats.static_dropped = stats.checked
            charge("fk_probe_tuples_dropped", stats.checked)
            return Delta(delta.schema), stats
        return self._screen_batch(relation_name, screen, delta)

    def _screen_batch(
        self, relation_name: str, screen: RelevanceFilter, delta: Delta
    ) -> tuple[Delta, FilterStats]:
        """Run the generated screen kernel over one columnar batch.

        Functionally identical to the per-tuple Algorithm 4.1 reference
        :meth:`~repro.core.irrelevance.RelevanceFilter.screen_delta`,
        including every instrumentation counter — the kernel returns
        its per-tuple ground-eval and bound-probe tallies so they can
        be charged in bulk here.
        """
        kernel = self._screen_kernels[relation_name][1]
        batch = DeltaBatch.from_delta(delta)
        n = len(batch)
        mask = bytearray(n)
        ground_evals, bound_probes = kernel(batch.columns, n, mask)
        stats = FilterStats()
        stats.checked = n
        stats.relevant = sum(mask)
        stats.irrelevant = n - stats.relevant
        if n:
            charge("filter_tuples_checked", n)
            charge("codegen_batch_rows", n)
            if self._codegen_stats is not None:
                self._codegen_stats.batch_rows += n
        if ground_evals:
            charge("filter_ground_evals", ground_evals)
        if bound_probes:
            charge("filter_bound_probes", bound_probes)
        cumulative = screen.stats
        cumulative.checked += stats.checked
        cumulative.relevant += stats.relevant
        cumulative.irrelevant += stats.irrelevant
        return batch.to_delta(mask), stats

    @property
    def static_irrelevant(self) -> frozenset[str]:
        """Relations proven statically irrelevant under their constraints."""
        return self._static_irrelevant

    @property
    def view_operands(self) -> frozenset[str]:
        """Operand names that are themselves registered views (bags)."""
        return self._view_operands

    @property
    def execution_normal_form(self) -> NormalForm:
        """The normal form maintenance actually executes.

        The FK-reduced single-occurrence form when the chase over
        declared keys proved the probe lookups away; otherwise the
        definition's own normal form.
        """
        return self._exec_normal_form

    @property
    def reduction(self) -> FkReduction | None:
        """The chase's FK-join reduction, when one was proved."""
        return self._reduction

    @property
    def view_key(self) -> ViewKey | None:
        """The chase's derived view key, when one was proved."""
        return self._view_key

    @property
    def counter_free(self) -> bool:
        """Whether apply kernels pin the Section 5.2 counters to one.

        True only when the switch is on *and* the chase proved a view
        key (so every view row has multiplicity ≤ 1).
        """
        return self.use_counter_free and self._view_key is not None

    def screens(self) -> Mapping[str, RelevanceFilter]:
        """The compiled per-relation relevance filters (read-only)."""
        return dict(self._screens)

    # ------------------------------------------------------------------
    # Section 5: planners and execution
    # ------------------------------------------------------------------
    def planner_for(self, changed_positions: Iterable[int]) -> RowPlanner:
        """The row planner for one truth-table shape: the compiled
        shape's own once its kernels exist, else a fresh one."""
        key = tuple(sorted(set(changed_positions)))
        kernels = self._shape_kernels.get(key)
        if kernels is not None:
            return kernels.planner
        return RowPlanner(
            self._exec_normal_form,
            key,
            share_subexpressions=self.share_subexpressions,
        )

    def compute_delta(
        self,
        post_instances: Mapping[str, Relation],
        deltas: Mapping[str, Delta],
    ) -> Delta:
        """The net view change for one transaction, via cached kernels."""
        changed = changed_positions_for(self._exec_normal_form, deltas)
        if not changed:
            return Delta(self._exec_normal_form.output_schema())
        kernels = self._shape_kernels.get(changed)
        if kernels is None:
            kernels = compile_shape_kernels(
                self.planner_for(changed),
                self.definition.name,
                counter_free=self.counter_free,
            )
            self._shape_kernels[changed] = kernels
            charge("codegen_plans_compiled")
            if self._codegen_stats is not None:
                self._codegen_stats.plans_compiled += 1
        delta = execute_kernels(
            kernels, post_instances, deltas, self.index_probe_for(deltas)
        )
        rows = kernels.row_count
        if rows:
            charge("codegen_batch_rows", rows)
            if self._codegen_stats is not None:
                self._codegen_stats.batch_rows += rows
        return delta

    def fold_aggregate(
        self, state: "AggregateState", core_delta: Delta
    ) -> Delta:
        """Fold one core delta into the support state; visible delta out.

        The final stage of aggregate maintenance: the Section 5 pipeline
        produced ``core_delta`` over the view's SPJ core, and the
        generated fold kernel applies it to the per-group support bags,
        re-rendering every touched group.  A group whose visible row
        changes contributes a delete of the old row and an insert of the
        new one (a keyed upsert, from the changefeed's point of view); a
        group that appears or disappears contributes just the insert or
        delete.  Charges ``aggregate_rows_folded`` and
        ``aggregate_groups_touched``.
        """
        kernel = self._aggregate_kernel
        assert kernel is not None, "only aggregate views fold"
        ins = core_delta.inserted
        dele = core_delta.deleted
        rows = len(ins) + len(dele)
        if rows:
            charge("aggregate_rows_folded", rows)
        touched, before, after, bad = kernel(state.groups, ins, dele)
        if rows:
            charge("codegen_batch_rows", rows)
            if self._codegen_stats is not None:
                self._codegen_stats.batch_rows += rows
        if bad is not None:
            raise MaintenanceError(
                f"aggregate maintenance for view {self.definition.name!r} "
                f"would delete more copies of core row {bad} than the "
                "group support holds"
            )
        if touched:
            charge("aggregate_groups_touched", len(touched))
        inserted: dict[ValueTuple, int] = {}
        deleted: dict[ValueTuple, int] = {}
        for key in touched:
            b = before.get(key)
            a = after.get(key)
            if b == a:
                continue
            if b is not None:
                deleted[b] = 1
            if a is not None:
                inserted[a] = 1
        return Delta.from_counts(state.visible_schema, inserted, deleted)

    # ------------------------------------------------------------------
    # Index bindings
    # ------------------------------------------------------------------
    def _bind_index(
        self, position: int, link_attrs: tuple[str, ...]
    ) -> "HashIndex | None":
        """Resolve (and cache) the hash index one OLD probe uses.

        Base-relation operands lazily create their covering index on
        first use — the same behavior the maintainer had per
        transaction, now amortized into the plan.  View-typed operands
        bind ``None``: the planner falls back to hashing their
        contents.
        """
        key = (position, link_attrs)
        if key in self._index_bindings:
            return self._index_bindings[key]
        occurrence = self._exec_normal_form.occurrences[position]
        if occurrence.name in self._view_operands:
            binding: "HashIndex | None" = None
        else:
            base_attrs = tuple(occurrence.inverse[q] for q in link_attrs)
            binding = self._database.indexes.lookup(occurrence.name, base_attrs)
            if binding is None:
                binding = self._database.create_index(occurrence.name, base_attrs)
        self._index_bindings[key] = binding
        return binding

    def index_probe_for(self, deltas: Mapping[str, Delta]) -> IndexProbe | None:
        """The per-execution OLD-operand probe hook.

        Bindings are plan-level (resolved once, invalidated with the
        plan); the screening of probe results against the transaction's
        inserted tuples is per-execution — indexes store the
        *post-commit* relation while OLD semantics wants ``r − d_r``.
        Inserts the relevance filter dropped survive in probe results
        harmlessly: an irrelevant tuple fails the view condition in
        every combination.
        """
        if not self.use_indexes:
            return None

        def probe_hook(
            position: int, link_attrs: tuple[str, ...]
        ) -> Optional[ProbeFn]:
            index = self._bind_index(position, link_attrs)
            if index is None:
                return None
            occurrence = self._exec_normal_form.occurrences[position]
            delta = deltas.get(occurrence.name)
            inserted = delta.inserted if delta is not None else {}

            def probe(key: ValueTuple):
                for values in index.probe(key):
                    if values in inserted:
                        continue
                    yield values, Tag.OLD, 1

            return probe

        return probe_hook

    def rebind_indexes(self) -> None:
        """Drop cached index bindings (next execution re-resolves)."""
        self._index_bindings.clear()

    def index_bindings(self) -> dict[tuple[int, tuple[str, ...]], "HashIndex | None"]:
        """A snapshot of the currently resolved probe bindings."""
        return dict(self._index_bindings)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def kernel_source(self) -> str:
        """The complete generated source for this plan, deterministic.

        One listing: a version header, the screen kernel per
        participating relation (sorted by name), then the step functions
        and apply kernel for every single-relation truth-table shape plus
        the all-relations shape, then the aggregate fold kernel when the
        view aggregates.  Generation is a pure function of the plan
        structure, so two compiles of the same definition against the
        same catalog and constraints emit byte-identical text — the
        property the CLI's ``--source`` determinism check asserts.
        """
        name = self.definition.name
        parts = [
            f"# generated kernels for view {name!r} "
            f"(codegen v{CODEGEN_VERSION})\n"
        ]
        if self._reduction is not None:
            parts.append(
                f"# fk reduction: shapes cover the reduced normal form "
                f"over {self._reduction.delta_relation!r} alone; deltas on "
                f"{', '.join(self._reduction.probe_relations)} are screened "
                "out wholesale\n"
            )
        for relation_name in sorted(self._screen_kernels):
            parts.append(self._screen_kernels[relation_name][0])
        width = len(self._exec_normal_form.occurrences)
        shapes = [(i,) for i in range(width)]
        if width > 1:
            shapes.append(tuple(range(width)))
        for shape in shapes:
            parts.append(
                generate_shape_source(
                    self.planner_for(shape),
                    codegen_rows(width, shape),
                    counter_free=self.counter_free,
                )
            )
        if self._aggregate_source is not None:
            parts.append(self._aggregate_source)
        return "\n".join(parts)

    def describe(self, changed_relations: Iterable[str]) -> str:
        """The compiled plan, as text, for a hypothetical update.

        Sections: the Definition 4.2 invariant/variant split per changed
        relation (the screening plan), the cached row plan for the
        resulting truth-table shape (join order, hash links, pushdown),
        and the hash index each OLD probe binds.  This is what the CLI's
        ``explain`` verb prints.
        """
        nf = self._exec_normal_form
        changed_set = set(changed_relations)
        probe_relations: frozenset[str] = (
            frozenset(self._reduction.probe_relations)
            if self._reduction is not None
            else frozenset()
        )
        positions = [
            i for i, occ in enumerate(nf.occurrences) if occ.name in changed_set
        ]
        name = self.definition.name
        if not positions:
            if changed_set & probe_relations:
                assert self._reduction is not None
                return (
                    f"view {name!r}: {sorted(changed_set & probe_relations)} "
                    "are FK-reduction probe operands; their deltas are "
                    "proven irrelevant and dropped wholesale "
                    f"({self._reduction.describe()})"
                )
            return (
                f"view {name!r}: none of {sorted(changed_set)} participate; "
                "no maintenance needed"
            )
        lines = [f"compiled plan for view {name!r}"]
        if self._reduction is not None:
            lines.append(
                "fk reduction (chase over declared keys): "
                + self._reduction.describe()
            )
            for step in self._reduction.proof:
                lines.append(f"  {step}")
        if self._view_key is not None:
            lines.append(
                "derived view key (chase over declared keys): "
                + self._view_key.describe()
            )
            for step in self._view_key.proof:
                lines.append(f"  {step}")
            mode = (
                "counter-free apply kernels"
                if self.counter_free
                else "full Section 5.2 counters (counter-free disabled)"
            )
            lines.append(f"  multiplicity ≤ 1 proven; {mode}")
        lines.append("relevance screens (Definition 4.2 split, compiled once):")
        for relation_name in sorted(changed_set & self._screens.keys()):
            if relation_name in self._static_irrelevant:
                lines.append(
                    f"  {relation_name}: statically irrelevant under its "
                    "declared constraint; deltas dropped without per-tuple "
                    "screening"
                )
                continue
            if relation_name in probe_relations:
                lines.append(
                    f"  {relation_name}: FK-reduction probe operand; deltas "
                    "proven irrelevant and dropped without per-tuple "
                    "screening"
                )
                continue
            lines.append(self._screens[relation_name].describe())
        planner = self.planner_for(positions)
        lines.append(planner.describe())
        lines.append("index bindings (OLD-operand probes):")
        bound_any = False
        for index_pos, step in enumerate(planner.steps):
            if step.position in positions or not step.link_attr_names:
                continue
            occurrence = nf.occurrences[step.position]
            bound_any = True
            if occurrence.name in self._view_operands:
                lines.append(
                    f"  step {index_pos}: {occurrence.name} is a view operand; "
                    "no persistent index (contents hashed per execution)"
                )
                continue
            base_attrs = tuple(
                occurrence.inverse[q] for q in step.link_attr_names
            )
            existing = self._database.indexes.lookup(occurrence.name, base_attrs)
            state = (
                "bound" if existing is not None else "will be created on first use"
            )
            lines.append(
                f"  step {index_pos}: probes hash index "
                f"{occurrence.name}({', '.join(base_attrs)}) [{state}]"
            )
        if not bound_any:
            lines.append("  (none: no OLD operand is joined by equality links)")
        if self.definition.aggregate is not None:
            lines.append(
                f"aggregate stage (generated fold kernel): "
                f"{self.definition.aggregate}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        shapes = len(self._shape_kernels)
        possible = count_delta_rows(len(self._exec_normal_form.occurrences)) + 1
        return (
            f"<CompiledViewPlan {self.definition.name!r} "
            f"{len(self._screens)} screens, {shapes}/{possible} compiled shapes, "
            f"{len(self._index_bindings)} index bindings>"
        )
