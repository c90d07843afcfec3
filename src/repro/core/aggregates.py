"""Per-group aggregate state, maintained from core SPJ deltas.

The Section 5.2 multiplicity counter generalizes: where an SPJ view
stores one counter per visible tuple, an aggregate view stores one
*support bag* per group — the group's core rows with their summed
multiplicities — and derives the visible row (COUNT/SUM/AVG/MIN/MAX
cells) from the bag on demand.  The bag is exactly what sound
incremental MIN/MAX needs: deleting the current extremum exposes the
runner-up only if the per-value support survives, which no bounded
per-group accumulator can provide.  COUNT/SUM/AVG would get away with
plain totals; the implementation keeps the bag uniformly so one fold
and one renderer cover the whole supported class.

The fold itself is generated code
(:func:`repro.core.codegen.generate_aggregate_source`), driven by
:meth:`repro.core.compiled.CompiledViewPlan.fold_aggregate`, which owns
the instrumentation charges and the visible-delta assembly; this module
holds the state it folds into and the renderers that build the state
from a full evaluation and read it back out.
"""

from __future__ import annotations

from repro.algebra.aggregates import (
    AggregateSpec,
    ColumnPlan,
    column_plans,
    render_group,
)
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema

ValueTuple = tuple[int, ...]


class AggregateState:
    """One aggregate view's maintained state: group → core-row support.

    ``groups[key][core_row] = multiplicity`` with every multiplicity
    positive and no empty bags — the invariants
    :class:`~repro.algebra.relation.Relation` keeps for its counters,
    lifted one level.  A group with no bag emits no visible row (the
    aggregate analogue of "delete the tuple when its counter reaches
    zero").
    """

    __slots__ = (
        "spec",
        "core_schema",
        "visible_schema",
        "key_positions",
        "plans",
        "groups",
    )

    def __init__(self, spec: AggregateSpec, core_schema: RelationSchema) -> None:
        self.spec = spec
        self.core_schema = core_schema
        self.visible_schema = spec.output_schema(core_schema)
        self.key_positions: tuple[int, ...] = core_schema.positions(spec.keys)
        self.plans: ColumnPlan = column_plans(spec, core_schema)
        self.groups: dict[ValueTuple, dict[ValueTuple, int]] = {}

    @classmethod
    def from_core(cls, spec: AggregateSpec, core: Relation) -> "AggregateState":
        """Build the state from a fully evaluated core relation."""
        state = cls(spec, core.schema)
        groups = state.groups
        positions = state.key_positions
        for values, count in core.items():
            key = tuple(values[i] for i in positions)
            bag = groups.setdefault(key, {})
            bag[values] = bag.get(values, 0) + count
        return state

    def visible_relation(self) -> Relation:
        """Render every group into the visible (set-semantics) relation."""
        counts: dict[ValueTuple, int] = {}
        for key in sorted(self.groups):
            row = render_group(key, self.groups[key], self.plans)
            if row is not None:
                counts[row] = 1
        return Relation.from_counts(self.visible_schema, counts)

    def stored_contents(self) -> Relation:
        """The core support bag as one counted relation.

        This is what checkpoints persist for an aggregate view: the
        visible rows are derived state, and restoring MIN/MAX soundly
        needs the per-row support back.  Flattening and regrouping are
        inverse by construction (the grouping key is a projection of
        the row), so restore is byte-for-byte.
        """
        counts: dict[ValueTuple, int] = {}
        for bag in self.groups.values():
            for row, count in bag.items():
                counts[row] = counts.get(row, 0) + count
        return Relation.from_counts(self.core_schema, counts)

    def render(self, key: ValueTuple) -> ValueTuple | None:
        """The visible row of one group (None when the group is empty)."""
        bag = self.groups.get(key)
        if not bag:
            return None
        return render_group(key, bag, self.plans)

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        support = sum(len(bag) for bag in self.groups.values())
        return (
            f"<AggregateState {len(self.groups)} groups, "
            f"{support} support rows ({self.spec})>"
        )
