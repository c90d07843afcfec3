"""Differential re-evaluation of SPJ views (Section 5, Algorithm 5.1).

Given a view in the paper's normal form and the (filtered) net deltas a
transaction produced, :func:`compute_view_delta` returns the net change
to apply to the materialized view:

1. Build the truth-table rows for the changed operands
   (:mod:`repro.core.truthtable`) — 2^k − 1 rows, all-old excluded.
2. Evaluate each row's SPJ expression over tagged operands — planned
   by :mod:`repro.core.planner`, executed by the generated kernels of
   :mod:`repro.core.codegen` — where a DELTA operand carries the
   transaction's inserts/deletes tagged ``insert``/``delete`` and an
   OLD operand carries the tuples present **both before and after**
   the transaction tagged ``old`` (``r − d_r``, equivalently the
   post-state minus the inserts — see :mod:`repro.algebra.tags` for why
   this reading makes the paper's tag table exact).
3. Merge the projected, tagged results of all rows and collapse them to
   a net :class:`~repro.algebra.relation.Delta` on the view
   (Algorithm 5.1 step 3: "the transaction consists of inserting all
   tuples tagged as insert, and deleting all tuples tagged as delete").

The special cases of Sections 5.1 (select views), 5.2 (project views)
and 5.3 (join views) all fall out of the same code path with p = 1 or
an empty projection/condition; dedicated convenience wrappers are
provided for readers following the paper section by section.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.conditions import Condition
from repro.algebra.expressions import NormalForm
from repro.algebra.relation import Delta, Relation, TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.codegen import IndexProbe, ShapeKernels, standalone_kernels
from repro.core.counting import net_counts
from repro.core.planner import RowPlanner
from repro.core.truthtable import DeltaRowChoice
from repro.errors import MaintenanceError
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]


def _old_operand(
    post_state: Relation,
    delta: Delta | None,
    qualified_schema: RelationSchema,
) -> TaggedRelation:
    """The OLD operand: tuples present both before and after the commit.

    ``post_state`` is the relation *after* the transaction applied;
    subtracting the inserted counts recovers ``r − d_r``.  The count
    arithmetic matters for *counted* operands (a view used as the base
    of another view): an insertion may merely raise an existing tuple's
    counter, in which case the pre-existing copies are still OLD.
    """
    out = TaggedRelation(qualified_schema)
    inserted = delta.inserted if delta is not None else {}
    for values, count in post_state.items():
        remaining = count - inserted.get(values, 0)
        if remaining > 0:
            out.add(values, Tag.OLD, remaining)
    return out


class LazyOperandEntry:
    """Per-occurrence operand mapping, built on first access.

    Materializing an OLD operand scans the whole base relation; when
    the planner answers its probes from a persistent index — or when a
    truth-table row never consults the operand at all (the OLD choice
    of a changed relation with k = 1, say) — that scan is pure waste.
    Construction is therefore deferred until the planner actually asks.
    """

    __slots__ = ("_post", "_delta", "_schema", "_changed", "_cache")

    def __init__(
        self,
        post_state: Relation,
        delta: Delta | None,
        qualified_schema: RelationSchema,
        changed: bool,
    ) -> None:
        self._post = post_state
        self._delta = delta
        self._schema = qualified_schema
        self._changed = changed
        self._cache: dict[DeltaRowChoice, TaggedRelation] = {}

    def __getitem__(self, choice: DeltaRowChoice) -> TaggedRelation:
        cached = self._cache.get(choice)
        if cached is not None:
            return cached
        if choice is DeltaRowChoice.OLD:
            built = _old_operand(self._post, self._delta, self._schema)
        elif self._changed and self._delta is not None:
            built = _delta_operand(self._delta, self._schema)
        else:
            raise MaintenanceError(
                "DELTA operand requested for an unchanged relation"
            )
        self._cache[choice] = built
        return built


def _delta_operand(
    delta: Delta, qualified_schema: RelationSchema
) -> TaggedRelation:
    """The DELTA operand: net inserts and deletes, tagged."""
    out = TaggedRelation(qualified_schema)
    for values, tag, count in delta.tagged_items():
        out.add(values, tag, count)
    return out


def changed_positions_for(
    normal_form: NormalForm, deltas: Mapping[str, Delta]
) -> tuple[int, ...]:
    """Occurrence positions carrying a non-empty delta, in order.

    The truth-table shape (and therefore which cached
    :class:`~repro.core.planner.RowPlanner` applies) is a function of
    exactly this tuple — it is the key the compiled-plan cache uses to
    reuse planners across transactions touching the same relations.
    """
    return tuple(
        i
        for i, occ in enumerate(normal_form.occurrences)
        if occ.name in deltas and not deltas[occ.name].is_empty()
    )


def build_operands(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    changed_positions: Sequence[int],
) -> list[LazyOperandEntry]:
    """Per-occurrence lazy operand mappings for one plan execution.

    The per-transaction half of differential evaluation: operands wrap
    *this* transaction's post-state and deltas, while the planner that
    will consume them is a per-view artifact reusable across
    transactions.
    """
    changed = set(changed_positions)
    qualified = normal_form.qualified_schema
    operands: list[LazyOperandEntry] = []
    for i, occ in enumerate(normal_form.occurrences):
        try:
            post = post_instances[occ.name]
        except KeyError:
            raise MaintenanceError(
                f"post-state for relation {occ.name!r} was not supplied"
            ) from None
        occ_schema = qualified.project_schema(occ.qualified_names())
        delta = deltas.get(occ.name)
        operands.append(LazyOperandEntry(post, delta, occ_schema, i in changed))
    return operands


def execute_kernels(
    kernels: ShapeKernels,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    index_probe: IndexProbe | None = None,
) -> Delta:
    """Run one shape's compiled kernels over one transaction's deltas.

    The plan-execution half of :func:`compute_view_delta`: ``kernels``
    (with the planner they were generated from) is a per-shape artifact
    reusable across transactions, while the operands and the
    index-probe hook are built fresh from this transaction's state.
    """
    charge("differential_updates")
    if kernels.row_count:
        charge("truth_table_rows", kernels.row_count)
    planner = kernels.planner
    operands = build_operands(
        planner.normal_form, post_instances, deltas, planner.changed
    )
    ins, dele = kernels.run(operands, index_probe)
    net_counts(ins, dele)
    return Delta.from_counts(planner.output_schema, ins, dele)


def compute_view_delta(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    share_subexpressions: bool = True,
    index_probe: IndexProbe | None = None,
) -> Delta:
    """The net change to a materialized view caused by one transaction.

    Parameters
    ----------
    normal_form:
        The view definition in paper normal form.
    post_instances:
        Base-relation contents *after* the transaction committed
        (keyed by relation name) — what the maintainer sees when it is
        invoked as the last operation within the transaction.
    deltas:
        The transaction's net effect per relation (possibly already
        screened by the Section 4 relevance filter).  Relations absent
        from the mapping — or mapped to empty deltas — are unchanged.
    share_subexpressions:
        Passed through to the planner (E13 ablation switch).
    index_probe:
        Optional hook answering OLD-operand probes from an index.

    Returns
    -------
    Delta
        Over the view's output schema; apply with ``delta.apply_to(view)``.
    """
    changed_positions = changed_positions_for(normal_form, deltas)
    if not changed_positions:
        return Delta(normal_form.output_schema())

    planner = RowPlanner(
        normal_form,
        changed_positions,
        share_subexpressions=share_subexpressions,
    )
    return execute_kernels(
        standalone_kernels(planner), post_instances, deltas, index_probe
    )


# ----------------------------------------------------------------------
# Section-by-section convenience wrappers
# ----------------------------------------------------------------------

def select_view_delta(condition: Condition, delta: Delta) -> Delta:
    """Section 5.1: ``v' = v ∪ σ_C(i_r) − σ_C(d_r)`` for ``V = σ_C(R)``.

    Needs no base-relation state at all — the hallmark of select views.
    """
    from repro.algebra.evaluate import compile_condition

    predicate = compile_condition(condition, delta.schema)
    inserted = {
        values: count
        for values, count in delta.inserted.items()
        if predicate(values)
    }
    deleted = {
        values: count
        for values, count in delta.deleted.items()
        if predicate(values)
    }
    return Delta.from_counts(delta.schema, inserted, deleted)


def project_view_delta(attributes: Sequence[str], delta: Delta) -> Delta:
    """Section 5.2: the counted delta of ``V = π_X(R)``.

    Insert and delete counts landing on the same projected tuple are
    *not* cancelled here: both sides must reach the view's counters
    (e.g. +2/−1 on the same tuple nets to +1 on its counter).  The
    Delta type requires disjoint sides, so cancellation to the net
    effect happens before returning — the caller applies count
    arithmetic, matching Algorithm 5.1's final step.
    """
    insert_counts: dict[ValueTuple, int] = {}
    delete_counts: dict[ValueTuple, int] = {}
    positions = delta.schema.positions(attributes)
    for values, count in delta.inserted.items():
        key = tuple(values[i] for i in positions)
        insert_counts[key] = insert_counts.get(key, 0) + count
    for values, count in delta.deleted.items():
        key = tuple(values[i] for i in positions)
        delete_counts[key] = delete_counts.get(key, 0) + count
    net_counts(insert_counts, delete_counts)
    return Delta.from_counts(
        delta.schema.project_schema(attributes), insert_counts, delete_counts
    )
