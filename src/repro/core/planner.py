"""Planning the evaluation of truth-table rows, with shared subexpressions.

Section 5.3 observes that once the truth-table rows to evaluate are
known, "we can further reduce the cost of materializing the view by
using an algorithm to determine a good order for execution of the
joins.  Notice that a new feature of our problem is the possibility of
saving computation by re-using partial subexpressions appearing in
multiple rows within the table."  Section 5.4 adds that each row's SPJ
expression can be evaluated by "some known algorithm" — the paper cites
QUEL decomposition; we substitute pipelined hash joins (see DESIGN.md).

:class:`RowPlanner` makes those decisions once per truth-table shape;
the generated kernels of :mod:`repro.core.codegen` execute them:

* **Order** — operands are evaluated delta-first (changed positions,
  then unchanged ones).  Deltas are typically tiny, so intermediate
  results stay small and each subsequent join probes a large "old"
  operand with few keys.

* **Sharing** — rows are evaluated left-deep over that fixed order and
  every prefix result is memoized on its (position, choice) signature.
  Because unchanged operands are OLD in every row, rows share all work
  up to the first differing changed choice; with ``k`` changed
  relations the 2^k − 1 rows collapse into a binary trie of partial
  joins.  Experiment E13 measures the effect of turning this off.

* **Selection pushdown** — atoms of the view condition that appear in
  every DNF disjunct are applied as early as their variables are bound:
  equality atoms spanning the frontier become hash-join keys (with the
  paper's ``x = y + c`` offsets honoured), single-operand atoms become
  operand prefilters, and the rest become step post-filters.  With a
  purely conjunctive condition nothing is left for a final pass; a
  multi-disjunct condition is re-checked once at the end.

* **Index probes** — OLD-operand joins with equality links may be
  answered by a caller's persistent hash index instead of hashing the
  whole base relation per evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.algebra.conditions import Atom, Var
from repro.algebra.expressions import NormalForm
from repro.algebra.relation import TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.truthtable import DeltaRowChoice

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.relation import Relation


class StepPlan:
    """Static plan for joining one operand onto the accumulator.

    Step plans are pure *plan-construction* artifacts: they hold the
    resolved hash-join links, prefilter/postfilter atoms and key
    positions, from which :mod:`repro.core.codegen` emits the step's
    functions once per shape (and, through
    :class:`repro.core.compiled.CompiledViewPlan`, reused across
    transactions).
    """

    __slots__ = (
        "position",
        "operand_schema",
        "acc_schema",
        "eq_links",
        "link_attr_names",
        "prefilter_atoms",
        "postfilter_atoms",
        "operand_key_positions",
    )

    def __init__(
        self,
        position: int,
        operand_schema: RelationSchema,
        acc_schema: RelationSchema,
        eq_links: Sequence[tuple[int, str, int]],
        prefilter_atoms: Sequence[Atom],
        postfilter_atoms: Sequence[Atom],
    ) -> None:
        self.position = position
        self.operand_schema = operand_schema
        self.acc_schema = acc_schema
        # (acc value position, operand attr name, shift): the operand
        # attribute must equal acc[pos] + shift.
        self.eq_links = tuple(eq_links)
        self.link_attr_names = tuple(name for _, name, _ in self.eq_links)
        self.operand_key_positions = tuple(
            operand_schema.index(name) for name in self.link_attr_names
        )
        self.prefilter_atoms = tuple(prefilter_atoms)
        self.postfilter_atoms = tuple(postfilter_atoms)

    def describe(self, operand_name: str, step_index: int) -> str:
        """One human-readable line for this step of the plan."""
        parts = [f"step {step_index}: {operand_name}"]
        if self.eq_links:
            links = ", ".join(
                f"{name} = acc[{pos}]{f' + {shift}' if shift else ''}"
                for pos, name, shift in self.eq_links
            )
            parts.append(f"hash-join on [{links}]")
        elif step_index:
            parts.append("cross join (no equality link)")
        if self.prefilter_atoms:
            parts.append("prefiltered")
        if self.postfilter_atoms:
            parts.append("post-filtered")
        return "; ".join(parts)


class RowPlanner:
    """The evaluation plan of one view's truth-table shape.

    Parameters
    ----------
    normal_form:
        The view in paper normal form.
    changed_positions:
        Occurrence positions with a non-empty (filtered) delta.
    share_subexpressions:
        Memoize prefix joins across rows (default on; E13's ablation
        switch).
    """

    def __init__(
        self,
        normal_form: NormalForm,
        changed_positions: Sequence[int],
        share_subexpressions: bool = True,
    ) -> None:
        self.normal_form = normal_form
        self.share = share_subexpressions
        self.changed = tuple(sorted(set(changed_positions)))
        unchanged = [
            i for i in range(len(normal_form.occurrences)) if i not in self.changed
        ]
        #: Evaluation order: delta positions first, then unchanged.
        self.order: tuple[int, ...] = self.changed + tuple(unchanged)
        self._build_steps()

    # ------------------------------------------------------------------
    # Static planning
    # ------------------------------------------------------------------
    def _operand_schema(self, position: int) -> RelationSchema:
        occurrence = self.normal_form.occurrences[position]
        qualified = self.normal_form.qualified_schema
        return qualified.project_schema(occurrence.qualified_names())

    def _build_steps(self) -> None:
        nf = self.normal_form
        disjuncts = nf.condition.disjuncts
        if disjuncts:
            pushable = list(disjuncts[0].atoms)
            for other in disjuncts[1:]:
                other_set = set(other.atoms)
                pushable = [a for a in pushable if a in other_set]
        else:
            pushable = []
        self._needs_final_filter = len(disjuncts) != 1

        # Ground atoms shared by every disjunct evaluate at plan time: a
        # false one makes the whole condition unsatisfiable, so no row
        # can ever contribute anything.
        self._always_empty = False
        ground = [a for a in pushable if a.is_ground()]
        pushable = [a for a in pushable if not a.is_ground()]
        for atom in ground:
            if not atom.truth_value():
                self._always_empty = True

        assigned = [False] * len(pushable)
        bound: set[str] = set()
        steps: list[StepPlan] = []
        acc_schema: RelationSchema | None = None

        for step_index, position in enumerate(self.order):
            operand_schema = self._operand_schema(position)
            operand_names = set(operand_schema.names)
            new_acc_schema = (
                operand_schema
                if acc_schema is None
                else acc_schema.concat(operand_schema)
            )

            eq_links: list[tuple[int, str, int]] = []
            prefilter_atoms: list[Atom] = []
            postfilter_atoms: list[Atom] = []
            for idx, atom in enumerate(pushable):
                if assigned[idx]:
                    continue
                atom_vars = atom.variables()
                if not atom_vars <= (bound | operand_names):
                    continue
                if not atom_vars & operand_names:
                    continue  # should have been applied at an earlier step
                if atom_vars <= operand_names:
                    prefilter_atoms.append(atom)
                    assigned[idx] = True
                    continue
                link = self._as_eq_link(atom, bound, operand_schema, acc_schema)
                if link is not None:
                    eq_links.append(link)
                    assigned[idx] = True
                    continue
                postfilter_atoms.append(atom)
                assigned[idx] = True

            steps.append(
                StepPlan(
                    position,
                    operand_schema,
                    new_acc_schema,
                    eq_links,
                    prefilter_atoms,
                    postfilter_atoms,
                )
            )
            bound |= operand_names
            acc_schema = new_acc_schema

        assert acc_schema is not None
        self._steps: tuple[StepPlan, ...] = tuple(steps)
        self._final_schema = acc_schema
        self._projection_positions = tuple(
            acc_schema.index(qualified) for _, qualified in nf.projection
        )
        self._output_schema = nf.output_schema()

    @staticmethod
    def _as_eq_link(
        atom: Atom,
        bound: set[str],
        operand_schema: RelationSchema,
        acc_schema: RelationSchema | None,
    ) -> tuple[int, str, int] | None:
        """Interpret ``atom`` as a hash-join key linking acc to operand.

        Returns ``(acc_position, operand_attr, shift)`` such that the
        join requires ``operand_attr == acc_values[acc_position] + shift``,
        or ``None`` when the atom is not a usable equality link.
        """
        if acc_schema is None or atom.op != "=" or not atom.is_two_variable():
            return None
        assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
        x, y, c = atom.left.name, atom.right.name, atom.offset
        # Atom means value(x) = value(y) + c.
        if x in bound and y in operand_schema.nameset:
            # value(y) = value(x) - c
            return (acc_schema.index(x), y, -c)
        if y in bound and x in operand_schema.nameset:
            # value(x) = value(y) + c
            return (acc_schema.index(y), x, c)
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def steps(self) -> tuple[StepPlan, ...]:
        """The resolved join steps, in execution order."""
        return self._steps

    @property
    def always_empty(self) -> bool:
        """True when a shared ground atom is false: no row contributes."""
        return self._always_empty

    @property
    def needs_final_filter(self) -> bool:
        """True when the full DNF condition is re-checked at the end."""
        return self._needs_final_filter

    @property
    def final_schema(self) -> RelationSchema:
        """Schema of a fully joined row, before projection."""
        return self._final_schema

    @property
    def projection_positions(self) -> tuple[int, ...]:
        """Positions in :attr:`final_schema` the projection keeps."""
        return self._projection_positions

    @property
    def output_schema(self) -> RelationSchema:
        """Schema of the projected view delta."""
        return self._output_schema

    def describe(self) -> str:
        """A human-readable account of the evaluation plan.

        Lists the truth-table rows to evaluate, the delta-first operand
        order, and per step: the hash-join links (with ``x = y + c``
        shifts), operand prefilters and post-join filters the pushdown
        assigned — the textual form of what the generated step
        functions execute.
        """
        from repro.core.truthtable import count_delta_rows, enumerate_delta_rows
        from repro.core.truthtable import render_row

        nf = self.normal_form
        names = [occ.name for occ in nf.occurrences]
        lines = [
            f"view: {nf!r}",
            f"changed occurrences: "
            f"{[names[i] for i in self.changed] or '(none: full evaluation)'}",
            f"rows to evaluate: {count_delta_rows(len(self.changed)) or 1}",
        ]
        for row in enumerate_delta_rows(len(nf.occurrences), self.changed):
            lines.append(f"  {render_row(row, names)}")
        lines.append(
            "operand order (delta-first): "
            + " -> ".join(names[i] for i in self.order)
        )
        for index, step in enumerate(self._steps):
            occ = nf.occurrences[step.position]
            lines.append("  " + step.describe(occ.name, index))
        if self._needs_final_filter:
            lines.append("final pass: full DNF condition re-check")
        lines.append(
            "projection: " + ", ".join(out for out, _ in nf.projection)
        )
        lines.append(
            f"subexpression sharing: {'on' if self.share else 'off'}"
        )
        return "\n".join(lines)


def evaluate_normal_form(
    normal_form: NormalForm,
    instances: Mapping[str, "Relation"],
) -> "Relation":
    """Full (non-differential) evaluation through the generated kernels.

    Treats every operand as OLD and runs the single all-OLD row through
    the same step functions and driver the differential rows use, so
    the complete re-evaluation baseline enjoys the same hash joins and
    selection pushdown — the benchmark comparisons stay
    apples-to-apples.  Returns a counted
    :class:`~repro.algebra.relation.Relation` over the view's output
    schema.

    The naive tree evaluator (:func:`repro.algebra.evaluate.evaluate`)
    is retained as an *independent* oracle; the test suite cross-checks
    the two on random inputs.
    """
    from repro.algebra.relation import Relation
    from repro.core.codegen import standalone_kernels

    planner = RowPlanner(normal_form, changed_positions=())
    operands = []
    for occurrence in normal_form.occurrences:
        relation = instances[occurrence.name]
        occ_schema = normal_form.qualified_schema.project_schema(
            occurrence.qualified_names()
        )
        tagged = TaggedRelation(occ_schema)
        for values, count in relation.items():
            tagged.add(values, Tag.OLD, count)
        operands.append({DeltaRowChoice.OLD: tagged})
    all_old = (DeltaRowChoice.OLD,) * len(normal_form.occurrences)
    out = Relation(planner.output_schema)
    out._counts, _ = standalone_kernels(planner, (all_old,)).run(operands)
    return out
