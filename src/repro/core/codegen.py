"""Generated batch kernels: the maintenance engine's executable form.

At plan-compile time each :class:`~repro.core.compiled.CompiledViewPlan`
emits straight-line Python source, ``compile()``s it once, and
thereafter every transaction runs the generated functions over whole
batches — the DBToaster tradition of amortizing per-tuple *dispatch*
the way Algorithm 4.1 amortizes per-batch *planning* (invariant split,
APSP):

* **screen kernels** — one per (view, relation-occurrence set): the
  Definition 4.2 invariant/variant split evaluated over a columnar
  :class:`DeltaBatch`, with the invariant APSP distances baked into the
  source as integer literals and the variant bounds unrolled into
  ``min``/``max`` expressions plus the O(B²) negative-cycle probes;
* **step functions** — one per (join step, OLD/DELTA choice) of a
  truth-table shape: the step's hash-join or index-probe loop with
  equality-link keys, pre/post-filters and the paper's tag algebra all
  inlined (``insert ⊗ delete`` pairs dropped in-loop).  A short shared
  driver, :meth:`ShapeKernels.run`, walks the Section 5.3 rows over
  them with a prefix memo, so the source grows linearly in the number
  of occurrences, not in the number of rows;
* **apply kernels** — one per shape: the final DNF re-check,
  projection and Section 5.2 multiplicity-counter folding into plain
  ``dict`` accumulators, collapsed to a net view delta by
  :func:`repro.core.counting.net_counts`;
* **aggregate fold kernels** — one per aggregate view: the group-apply
  of a core delta onto the per-group support bags.

The same engine runs every differential path and full evaluation
(:func:`repro.core.planner.evaluate_normal_form` is the all-OLD row
through the same driver).  Generated source is a pure function of the
plan structure — no timestamps, no ids, no dict-order dependence — so
two compiles of the same plan emit byte-identical text (the CLI's
``explain <view> source`` determinism check).  Correctness is checked
against full recomputation by the independent tree evaluator
(:func:`repro.algebra.evaluate.evaluate`).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.relation import Delta
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.graph import INF, ZERO
from repro.core.truthtable import DeltaRowChoice, Rows
from repro.errors import MaintenanceError
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.aggregates import AggregateSpec
    from repro.algebra.expressions import NormalForm
    from repro.core.irrelevance import RelevanceFilter
    from repro.core.planner import RowPlanner

ValueTuple = tuple[int, ...]

#: Bumped whenever the shape of the generated source changes; part of
#: the plan fingerprint so a cached plan compiled by an older generator
#: can never be served to a newer runtime.
#: v2: aggregate fold kernels (group-apply + unrolled renderers).
#: v3: counter-free apply kernels (derived view keys pin counters to 1).
#: v4: one function per (step, choice) under a shared row driver,
#: replacing the fully unrolled row trie; no size caps.
CODEGEN_VERSION = 4

_PY_OPS = {"=": "==", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


def plan_fingerprint(
    normal_form: "NormalForm",
    aggregate: "AggregateSpec | None" = None,
) -> tuple:
    """The cache identity of a compiled plan.

    Extends the definition's structural fingerprint with the generator
    version (:data:`CODEGEN_VERSION`).  Aggregate views mix in their
    spec fingerprint — two views sharing one SPJ core but different
    GROUP BY keys or aggregate lists are different executables.  The
    plan cache compares this on every ``get``, so upgrading the
    generator evicts stale plans instead of executing them.
    """
    base: tuple = normal_form.fingerprint()
    if aggregate is not None:
        base = (base, aggregate.fingerprint())
    return (base, ("codegen", CODEGEN_VERSION))


class CodegenStats:
    """Cumulative codegen counters for one maintainer.

    Mirrors the ``codegen_*`` instrumentation family (see
    :mod:`repro.instrumentation`) so the CLI ``stats`` command and the
    server ``stats`` op can report them without an active recorder.
    """

    __slots__ = ("plans_compiled", "batch_rows")

    def __init__(self) -> None:
        self.plans_compiled = 0
        self.batch_rows = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "codegen_plans_compiled": self.plans_compiled,
            "codegen_batch_rows": self.batch_rows,
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<CodegenStats {inner}>"


# ----------------------------------------------------------------------
# DeltaBatch: the columnar screen()-boundary representation
# ----------------------------------------------------------------------

class DeltaBatch:
    """One relation's net delta in columnar (struct-of-arrays) layout.

    ``columns[j][i]`` is attribute ``j`` of slot ``i``; the first
    :attr:`n_inserted` slots are the delta's inserts (in dict order),
    the rest its deletes.  Screen kernels loop over slot indices and
    index columns directly — no per-tuple dict, no ``Row`` views —
    while :attr:`rows` keeps the original encoded tuples so a filtered
    :class:`~repro.algebra.relation.Delta` is rebuilt without decoding.
    """

    __slots__ = ("schema", "rows", "counts", "columns", "n_inserted")

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self.rows: list[ValueTuple] = []
        self.counts: list[int] = []
        self.columns: list[list[int]] = [[] for _ in schema.names]
        self.n_inserted = 0

    @classmethod
    def from_delta(cls, delta: Delta) -> "DeltaBatch":
        """Transpose one delta into columns (inserts first, then deletes)."""
        batch = cls(delta.schema)
        rows = batch.rows
        counts = batch.counts
        columns = batch.columns
        width = len(columns)
        for values, count in delta.inserted.items():
            rows.append(values)
            counts.append(count)
            for j in range(width):
                columns[j].append(values[j])
        batch.n_inserted = len(rows)
        for values, count in delta.deleted.items():
            rows.append(values)
            counts.append(count)
            for j in range(width):
                columns[j].append(values[j])
        return batch

    def __len__(self) -> int:
        return len(self.rows)

    def to_delta(self, mask: bytearray) -> Delta:
        """The sub-delta of slots whose ``mask`` byte is set."""
        inserted: dict[ValueTuple, int] = {}
        deleted: dict[ValueTuple, int] = {}
        rows = self.rows
        counts = self.counts
        split = self.n_inserted
        for i in range(split):
            if mask[i]:
                inserted[rows[i]] = counts[i]
        for i in range(split, len(rows)):
            if mask[i]:
                deleted[rows[i]] = counts[i]
        return Delta.from_counts(self.schema, inserted, deleted)

    def __repr__(self) -> str:
        return (
            f"<DeltaBatch {list(self.schema.names)} {len(self.rows)} slots "
            f"({self.n_inserted} inserts)>"
        )


# ----------------------------------------------------------------------
# Source-emission helpers
# ----------------------------------------------------------------------

class _Emitter:
    """Tiny indented-source builder."""

    __slots__ = ("lines", "indent")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        if line:
            self.lines.append("    " * self.indent + line)
        else:
            self.lines.append("")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _atom_expr(atom: Atom, index_of: Callable[[str], int], var: str) -> str:
    """One atom as a Python expression over indexable row ``var``.

    ``index_of`` resolves a variable name to a tuple/column position.
    Canonicalization guarantees a non-ground atom's left term is a
    variable; ground atoms are folded by the planner before this point.
    """
    if atom.is_ground():
        return "True" if atom.truth_value() else "False"
    assert isinstance(atom.left, Var)
    left = f"{var}[{index_of(atom.left.name)}]"
    op = _PY_OPS[atom.op]
    if isinstance(atom.right, Var):
        right = f"{var}[{index_of(atom.right.name)}]"
        if atom.offset:
            right = f"{right} + {atom.offset}" if atom.offset > 0 else (
                f"{right} - {-atom.offset}"
            )
    else:
        right = str(atom.right.value + atom.offset)
    return f"{left} {op} {right}"


def _conjunction_expr(
    atoms: Sequence[Atom], index_of: Callable[[str], int], var: str
) -> str:
    if not atoms:
        return "True"
    return " and ".join(f"({_atom_expr(a, index_of, var)})" for a in atoms)


def _condition_expr(
    condition: Condition, index_of: Callable[[str], int], var: str
) -> str:
    """A DNF condition as one Python expression over row ``var``."""
    if condition.is_true():
        return "True"
    if condition.is_false():
        return "False"
    return " or ".join(
        f"({_conjunction_expr(d.atoms, index_of, var)})"
        for d in condition.disjuncts
    )


# ----------------------------------------------------------------------
# Screen kernels (Section 4 over a DeltaBatch)
# ----------------------------------------------------------------------

def generate_screen_source(
    relation_name: str,
    relevance_filter: "RelevanceFilter",
    schema: RelationSchema,
    statically_irrelevant: bool = False,
) -> str:
    """Emit the batch screen kernel for one participating relation.

    The generated ``screen_kernel(cols, n, mask)`` marks relevant slots
    in ``mask`` and returns ``(ground_evals, bound_probes)`` so the
    driver can charge the per-tuple screen's counters in bulk.
    Structure per slot, mirroring ``RelevanceFilter._decide`` exactly:
    one block per live (occurrence, disjunct) screen, variant-evaluable
    atoms as nested short-circuit tests, variant bounds as ``min``/
    ``max`` folds, and the negative-cycle probe pairs unrolled with the
    invariant APSP distances baked in as integer literals (pairs whose
    invariant path is unreachable are omitted at generation time).
    """
    out = _Emitter()
    out.emit(f"# screen kernel: relation {relation_name!r}")
    if statically_irrelevant:
        # The Theorem 4.1 static proof is baked into the source: the
        # kernel body is the proof's conclusion.  Constraint DDL
        # invalidates the whole plan, regenerating this file.
        out.emit("# statically irrelevant under the declared constraint:")
        out.emit("# every legal update is dropped with no per-tuple work")
        out.emit("def screen_kernel(cols, n, mask):")
        out.indent += 1
        out.emit("return 0, 0")
        return out.source()
    if relevance_filter._always_relevant:
        out.emit("# condition has an empty disjunct (constant TRUE):")
        out.emit("# every update is relevant, no screening possible")
        out.emit("def screen_kernel(cols, n, mask):")
        out.indent += 1
        out.emit("for i in range(n):")
        out.indent += 1
        out.emit("mask[i] = 1")
        out.indent -= 1
        out.emit("return 0, 0")
        return out.source()

    screens = relevance_filter._screens
    out.emit("def screen_kernel(cols, n, mask):")
    out.indent += 1
    if not screens:
        out.emit("# every disjunct's invariant part is unsatisfiable:")
        out.emit("# all updates screened out")
        out.emit("return 0, 0")
        return out.source()

    used_columns = sorted(
        {
            schema.index(screen.occurrence.inverse[name])
            for screen in screens
            for atom in (
                screen.variant_evaluable + screen.variant_non_evaluable
            )
            for name in atom.variables()
            if name in screen.occurrence.inverse
        }
    )
    for j in used_columns:
        out.emit(f"c{j} = cols[{j}]")
    out.emit("ge = 0")
    out.emit("bp = 0")
    out.emit("for i in range(n):")
    out.indent += 1
    base_indent = out.indent
    for screen_index, screen in enumerate(screens):
        occurrence = screen.occurrence
        out.indent = base_indent
        out.emit(
            f"# screen {screen_index}: occurrence "
            f"{occurrence.name}#{occurrence.position}"
        )

        def col_expr(qualified: str, _occ=occurrence) -> str:
            return f"c{schema.index(_occ.inverse[qualified])}[i]"

        # Variant evaluable atoms: nested short-circuit so the per-atom
        # ground-eval counter matches the per-tuple screen's early exit.
        for atom in screen.variant_evaluable:
            expr = _substituted_ground_expr(atom, col_expr)
            out.emit("ge += 1")
            out.emit(f"if {expr}:")
            out.indent += 1
        out.emit("bp += 1")
        probes = _bound_probe_exprs(screen, col_expr, out)
        if probes:
            joined = " or ".join(probes)
            out.emit(f"if not ({joined}):")
            out.indent += 1
        out.emit("mask[i] = 1")
        out.emit("continue")
    out.indent = base_indent - 1
    out.emit("return ge, bp")
    return out.source()


def _substituted_ground_expr(
    atom: Atom, col_expr: Callable[[str], str]
) -> str:
    """A variant-evaluable atom as an expression over column slots."""
    op = _PY_OPS[atom.op]
    assert isinstance(atom.left, Var)
    left = col_expr(atom.left.name)
    if isinstance(atom.right, Var):
        right = col_expr(atom.right.name)
        if atom.offset > 0:
            right = f"{right} + {atom.offset}"
        elif atom.offset < 0:
            right = f"{right} - {-atom.offset}"
    else:
        right = str(atom.right.value + atom.offset)
    return f"{left} {op} {right}"


def _bound_probe_exprs(
    screen, col_expr: Callable[[str], str], out: _Emitter
) -> list[str]:
    """Emit tightest-bound folds; return the negative-cycle probe exprs.

    Reproduces ``_DisjunctScreen.admits``: each variant non-evaluable
    atom contributes an upper (``x ≤ e``) or lower (``x ≥ e``) bound
    whose constant is a column expression; discrete-domain
    normalization (``<`` → ``≤ e−1``, ``>`` → ``≥ e+1``, ``=`` → both)
    is applied symbolically here, and the probe pairs are unrolled with
    the APSP entries as literals.
    """
    uppers: dict[str, list[str]] = {}
    lowers: dict[str, list[str]] = {}
    order: list[str] = []
    for atom in screen.variant_non_evaluable:
        assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
        x, y = atom.left.name, atom.right.name
        substituted_left = _is_substituted(screen, x)
        if substituted_left:
            # Const(vx) op y + c mirrors to y mirror(op) (vx - c).
            free = y
            op = {"=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[
                atom.op
            ]
            base = col_expr(x)
            shift = -atom.offset
        else:
            free = x
            op = atom.op
            base = col_expr(y)
            shift = atom.offset
        if free not in order:
            order.append(free)
        if op in ("<=", "<"):
            expr = _shifted(base, shift - (1 if op == "<" else 0))
            uppers.setdefault(free, []).append(expr)
        elif op in (">=", ">"):
            expr = _shifted(base, shift + (1 if op == ">" else 0))
            lowers.setdefault(free, []).append(expr)
        else:  # "=": both bounds
            uppers.setdefault(free, []).append(_shifted(base, shift))
            lowers.setdefault(free, []).append(_shifted(base, shift))

    lower_items: list[tuple[str, str]] = []
    upper_items: list[tuple[str, str]] = []
    for var_index, free in enumerate(order):
        if free in lowers:
            name = f"l{var_index}"
            out.emit(f"{name} = {_fold('max', lowers[free])}")
            lower_items.append((free, name))
        if free in uppers:
            name = f"u{var_index}"
            out.emit(f"{name} = {_fold('min', uppers[free])}")
            upper_items.append((free, name))
    lower_items.append((ZERO, "0"))
    upper_items.append((ZERO, "0"))

    dist = screen.dist
    probes: list[str] = []
    for y, cl in lower_items:
        for x, cu in upper_items:
            if y == ZERO and x == ZERO:
                continue
            path = dist[y][x]
            if path == INF:
                continue
            probes.append(f"(-({cl}) + {int(path)} + {cu} < 0)")
    return probes


def _is_substituted(screen, name: str) -> bool:
    return name in screen.occurrence.inverse


def _shifted(base: str, shift: int) -> str:
    if shift > 0:
        return f"{base} + {shift}"
    if shift < 0:
        return f"{base} - {-shift}"
    return base


def _fold(func: str, exprs: list[str]) -> str:
    if len(exprs) == 1:
        return exprs[0]
    return f"{func}({', '.join(exprs)})"


# ----------------------------------------------------------------------
# Step functions + apply kernel (Section 5.3 over one truth-table shape)
# ----------------------------------------------------------------------

def codegen_rows(
    num_operands: int, changed_positions: Sequence[int]
) -> list[Rows]:
    """The rows :func:`~repro.core.truthtable.enumerate_delta_rows`
    yields, computed without charging ``truth_table_rows``.

    Kernel generation happens once per shape; the per-execution charge
    is applied in bulk by the executor so the counter stays
    execution-proportional.
    """
    changed = sorted(set(changed_positions))
    rows: list[Rows] = []
    for bits in product(
        (DeltaRowChoice.OLD, DeltaRowChoice.DELTA), repeat=len(changed)
    ):
        if all(b is DeltaRowChoice.OLD for b in bits):
            continue
        row = [DeltaRowChoice.OLD] * num_operands
        for position, bit in zip(changed, bits):
            row[position] = bit
        rows.append(tuple(row))
    return rows


def generate_shape_source(
    planner: "RowPlanner",
    rows: Sequence[Rows],
    counter_free: bool = False,
) -> str:
    """Emit the step functions + apply kernel for one truth-table shape.

    One function ``s{j}_{OLD|DELTA}`` per (step, choice) the rows use,
    each holding that step's whole inlined body: the first step loads
    its operand through the prefilter; a later step joins the
    accumulator onto its operand — through the caller's index probe
    (OLD operands with equality links, when one is bound) or through a
    hash table built on first use and shared by every row for the rest
    of the execution — with the prefilter, the paper's tag algebra
    (``insert ⊗ delete`` pairs dropped in-loop) and the postfilter
    inlined.  ``STEPS`` lists the functions per step, indexed by
    choice, for :meth:`ShapeKernels.run`, the shared driver that walks
    the rows and memoizes prefix results.  The source therefore grows
    linearly with the number of occurrences, however many rows the
    shape has.  The apply kernel folds each completed row through the
    final DNF re-check, the projection and the Section 5.2 counter
    accumulators.

    With ``counter_free`` (sound only when a derived view key proves
    every view row has multiplicity ≤ 1 — see
    :func:`repro.analysis.dependencies.derive_view_key`) the apply
    kernel pins each accumulator entry to one instead of summing
    multiplicities: the counts carry no information, so the
    ``get``-then-add round trip per emitted row is dropped.  The final
    :func:`~repro.core.counting.net_counts` pass still runs — one
    transaction may legitimately delete a view row and re-insert it.
    """
    nf = planner.normal_form
    steps = planner.steps
    out = _Emitter()
    names = [occ.name for occ in nf.occurrences]
    out.emit(
        "# row kernel: shape "
        + repr(tuple(names[i] for i in planner.changed))
        + f" of view over {names!r}"
    )
    out.emit(
        "# order (delta-first): "
        + " -> ".join(names[step.position] for step in steps)
    )
    if counter_free:
        out.emit(
            "# counter-free: a derived view key proves multiplicity <= 1;"
        )
        out.emit("# the apply kernel pins every counter to one")

    _emit_apply_kernel(out, planner, counter_free)
    out.emit()
    if planner.always_empty:
        out.emit("# a shared ground atom is false: no row can contribute")
        out.emit("STEPS = ()")
        return out.source()

    used = {
        (j, row[step.position]) for row in rows for j, step in enumerate(steps)
    }
    table: list[str] = []
    for j, step in enumerate(steps):
        entry: list[str] = []
        for choice in (DeltaRowChoice.OLD, DeltaRowChoice.DELTA):
            if (j, choice) not in used:
                entry.append("None")
                continue
            name = f"s{j}_{choice.name}"
            out.emit(f"def {name}(acc, operands, probe_for, tables, tally):")
            out.indent += 1
            out.emit(
                f"# {step.describe(names[step.position], j)} [{choice.name}]"
            )
            if j == 0:
                _emit_first_step(out, step, choice)
            else:
                _emit_join_step(out, step, j, choice)
            out.indent -= 1
            out.emit()
            entry.append(name)
        table.append(f"({entry[0]}, {entry[1]})")
    out.emit(f"STEPS = ({', '.join(table)}{',' if len(table) == 1 else ''})")
    return out.source()


def _emit_apply_kernel(
    out: _Emitter, planner: "RowPlanner", counter_free: bool = False
) -> None:
    final_schema = planner.final_schema
    key = _key_tuple_expr(planner.projection_positions, "v")
    out.emit("def apply_kernel(rows, ins, dele):")
    out.indent += 1
    out.emit("# OLD rows come only from full evaluation's all-OLD row")
    out.emit("for v, t, c in rows:")
    out.indent += 1
    if planner.needs_final_filter:
        expr = _condition_expr(
            planner.normal_form.condition, final_schema.index, "v"
        )
        out.emit(f"if not ({expr}):")
        out.indent += 1
        out.emit("continue")
        out.indent -= 1
    out.emit(f"k = {key}")
    out.emit("if t is T_D:")
    out.indent += 1
    out.emit("dele[k] = 1" if counter_free else "dele[k] = dele.get(k, 0) + c")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("ins[k] = 1" if counter_free else "ins[k] = ins.get(k, 0) + c")
    out.indent -= 3


def _emit_first_step(out: _Emitter, step, choice: DeltaRowChoice) -> None:
    out.emit(f"src = operands[{step.position}][C_{choice.name}]._counts")
    out.emit("tally[0] += len(src)")
    prefilter = _prefilter_expr(step, "bv")
    guard = f" if {prefilter}" if prefilter is not None else ""
    out.emit(f"return [(bv, bt, bc) for (bv, bt), bc in src.items(){guard}]")


def _emit_join_step(
    out: _Emitter, step, j: int, choice: DeltaRowChoice
) -> None:
    delta = choice is DeltaRowChoice.DELTA
    out.emit("out = []")
    out.emit("out_append = out.append")
    out.emit("jp = te = ti = 0" if delta else "jp = te = 0")
    if not delta and step.link_attr_names:
        out.emit(f"p = probe_for({j})")
        out.emit("if p is not None:")
        out.indent += 1
        _emit_probe_loop(out, step, delta)
        out.indent -= 1
        out.emit("else:")
        out.indent += 1
        _emit_hash_join(out, step, j, choice)
        out.indent -= 1
    else:
        _emit_hash_join(out, step, j, choice)
    out.emit("tally[1] += jp")
    out.emit("tally[2] += te")
    if delta:
        out.emit("tally[3] += ti")
    out.emit("return out")


def _emit_probe_loop(out: _Emitter, step, delta: bool) -> None:
    prefilter = _prefilter_expr(step, "bv")
    out.emit("for av, at, ac in acc:")
    out.indent += 1
    out.emit("jp += 1")
    out.emit(f"for bv, bt, bc in p({_probe_key_expr(step)}):")
    out.indent += 1
    if prefilter is not None:
        out.emit(f"if not ({prefilter}):")
        out.indent += 1
        out.emit("continue")
        out.indent -= 1
    _emit_combine_emit(out, step, delta)
    out.indent -= 2


def _emit_hash_join(
    out: _Emitter, step, j: int, choice: DeltaRowChoice
) -> None:
    slot = 2 * j + choice.value
    prefilter = _prefilter_expr(step, "bv")
    out.emit(f"h = tables[{slot}]")
    out.emit("if h is None:")
    out.indent += 1
    out.emit(f"h = tables[{slot}] = {{}}")
    out.emit(f"src = operands[{step.position}][C_{choice.name}]._counts")
    out.emit("tally[0] += len(src)")
    out.emit("for (bv, bt), bc in src.items():")
    out.indent += 1
    if prefilter is not None:
        out.emit(f"if not ({prefilter}):")
        out.indent += 1
        out.emit("continue")
        out.indent -= 1
    out.emit(f"bk = {_key_tuple_expr(step.operand_key_positions, 'bv')}")
    out.emit("bucket = h.get(bk)")
    out.emit("if bucket is None:")
    out.indent += 1
    out.emit("h[bk] = [(bv, bt, bc)]")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("bucket.append((bv, bt, bc))")
    out.indent -= 3
    out.emit("for av, at, ac in acc:")
    out.indent += 1
    out.emit("jp += 1")
    out.emit(f"bucket = h.get({_probe_key_expr(step)})")
    out.emit("if bucket is not None:")
    out.indent += 1
    out.emit("for bv, bt, bc in bucket:")
    out.indent += 1
    _emit_combine_emit(out, step, choice is DeltaRowChoice.DELTA)
    out.indent -= 3


def _emit_combine_emit(out: _Emitter, step, delta: bool) -> None:
    """Tag algebra + postfilter + emit, shared by both join paths.

    An OLD operand carries only ``old`` tags, so joining one keeps the
    accumulator's tag.  A DELTA operand's tag wins over an ``old``
    accumulator, matches an equal one, and is ignored against the
    opposite one (the paper's ``insert ⊗ delete``).
    """
    if delta:
        out.emit("if at is not T_O and at is not bt:")
        out.indent += 1
        out.emit("ti += 1")
        out.emit("continue")
        out.indent -= 1
    out.emit("rv = av + bv")
    postfilter = _postfilter_expr(step, "rv")
    if postfilter is not None:
        out.emit(f"if not ({postfilter}):")
        out.indent += 1
        out.emit("continue")
        out.indent -= 1
    out.emit("te += 1")
    out.emit(f"out_append((rv, {'bt' if delta else 'at'}, ac * bc))")


def _probe_key_expr(step) -> str:
    parts = [_shifted(f"av[{pos}]", shift) for pos, _, shift in step.eq_links]
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _prefilter_expr(step, var: str) -> Optional[str]:
    atoms = step.prefilter_atoms
    if not atoms:
        return None
    return _conjunction_expr(atoms, step.operand_schema.index, var)


def _postfilter_expr(step, var: str) -> Optional[str]:
    atoms = step.postfilter_atoms
    if not atoms:
        return None
    return _conjunction_expr(atoms, step.acc_schema.index, var)


# ----------------------------------------------------------------------
# Aggregate fold kernels (group-apply over core deltas)
# ----------------------------------------------------------------------

def _key_tuple_expr(positions: Sequence[int], var: str) -> str:
    """``(v[i], v[j],)`` for the grouping-key positions (``()`` if none)."""
    if not positions:
        return "()"
    inner = ", ".join(f"{var}[{p}]" for p in positions)
    return "(" + inner + ("," if len(positions) == 1 else "") + ")"


def generate_aggregate_source(
    spec: "AggregateSpec", core_schema: RelationSchema
) -> str:
    """Emit the fold kernel for one aggregate view.

    The generated module holds two functions: ``render(k, bag)`` with
    the view's column arithmetic unrolled (one shared pass accumulates
    the group total and every SUM/AVG accumulator; MIN/MAX fold over
    the bag's distinct rows), and ``fold_kernel(groups, ins, dele)``
    applying one core delta to the support bags.  The kernel returns
    ``(touched, before, after, bad)`` — the touched groups in delta
    order, their rendered rows on both sides of the mutation, and the
    offending core row when a delete underflows its group support
    (``None`` otherwise); the driver
    (:meth:`~repro.core.compiled.CompiledViewPlan.fold_aggregate`)
    assembles the visible delta and charges the counters.
    """
    positions = core_schema.positions(spec.keys)
    plans = [
        (
            column.func,
            -1
            if column.attribute is None
            else core_schema.index(column.attribute),
        )
        for column in spec.columns
    ]
    sum_positions = sorted(
        {p for func, p in plans if func in ("sum", "avg")}
    )

    out = _Emitter()
    out.emit(f"# aggregate kernel: {spec}")
    out.emit(f"# core row layout: {tuple(core_schema.names)!r}")
    out.emit()
    out.emit("def render(k, bag):")
    out.indent += 1
    out.emit("total = 0")
    for p in sum_positions:
        out.emit(f"s{p} = 0")
    out.emit("for v, c in bag.items():")
    out.indent += 1
    out.emit("total += c")
    for p in sum_positions:
        out.emit(f"s{p} += v[{p}] * c")
    out.indent -= 1
    out.emit("if total <= 0:")
    out.indent += 1
    out.emit("return None")
    out.indent -= 1
    cells = [f"k[{i}]" for i in range(len(positions))]
    for func, p in plans:
        if func == "count":
            cells.append("total")
        elif func == "sum":
            cells.append(f"s{p}")
        elif func == "avg":
            cells.append(f"s{p} // total")
        elif func == "min":
            cells.append(f"min(v[{p}] for v in bag)")
        else:  # max
            cells.append(f"max(v[{p}] for v in bag)")
    inner = ", ".join(cells)
    out.emit(f"return ({inner}{',' if len(cells) == 1 else ''})")
    out.indent -= 1
    out.emit()

    key = _key_tuple_expr(positions, "v")
    out.emit("def fold_kernel(groups, ins, dele):")
    out.indent += 1
    out.emit("touched = {}")
    out.emit("for v in ins:")
    out.indent += 1
    out.emit(f"touched[{key}] = 1")
    out.indent -= 1
    out.emit("for v in dele:")
    out.indent += 1
    out.emit(f"touched[{key}] = 1")
    out.indent -= 1
    out.emit("before = {}")
    out.emit("for k in touched:")
    out.indent += 1
    out.emit("bag = groups.get(k)")
    out.emit("if bag:")
    out.indent += 1
    out.emit("row = render(k, bag)")
    out.emit("if row is not None:")
    out.indent += 1
    out.emit("before[k] = row")
    out.indent -= 3
    out.emit("for v, c in ins.items():")
    out.indent += 1
    out.emit(f"k = {key}")
    out.emit("bag = groups.get(k)")
    out.emit("if bag is None:")
    out.indent += 1
    out.emit("groups[k] = {v: c}")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("bag[v] = bag.get(v, 0) + c")
    out.indent -= 2
    out.emit("for v, c in dele.items():")
    out.indent += 1
    out.emit(f"k = {key}")
    out.emit("bag = groups.get(k)")
    out.emit("n = (bag.get(v, 0) if bag is not None else 0) - c")
    out.emit("if n < 0:")
    out.indent += 1
    out.emit("return touched, before, {}, v")
    out.indent -= 1
    out.emit("if n:")
    out.indent += 1
    out.emit("bag[v] = n")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("del bag[v]")
    out.emit("if not bag:")
    out.indent += 1
    out.emit("del groups[k]")
    out.indent -= 3
    out.emit("after = {}")
    out.emit("for k in touched:")
    out.indent += 1
    out.emit("bag = groups.get(k)")
    out.emit("if bag:")
    out.indent += 1
    out.emit("row = render(k, bag)")
    out.emit("if row is not None:")
    out.indent += 1
    out.emit("after[k] = row")
    out.indent -= 3
    out.emit("return touched, before, after, None")
    return out.source()


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

#: Constants available to every generated kernel.  This is the entire
#: ambient namespace — generated source may not reach anything else,
#: which is what keeps kernels deterministic and side-effect-free.
_KERNEL_GLOBALS = {
    "__builtins__": {
        "len": len,
        "range": range,
        "min": min,
        "max": max,
    },
    "T_O": Tag.OLD,
    "T_I": Tag.INSERT,
    "T_D": Tag.DELETE,
    "C_OLD": DeltaRowChoice.OLD,
    "C_DELTA": DeltaRowChoice.DELTA,
}

ScreenKernel = Callable[[list, int, bytearray], tuple[int, int]]
AggregateKernel = Callable[[dict, dict, dict], tuple[dict, dict, dict, object]]
#: A probe function: join-key values -> matching (values, tag, count).
ProbeFn = Callable[[ValueTuple], Iterable[tuple[ValueTuple, Tag, int]]]
#: Caller-provided index hook:
#: (position, link_attr_qualified_names) -> ProbeFn or None.
IndexProbe = Callable[[int, tuple[str, ...]], Optional[ProbeFn]]


def _exec_module(source: str, filename: str) -> dict:
    """``compile()`` + ``exec`` one generated module; its namespace.

    ``filename`` shows up in tracebacks (``<codegen:view:kind>``) so a
    bug in generated code is attributable to its generator.
    """
    namespace: dict = dict(_KERNEL_GLOBALS)
    try:
        code = compile(source, filename, "exec")
        exec(code, namespace)  # noqa: S102 - the codegen seam
    except SyntaxError as exc:  # pragma: no cover - generator bug
        raise MaintenanceError(
            f"generated kernel {filename} failed to compile: {exc}\n{source}"
        ) from exc
    return namespace


def compile_kernel(source: str, name: str, filename: str) -> Callable:
    """Compile one generated module and return its function ``name``."""
    kernel = _exec_module(source, filename).get(name)
    if kernel is None:  # pragma: no cover - generator bug
        raise MaintenanceError(
            f"generated module {filename} defines no {name!r}"
        )
    return kernel


class ShapeKernels:
    """One shape's row planner, its compiled step functions + apply
    kernel, and the shared driver that runs them over the shape's
    truth-table rows."""

    __slots__ = ("source", "planner", "steps", "apply", "rows", "probe_keys")

    def __init__(
        self,
        source: str,
        planner: "RowPlanner",
        steps: tuple,
        apply: Callable[[list, dict, dict], None],
        rows: tuple[tuple[int, ...], ...],
    ) -> None:
        self.source = source
        #: The plan the kernels were generated from (join order, links,
        #: output schema).
        self.planner = planner
        #: ``steps[j][choice.value]``: the step function, or None for a
        #: (step, choice) no row uses.
        self.steps = steps
        self.apply = apply
        #: The rows to evaluate as per-step choice values in execution
        #: order — empty when the planner is statically empty, so such a
        #: shape charges nothing.
        self.rows = rows
        #: Per step: the (position, link attributes) an index hook binds.
        self.probe_keys = tuple(
            (step.position, step.link_attr_names) for step in planner.steps
        )

    @property
    def row_count(self) -> int:
        """Truth-table rows one execution evaluates."""
        return len(self.rows)

    def run(
        self, operands: Sequence, index_probe: IndexProbe | None = None
    ) -> tuple[dict[ValueTuple, int], dict[ValueTuple, int]]:
        """Evaluate every row; return the projected insert/delete counts.

        Rows are joined left-deep in the planner's delta-first order.
        With sharing on, every prefix result is memoized on its choice
        signature, so a row resumes from the longest prefix an earlier
        row already joined (one ``subexpression_memo_hits`` per such
        row) — with ``k`` changed operands the ``2^k − 1`` rows collapse
        into a binary trie of partial joins.  Hash tables are shared
        per (step, choice) either way, and a step whose accumulator is
        empty is skipped without touching its operand.  ``index_probe``
        answers OLD-operand probes for this execution; it is resolved
        once per step, on the first probe.  The Section 5 abstract-work
        counters are charged here in bulk from the step functions'
        tallies.
        """
        ins: dict[ValueTuple, int] = {}
        dele: dict[ValueTuple, int] = {}
        rows = self.rows
        if not rows:
            return ins, dele
        steps = self.steps
        apply = self.apply
        width = len(steps)
        tables: list[dict | None] = [None] * (2 * width)
        tally = [0, 0, 0, 0]
        resolved: dict[int, ProbeFn | None] = {}
        probe_keys = self.probe_keys

        def probe_for(j: int) -> ProbeFn | None:
            if j not in resolved:
                resolved[j] = (
                    None if index_probe is None else index_probe(*probe_keys[j])
                )
            return resolved[j]

        memo: dict[tuple[int, ...], list] | None = (
            {} if self.planner.share and len(rows) > 1 else None
        )
        hits = 0
        for row in rows:
            depth = 0
            acc: list = []
            if memo is not None:
                for depth in range(width - 1, 0, -1):
                    cached = memo.get(row[:depth])
                    if cached is not None:
                        acc = cached
                        hits += 1
                        break
                else:
                    depth = 0
            for j in range(depth, width):
                if j == 0 or acc:
                    acc = steps[j][row[j]](
                        acc, operands, probe_for, tables, tally
                    )
                if memo is not None:
                    memo[row[: j + 1]] = acc
            apply(acc, ins, dele)

        charge("delta_rows_evaluated", len(rows))
        if hits:
            charge("subexpression_memo_hits", hits)
        scanned, probes, emitted, ignored = tally
        if scanned:
            charge("tuples_scanned", scanned)
        if probes:
            charge("join_probes", probes)
        if emitted:
            charge("tuples_emitted", emitted)
        if ignored:
            charge("tuples_ignored", ignored)
        return ins, dele

    def __repr__(self) -> str:
        return f"<ShapeKernels {len(self.rows)} rows>"


def compile_shape_kernels(
    planner: "RowPlanner",
    view_name: str,
    counter_free: bool = False,
    rows: Sequence[Rows] | None = None,
) -> ShapeKernels:
    """Generate + compile one shape's kernels.

    ``rows`` defaults to the shape's differential rows; full evaluation
    passes the single all-OLD row instead.
    """
    if rows is None:
        rows = codegen_rows(len(planner.normal_form.occurrences), planner.changed)
    source = generate_shape_source(planner, rows, counter_free)
    shape_tag = "".join(str(p) for p in planner.changed)
    namespace = _exec_module(source, f"<codegen:{view_name}:shape{shape_tag}>")
    steps = planner.steps
    plan_rows = (
        ()
        if planner.always_empty
        else tuple(tuple(row[s.position].value for s in steps) for row in rows)
    )
    return ShapeKernels(
        source, planner, namespace["STEPS"], namespace["apply_kernel"], plan_rows
    )


#: Bound on :func:`standalone_kernels`' cache of compiled shapes.
STANDALONE_CACHE_SIZE = 128
_standalone_cache: "OrderedDict[tuple, ShapeKernels]" = OrderedDict()


def standalone_kernels(
    planner: "RowPlanner", rows: Sequence[Rows] | None = None
) -> ShapeKernels:
    """Compiled kernels for a planner that no compiled plan owns.

    Full evaluation (:func:`repro.core.planner.evaluate_normal_form`)
    and the plan-less :func:`repro.core.differential.compute_view_delta`
    run outside any :class:`~repro.core.compiled.CompiledViewPlan`, so
    their kernels are kept here instead, keyed by the structure they
    are a pure function of (domains included, since the cached planner
    supplies the operand and output schemas), in a least-recently-used
    cache of at most :data:`STANDALONE_CACHE_SIZE` shapes.
    """
    key = (
        planner.normal_form.fingerprint(),
        planner.normal_form.qualified_schema,
        planner.changed,
        planner.share,
        None if rows is None else tuple(rows),
    )
    kernels = _standalone_cache.get(key)
    if kernels is not None:
        _standalone_cache.move_to_end(key)
        return kernels
    kernels = compile_shape_kernels(planner, "standalone", rows=rows)
    _standalone_cache[key] = kernels
    if len(_standalone_cache) > STANDALONE_CACHE_SIZE:
        _standalone_cache.popitem(last=False)
    return kernels
