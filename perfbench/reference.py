"""Straightforward view evaluation over plain Python relations.

The benchmark checks the program's outputs against these functions, not
against anything the program computes itself.  A relation here is a
``(attributes, bag)`` pair: ``attributes`` a tuple of names and ``bag``
a dict mapping a row tuple to its multiplicity.  Base relations are sets,
so their bags carry count 1.
"""

from __future__ import annotations

from collections import Counter


def base(attributes, rows):
    """A base relation (a set) as a counted bag."""
    return tuple(attributes), {tuple(row): 1 for row in rows}


def select(rel, predicate):
    """Rows for which ``predicate(row_as_dict)`` holds; counts kept."""
    attrs, bag = rel
    out = {}
    for row, count in bag.items():
        if predicate(dict(zip(attrs, row))):
            out[row] = count
    return attrs, out


def join(left, right):
    """Natural join on shared attribute names; counts multiply."""
    lattrs, lbag = left
    rattrs, rbag = right
    shared = [a for a in lattrs if a in rattrs]
    rpos = [rattrs.index(a) for a in shared]
    lpos = [lattrs.index(a) for a in shared]
    extra = [i for i, a in enumerate(rattrs) if a not in shared]
    by_key = {}
    for row, count in rbag.items():
        by_key.setdefault(tuple(row[i] for i in rpos), []).append((row, count))
    out = {}
    for lrow, lcount in lbag.items():
        for rrow, rcount in by_key.get(tuple(lrow[i] for i in lpos), ()):
            joined = lrow + tuple(rrow[i] for i in extra)
            out[joined] = out.get(joined, 0) + lcount * rcount
    return lattrs + tuple(rattrs[i] for i in extra), out


def product(left, right):
    """Cartesian product (attribute names must be disjoint)."""
    lattrs, lbag = left
    rattrs, rbag = right
    out = {}
    for lrow, lcount in lbag.items():
        for rrow, rcount in rbag.items():
            out[lrow + rrow] = lcount * rcount
    return lattrs + rattrs, out


def project(rel, names):
    """Bag projection: rows that coincide add up their counts."""
    attrs, bag = rel
    positions = [attrs.index(n) for n in names]
    out = {}
    for row, count in bag.items():
        key = tuple(row[i] for i in positions)
        out[key] = out.get(key, 0) + count
    return tuple(names), out


def group(rel, keys, columns):
    """GROUP BY ``keys`` with ``(func, attribute, alias)`` columns.

    COUNT counts rows with their multiplicity, SUM weighs each value by
    its multiplicity, AVG is SUM // COUNT (floor), MIN and MAX range over
    the values present.  A group with no rows has no output row; every
    output row has count 1.
    """
    attrs, bag = rel
    key_pos = [attrs.index(k) for k in keys]
    groups = {}
    for row, count in bag.items():
        groups.setdefault(tuple(row[i] for i in key_pos), []).append((row, count))
    out = {}
    for key, members in groups.items():
        cells = []
        for func, attribute, _alias in columns:
            n = sum(count for _, count in members)
            if func == "count":
                cells.append(n)
                continue
            pos = attrs.index(attribute)
            if func == "sum":
                cells.append(sum(row[pos] * count for row, count in members))
            elif func == "avg":
                cells.append(sum(row[pos] * count for row, count in members) // n)
            elif func == "min":
                cells.append(min(row[pos] for row, _ in members))
            elif func == "max":
                cells.append(max(row[pos] for row, _ in members))
            else:
                raise ValueError(f"unknown aggregate {func!r}")
        out[key + tuple(cells)] = 1
    return tuple(keys) + tuple(alias for _, _, alias in columns), out


def reorder(attributes, rows_with_counts, want):
    """A bag over ``want`` from rows listed in ``attributes`` order."""
    positions = [list(attributes).index(a) for a in want]
    bag = Counter()
    for row, count in rows_with_counts:
        bag[tuple(row[i] for i in positions)] += count
    return dict(bag)


def diff(expected, attributes, rows_with_counts, limit=3):
    """Describe how program output differs from ``expected``; '' if equal."""
    want_attrs, want = expected
    if set(attributes) != set(want_attrs):
        return f"attributes {list(attributes)} != expected {list(want_attrs)}"
    got = reorder(attributes, rows_with_counts, want_attrs)
    if got == want:
        return ""
    missing = [(r, c) for r, c in want.items() if got.get(r) != c][:limit]
    extra = [(r, c) for r, c in got.items() if want.get(r) != c][:limit]
    return (
        f"{len(got)} rows vs {len(want)} expected; "
        f"expected but not matched {missing}; got but not expected {extra}"
    )
