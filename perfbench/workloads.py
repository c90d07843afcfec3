"""The three benchmark workloads, generated in full from a seed.

Each generator returns a :class:`Workload`: the initial base relations,
the declared keys, the view definitions (as program expressions and as
plain reference functions over :mod:`reference`), the subscriber and
follower set-up, and the request documents the writer session sends.
The generator keeps its own copy of the base relations while it builds
the stream, so the expected final contents of every view are computed
without the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference as ref
from repro import BaseRef
from repro.workloads import OrderFlow


@dataclass
class View:
    """One view: its program definition and its reference evaluation."""

    name: str
    expression: object
    reference: object  # callable(base relations as reference bags) -> relation
    deferred: bool = False


@dataclass
class Workload:
    name: str
    #: relation → (attributes, initial rows), in creation order.
    relations: dict
    views: list
    keys: list = field(default_factory=list)  # (relation, attributes)
    foreign_keys: list = field(default_factory=list)  # (rel, attrs, ref, ref_attrs)
    #: view → max_pending_commits of its staleness SLA (deferred views).
    slas: dict = field(default_factory=dict)
    #: views each of the two subscriber sessions subscribes to.
    subscriptions: tuple = ((), ())
    #: the leader views the base-free follower also hosts.
    follower: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    #: True where the request at the same index is a ``txn``.
    is_txn: list = field(default_factory=list)
    #: Requests sent untimed during set-up (a prefix of ``requests``).
    warmup: int = 0
    #: Final base relations (attribute tuples → sets of rows).
    final: dict = field(default_factory=dict)
    #: Facts about the generated inputs, for the README and the output.
    facts: dict = field(default_factory=dict)

    @property
    def views_by_name(self):
        return {view.name: view for view in self.views}

    def reference_relations(self, rows_by_relation):
        return {
            name: ref.base(attrs, rows_by_relation[name])
            for name, (attrs, _) in self.relations.items()
        }

    def expected(self):
        """Every view evaluated by :mod:`reference` over the final state."""
        rels = self.reference_relations(self.final)
        out = {}
        for view in self.views:
            out[view.name] = view.reference(rels, out)
        return out


def _txn(inserts, deletes):
    doc = {"op": "txn"}
    if inserts:
        doc["insert"] = {name: [list(r) for r in rows] for name, rows in inserts.items()}
    if deletes:
        doc["delete"] = {name: [list(r) for r in rows] for name, rows in deletes.items()}
    return doc


def _finish(workload, docs, warmup):
    for index, doc in enumerate(docs):
        doc["id"] = index
    workload.requests = docs
    workload.is_txn = [doc["op"] == "txn" for doc in docs]
    workload.warmup = warmup
    txns = sum(workload.is_txn)
    workload.facts.update(
        requests=len(docs),
        timed_requests=len(docs) - warmup,
        txns=txns,
        queries=len(docs) - txns,
        start_sizes={n: len(rows) for n, (_, rows) in workload.relations.items()},
        end_sizes={n: len(rows) for n, rows in workload.final.items()},
    )
    return workload


class _Pool:
    """A set with O(1) uniform sampling and removal (the generator's copy)."""

    def __init__(self, rows=()):
        self.items = list(rows)
        self.index = {row: i for i, row in enumerate(self.items)}

    def __len__(self):
        return len(self.items)

    def __contains__(self, row):
        return row in self.index

    def add(self, row):
        self.index[row] = len(self.items)
        self.items.append(row)

    def remove(self, row):
        i = self.index.pop(row)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.index[last] = i

    def pick(self, rng):
        return self.items[rng.randrange(len(self.items))]


def _blocks(rng, pattern):
    """Endless draws from ``pattern`` in shuffled blocks.

    Every block holds each element exactly as often as ``pattern`` does,
    so the shares of the mix are exact and the seed only orders them.
    """
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


def _spread(rng, count, values):
    """``count`` values cycling through ``values``, shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------------
# orderflow: customer / product / lineitem with the four order views
# ----------------------------------------------------------------------

def orderflow(seed, short=False):
    rng = random.Random(f"orderflow:{seed}")
    customers, products = 200, 100
    lines = 600 if short else 2000
    timed = 300 if short else 4000
    warmup = 200
    customer = list(zip(range(customers), _spread(rng, customers, range(5)),
                        _spread(rng, customers, range(3))))
    product = list(zip(range(products), _spread(rng, products, range(5, 501, 5)),
                       _spread(rng, products, range(10))))
    lineitem = [
        (i, rng.randrange(customers), rng.randrange(products), qty, status)
        for i, qty, status in zip(range(lines), _spread(rng, lines, range(1, 21)),
                                  _spread(rng, lines, range(3)))
    ]
    # The program's own definitions; they do not depend on the instance's rows.
    definitions = OrderFlow(1, 1, 1).view_definitions()
    references = {
        "open_lines": lambda r, v: ref.project(
            ref.select(r["lineitem"], lambda t: t["status"] == 0 and t["qty"] >= 5),
            ["line_id", "cust_id", "prod_id", "qty"],
        ),
        "open_premium": lambda r, v: ref.project(
            ref.select(ref.join(v["open_lines"], r["customer"]), lambda t: t["tier"] == 2),
            ["line_id", "cust_id"],
        ),
        "pricey_open": lambda r, v: ref.project(
            ref.select(ref.join(r["lineitem"], r["product"]),
                       lambda t: t["status"] == 0 and t["price"] > 400),
            ["line_id", "prod_id", "price"],
        ),
        "region_activity": lambda r, v: ref.project(
            ref.select(ref.join(r["lineitem"], r["customer"]), lambda t: t["status"] == 0),
            ["region"],
        ),
    }
    views = [View(name, expression, references[name])
             for name, expression in definitions.items()]
    names = [v.name for v in views]
    workload = Workload(
        "orderflow",
        {
            "customer": (("cust_id", "region", "tier"), customer),
            "product": (("prod_id", "price", "category"), product),
            "lineitem": (("line_id", "cust_id", "prod_id", "qty", "status"), lineitem),
        },
        views,
        subscriptions=(tuple(names), tuple(names)),
        follower=[views[0]],
    )
    open_lines = _Pool(row for row in lineitem if row[4] == 0)
    all_lines = set(lineitem)
    prices = {row[0]: row for row in product}
    next_line = lines
    kinds = _blocks(rng, ["new"] * 5 + ["ship"] * 3 + ["cancel", "price"])
    docs = []
    mix = {k: 0 for k in ("new", "ship", "cancel", "price")}
    while len(docs) < warmup + timed:
        if len(docs) % 10 == 9:
            docs.append({"op": "query", "target": "open_premium"})
            continue
        kind = next(kinds)
        mix[kind] += 1
        if kind == "new":
            row = (next_line, rng.randrange(customers), rng.randrange(products),
                   rng.randint(1, 20), 0)
            next_line += 1
            open_lines.add(row)
            all_lines.add(row)
            docs.append(_txn({"lineitem": [row]}, {}))
        elif kind in ("ship", "cancel"):
            old = open_lines.pick(rng)
            new = old[:4] + (1 if kind == "ship" else 2,)
            open_lines.remove(old)
            all_lines.discard(old)
            all_lines.add(new)
            docs.append(_txn({"lineitem": [new]}, {"lineitem": [old]}))
        else:
            # A new price in the old one's band (above 400 or not), so
            # the share of pricey products stays what it was.
            old = prices[rng.randrange(products)]
            low, high = (401, 500) if old[1] > 400 else (1, 400)
            price = rng.randint(low, high - 1)
            new = (old[0], price + (price >= old[1]), old[2])  # never the old price
            prices[old[0]] = new
            docs.append(_txn({"product": [new]}, {"product": [old]}))
    workload.final = {
        "customer": set(customer),
        "product": set(prices.values()),
        "lineitem": all_lines,
    }
    txns = sum(mix.values())
    workload.facts["mix"] = {k: round(n / txns, 3) for k, n in mix.items()}
    workload.facts["reads"] = "1 in 10 requests, all on open_premium"
    return _finish(workload, docs, warmup)


# ----------------------------------------------------------------------
# keyed_ingest: parent p(B, C), child r(A, B), r.B -> p.B
# ----------------------------------------------------------------------

def keyed_ingest(seed, short=False):
    rng = random.Random(f"keyed_ingest:{seed}")
    parents = 200
    children = 400 if short else 1000
    timed = 150 if short else 1500
    warmup = 75
    p = list(zip(range(parents), _spread(rng, parents, range(100))))
    r = [(a, rng.randrange(parents)) for a in range(children)]
    views = [
        View(
            "fkj",
            BaseRef("r").join(BaseRef("p")).project(["A", "B"]),
            lambda rels, v: ref.project(ref.join(rels["r"], rels["p"]), ["A", "B"]),
        ),
        View(
            "wide",
            BaseRef("r").join(BaseRef("p")),
            lambda rels, v: ref.join(rels["r"], rels["p"]),
        ),
    ]
    workload = Workload(
        "keyed_ingest",
        {"p": (("B", "C"), p), "r": (("A", "B"), r)},
        views,
        keys=[("p", ("B",)), ("r", ("A",))],
        foreign_keys=[("r", ("B",), "p", ("B",))],
        follower=[views[0]],
    )
    live = _Pool(r)
    parent_ids = list(range(parents))
    parent_rows = set(p)
    next_a, next_b = children, parents
    docs = []
    new_parents = 0
    # Three child rows per commit: one or two inserts (even shares), the
    # rest deletes, so every commit is key-checked and r stays level.
    # One commit in twenty also adds a parent.
    shapes = _blocks(rng, [(1 + (i % 2), i == 0) for i in range(20)])
    while len(docs) < warmup + timed:
        if len(docs) % 3:
            # The loader reads the parent table twice per commit.
            docs.append({"op": "query", "target": "p"})
            continue
        inserts, with_parent = next(shapes)
        deleted = []
        for _ in range(3 - inserts):
            row = live.pick(rng)
            live.remove(row)
            deleted.append(row)
        batch = {"r": []}
        if with_parent:
            parent = (next_b, rng.randint(0, 99))
            next_b += 1
            new_parents += 1
            parent_ids.append(parent[0])
            parent_rows.add(parent)
            batch["p"] = [parent]
            batch["r"].append((next_a, parent[0]))
            next_a += 1
        while len(batch["r"]) < inserts:
            batch["r"].append((next_a, parent_ids[rng.randrange(len(parent_ids))]))
            next_a += 1
        for row in batch["r"]:
            live.add(row)
        docs.append(_txn(batch, {"r": deleted}))
    workload.final = {"p": parent_rows, "r": set(live.items)}
    workload.facts["mix"] = {
        "rows_per_commit": 3,
        "child_inserts_per_commit": "1 or 2 (even shares), the rest deletes",
        "commits_with_new_parent": round(new_parents / sum(d["op"] == "txn" for d in docs), 3),
    }
    workload.facts["reads"] = "2 in 3 requests, all of the parent relation p"
    return _finish(workload, docs, warmup)


# ----------------------------------------------------------------------
# dashboard_reads: sales(G, P, M) stream and a static catalog(Q, C)
# ----------------------------------------------------------------------

def dashboard_reads(seed, short=False):
    rng = random.Random(f"dashboard_reads:{seed}")
    regions, products = 8, 20
    sales_rows = 600 if short else 2000
    timed = 400 if short else 2400
    warmup = 200

    def new_sale(pool, exclude=()):
        while True:
            row = (rng.randrange(regions), rng.randrange(products), rng.randint(1, 500))
            if row not in pool and row not in exclude:
                return row

    pool = _Pool()
    while len(pool) < sales_rows:
        pool.add(new_sale(pool))
    initial = list(pool.items)
    catalog = [(q, q % 5) for q in range(products)]
    core = lambda rels: ref.project(  # noqa: E731
        ref.select(ref.product(rels["sales"], rels["catalog"]),
                   lambda t: t["P"] == t["Q"]),
        ["C", "M"],
    )
    views = [
        View(
            "revenue",
            BaseRef("sales").aggregate(
                ["G"], [("count", None, "orders"), ("sum", "M", "revenue"),
                        ("avg", "M", "avg_order")]),
            lambda rels, v: ref.group(
                rels["sales"], ["G"], [("count", None, "orders"), ("sum", "M", "revenue"),
                                       ("avg", "M", "avg_order")]),
        ),
        View(
            "extremes",
            BaseRef("sales").aggregate(["G"], [("min", "M", "low"), ("max", "M", "high")]),
            lambda rels, v: ref.group(
                rels["sales"], ["G"], [("min", "M", "low"), ("max", "M", "high")]),
        ),
        View(
            "by_category",
            BaseRef("sales").product(BaseRef("catalog")).select("P = Q")
            .project(["C", "M"]).aggregate(["C"], [("sum", "M", "revenue")]),
            lambda rels, v: ref.group(core(rels), ["C"], [("sum", "M", "revenue")]),
        ),
        View(
            "big_sales",
            BaseRef("sales").select("M >= 100"),
            lambda rels, v: ref.select(rels["sales"], lambda t: t["M"] >= 100),
        ),
        View(
            "product_mix",
            BaseRef("sales").aggregate(
                ["P"], [("count", None, "orders"), ("sum", "M", "revenue")]),
            lambda rels, v: ref.group(
                rels["sales"], ["P"], [("count", None, "orders"), ("sum", "M", "revenue")]),
            deferred=True,
        ),
    ]
    workload = Workload(
        "dashboard_reads",
        {"sales": (("G", "P", "M"), initial), "catalog": (("Q", "C"), catalog)},
        views,
        slas={"product_mix": 8},
        subscriptions=(("revenue", "extremes", "by_category", "product_mix"), ()),
        follower=[views[0], views[4]],
    )
    # Reads: one in ten on the detail view, the rest evenly on the three
    # small aggregate views.  Writes: one to three new sales (even
    # shares) voiding as many older ones, so sales stays level; one
    # write in four also corrects the amount of a sale.
    targets = _blocks(rng, ["big_sales"] * 3 + ["revenue", "extremes", "by_category"] * 9)
    writes = _blocks(rng, [(1 + i % 3, i % 4 == 0) for i in range(12)])
    docs = []
    corrections = detail_reads = 0
    while len(docs) < warmup + timed:
        if len(docs) % 4:
            target = next(targets)
            detail_reads += target == "big_sales"
            docs.append({"op": "query", "target": target})
            continue
        count, correct = next(writes)
        inserted, deleted = [], []
        for _ in range(count):
            old = pool.pick(rng)
            pool.remove(old)
            deleted.append(old)
        for _ in deleted:
            row = new_sale(pool, deleted)
            pool.add(row)
            inserted.append(row)
        if correct:
            corrections += 1
            old = pool.pick(rng)
            while old in inserted:
                old = pool.pick(rng)
            pool.remove(old)
            deleted.append(old)
            fixed = old
            while fixed in pool or fixed in deleted:
                fixed = old[:2] + (rng.randint(1, 500),)
            pool.add(fixed)
            inserted.append(fixed)
        docs.append(_txn({"sales": inserted}, {"sales": deleted}))
    workload.final = {"sales": set(pool.items), "catalog": set(catalog)}
    reads = len(docs) - len(docs[::4])
    workload.facts["mix"] = {
        "reads_per_write": 3,
        "reads_on_big_sales": round(detail_reads / reads, 3),
        "writes_with_correction": round(corrections / len(docs[::4]), 3),
    }
    workload.facts["reads"] = "3 per write; about 9 in 10 on revenue/extremes/by_category"
    return _finish(workload, docs, warmup)


GENERATORS = {
    "orderflow": orderflow,
    "keyed_ingest": keyed_ingest,
    "dashboard_reads": dashboard_reads,
}
