"""The three seeded workloads: input generation, one query, and the checks.

Every input is made from the seed alone; the program sees only the
generated graphs and word texts (or, for ``cli-fixtures``, command lines).
No check uses the splice reduction of ``serre_solver``: answers are
compared with relator algebra, exponent-sum homomorphisms, Todd-Coxeter
tables, finite permutation quotients, derivation replay and the group
table of the README.  ``serre_solver.replay_trace`` is run on every
verdict as an extra check.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import stratisolve as S
from stratisolve.errors import UndeterminedError
from stratisolve.gog import GraphOfGroups, to_loop_word
from stratisolve.graph_model import canonical_tree, normalize_orientations
from stratisolve.oracle import replay_derivation
from stratisolve.serre_solver import replay_trace
from stratisolve.words import concat, free_reduce, inverse, power

# statuses of one query
OK, UNDETERMINED, ERROR = "ok", "undetermined", "error"
# outcomes of the checks on one query
PASS, FAIL, UNCHECKED = "pass", "fail", "unchecked"


@dataclass(frozen=True)
class Query:
    index: int
    kind: str
    graph: str
    text: str
    expect: object = None


@dataclass
class Result:
    query: Query
    status: str
    answer: str
    seconds: float
    payload: object = field(default=None, repr=False)
    outcome: str = ""


class Workload:
    """One closed-loop client.  Subclasses make ``self.queries`` from the
    seed in ``__init__`` (that is set-up) and answer one query per call."""

    name = ""
    #: queries in a traced run; fixed so that per-layer counts repeat exactly
    traced_queries = 0
    #: the timed phase stops only after a whole number of these queries
    cycle = 1
    #: whether the query list may be run again from the start
    repeatable = True
    #: whether queries run in child processes (whose memory is then measured)
    runs_children = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.queries: list[Query] = []
        self.setup_errors: list[str] = []

    def run(self, q: Query, rec=None) -> Result:
        start = time.perf_counter()
        try:
            status, answer, payload = self.answer(q, rec)
        except UndeterminedError as exc:
            status, answer, payload = UNDETERMINED, f"undetermined {exc}", None
        except Exception as exc:  # noqa: BLE001 - a failing query is counted, not fatal
            status, answer, payload = ERROR, f"error {exc!r}", None
        return Result(q, status, answer, time.perf_counter() - start, payload)

    def warm_up(self) -> None:
        """Once-per-graph work a user pays before the first query."""

    def answer(self, q: Query, rec):
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Build what the checks need once, before the first query."""

    def check(self, r: Result) -> str:
        """PASS, FAIL or UNCHECKED for one result."""
        return FAIL if r.status == ERROR else self.check_one(r)

    def check_one(self, r: Result) -> str:
        raise NotImplementedError

    def describe(self, r: Result) -> str:
        return (f"query {r.query.index} ({r.query.kind} on {r.query.graph}): "
                f"{r.query.text[:120]} -> {r.answer[:120]}")

    def fingerprint(self) -> str:
        """Text that pins the generated inputs (used by the tests)."""
        return "\n".join(f"{q.kind}|{q.graph}|{q.text}|{q.expect}"
                         for q in self.queries)


# -- shared helpers ----------------------------------------------------------

def random_word(rng: random.Random, generators, length: int):
    return free_reduce(
        [(rng.choice(generators), rng.choice((1, -1))) for _ in range(length)]
    )


def relator_product(rng: random.Random, pres, parts: int, conj_len: int):
    """Product of ``parts`` conjugated relators; trivial in the group."""
    out = []
    for _ in range(parts):
        conj = random_word(rng, pres.generators, conj_len)
        rel = rng.choice(pres.relators)
        out.append(concat(conj, power(rel, rng.choice((1, -1))), inverse(conj)))
    return free_reduce(concat(*out))


def free_exponent_generators(pres) -> tuple[str, ...]:
    """Generators whose exponent sum is 0 in every relator.  The exponent
    sum in such a generator is a homomorphism onto Z, so a word where it is
    nonzero is nontrivial."""
    out = []
    for gen in pres.generators:
        if all(sum(e for n, e in rel if n == gen) == 0 for rel in pres.relators):
            out.append(gen)
    return tuple(out)


def exponent_sum_nonzero(word, gens) -> bool:
    sums = Counter()
    for name, exp in word:
        sums[name] += exp
    return any(sums[g] for g in gens)


class _Pipeline:
    """Graph, tree, normalized graph, presentation, orders and graph of
    groups of one input graph, built for generating words and for the
    checks (never inside a timed query)."""

    def __init__(self, g):
        self.graph = g
        self.tree = canonical_tree(g)
        self.norm, _ = normalize_orientations(g, self.tree)
        self.pres = S.natural_presentation(self.norm, self.tree)
        self._gog = None

    def gog(self):
        if self._gog is None:
            oa = S.resolve_orders(self.norm)
            self._gog = GraphOfGroups(self.norm, self.tree, oa.sigma)
        return self._gog

    def replays(self, text: str, verdict) -> bool:
        gog = self.gog()
        lw = to_loop_word(gog, S.parse_word(text, self.pres))
        return replay_trace(gog, lw, verdict)


# -- orders-random -------------------------------------------------------------

#: criterion 7's trimmed budget with the expansion cap lowered from 300 to
#: 20: on 80 acceptance-generator graphs caps 300 and 60 gave identical
#: (sigma, status) outcomes, and so did 60 and 20 on 320 graphs; the lower
#: cap lets a run hold four times as many graphs
ORDERS_BUDGET = S.Budget(insertions=4, max_length=40, max_expansions=20)

ORDERS_POOL = 2000
ORDERS_BATCH = 5


def random_graph(rng: random.Random):
    """One attempt at a small valid graph, drawn like the acceptance
    generator; None when the attempt breaks the sheet-count rule."""
    nw = rng.randint(1, 3)
    nb = rng.randint(1, 3)
    whites = [f"w{i + 1}" for i in range(nw)]
    blacks = [f"b{i + 1}" for i in range(nb)]
    genus = {w: rng.choice((0, 0, 0, 0, 1, -1, 2, -2)) for w in whites}

    def label():
        return rng.choice((1, 1, 2, 2, 3, 4, -1, -2, -3, -4))

    # random spanning tree alternating colours
    edges = []
    placed_w, placed_b = [whites[0]], []
    pending = whites[1:] + blacks
    rng.shuffle(pending)
    while pending:
        for i, v in enumerate(pending):
            is_white = v.startswith("w")
            pool = placed_b if is_white else placed_w
            if not pool:
                continue
            other = rng.choice(pool)
            w, b = (v, other) if is_white else (other, v)
            edges.append([f"e{len(edges) + 1}", w, b, label()])
            (placed_w if is_white else placed_b).append(v)
            pending.pop(i)
            break
    # occasional extra edge
    if rng.random() < 0.3:
        edges.append([f"e{len(edges) + 1}", rng.choice(whites),
                      rng.choice(blacks), label()])
    # meet the sheet-count invariant by growing labels
    for b in blacks:
        mine = [e for e in edges if e[2] == b]
        while sum(abs(e[3]) for e in mine) < 3:
            e = rng.choice(mine)
            if abs(e[3]) >= 4:
                return None
            e[3] += 1 if e[3] > 0 else -1
    text = "".join(f"white {w} genus {genus[w]}\n" for w in whites)
    text += "".join(f"black {b}\n" for b in blacks)
    text += "".join(f"edge {n} {w} {b} {l}\n" for n, w, b, l in edges)
    return S.parse_graph(text)


def cost_class(g) -> tuple[int, int]:
    """(blacks, blacks without a terminal genus-0 disk).  The disk rule
    certifies a disked black at once; every other black costs certificate
    searches, so these two numbers set most of a graph's resolution time."""
    def disked(b):
        return any(
            g.white(e.white).genus == 0 and len(g.edges_at_white(e.white)) == 1
            for e in g.edges_at_black(b)
        )
    blacks = g.black_names()
    return len(blacks), sum(not disked(b) for b in blacks)


def balanced_order(items, key) -> list:
    """Interleave ``items`` so that every prefix holds each key's share of
    the whole list to within one item (smooth weighted round robin); items
    of one key keep their order."""
    groups: dict = {}
    for it in items:
        groups.setdefault(key(it), []).append(it)
    keys = sorted(groups)
    credit = dict.fromkeys(keys, 0)
    taken = dict.fromkeys(keys, 0)
    out = []
    for _ in range(len(items)):
        for k in keys:
            credit[k] += len(groups[k])
        k = max(keys, key=lambda k: credit[k])
        credit[k] -= len(items)
        out.append(groups[k][taken[k]])
        taken[k] += 1
    return out


def orders_graphs(seed: int, count: int) -> list:
    """``count`` pairwise distinct graphs (by serialized text), in an order
    that gives every prefix the mix of cost classes of all ``count``: a
    run's first graphs then cost about the same for every seed."""
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        g = random_graph(rng)
        if g is None or S.serialize_graph(g) in seen:
            continue
        seen.add(S.serialize_graph(g))
        out.append(g)
    return balanced_order(out, cost_class)


class OrdersRandom(Workload):
    """One query resolves the orders of a batch of ``ORDERS_BATCH``
    consecutive graphs of the balanced order, so that every batch holds
    about the same mix of cost classes.  Single graphs take from 1 ms to
    0.7 s; the median of batches moves far less between seeds than the
    median of single graphs."""

    name = "orders-random"
    traced_queries = 20
    repeatable = False  # a repeated graph would be answered by the memo

    def __init__(self, root, seed):
        super().__init__(root, seed)
        graphs = orders_graphs(seed, ORDERS_POOL)
        self.batches = [tuple(graphs[i:i + ORDERS_BATCH])
                        for i in range(0, len(graphs), ORDERS_BATCH)]
        self.queries = [
            Query(i, "batch", "", "".join(S.serialize_graph(g) + "--\n"
                                          for g in batch))
            for i, batch in enumerate(self.batches)
        ]

    def answer(self, q, rec):
        found = [S.resolve_orders(g, ORDERS_BUDGET) for g in self.batches[q.index]]
        answer = "; ".join(
            oa.status + " " + ",".join(f"{b}={s}" for b, s in sorted(oa.sigma.items()))
            for oa in found)
        exact = all(oa.status == "exact" for oa in found)
        return (OK if exact else UNDETERMINED), answer, found

    def check_one(self, r):
        if r.payload is None:
            return PASS  # undetermined with nothing claimed
        outcomes = [self.check_graph(g, oa)
                    for g, oa in zip(self.batches[r.query.index], r.payload)]
        if FAIL in outcomes:
            return FAIL
        return UNCHECKED if UNCHECKED in outcomes else PASS

    def check_graph(self, g, oa) -> str:
        pres = _Pipeline(g).pres
        unchecked = False
        for b, s in oa.sigma.items():
            ev = oa.ab_evidence.get(b, 0)
            if s > 0:
                d = oa.certificates.get(b)
                if d is None or free_reduce(d.word) not in (
                    ((f"b.{b}", s),), ((f"b.{b}", -s),)
                ):
                    return FAIL
                if not replay_derivation(pres, d):
                    return FAIL
                if ev == 0 or s % ev:
                    return FAIL
            elif ev != 0:
                # infinite order claimed where H1 is finite: no cheap check
                unchecked = True
        return UNCHECKED if unchecked else PASS


# -- words ---------------------------------------------------------------------

CHAIN_LINKS = 16
WORD_POOL = 1400
CHAIN = "chain16"
TRI5, TRI7 = "FX-TRI(2,3,5)", "FX-TRI(2,3,7)"

#: the query kinds of one round of seven, by graph.  The chain's random
#: words are splice-bound, (2,3,7) is bound by exact matrix products.  The
#: median latency falls in the middle of the (2,3,7) words and the chain's
#: relator products, where many queries lie; with six kinds it fell at the
#: edge of the gap below the chain's random words and moved by a tenth
#: between seeds
WORD_ROUND = (
    (CHAIN, "relator-product"), (CHAIN, "random"), (CHAIN, "random"),
    (TRI7, "random"), (TRI7, "relator-product"),
    (TRI5, "random"), (TRI5, "relator-product"),
)


def chain_graph(links: int):
    """Genus-1 chain w_{i-1} -1- b_i -1- w_i, each b_i capped by a genus-0
    disk of label 2 (so the disk rule alone makes the orders exact)."""
    lines = [f"white w{i} genus 1" for i in range(links + 1)]
    lines += [f"white d{i} genus 0" for i in range(1, links + 1)]
    lines += [f"black b{i}" for i in range(1, links + 1)]
    for i in range(1, links + 1):
        lines += [f"edge l{i} w{i - 1} b{i} 1", f"edge r{i} w{i} b{i} 1",
                  f"edge k{i} d{i} b{i} 2"]
    return S.parse_graph("\n".join(lines) + "\n")


class Words(Workload):
    """Warm ``word_problem`` calls on the 16-link genus-1 chain and on the
    (2,3,5) and (2,3,7) triangle fixtures, in rounds of ``WORD_ROUND``."""

    name = "words"
    traced_queries = 84

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.graphs = {CHAIN: chain_graph(CHAIN_LINKS),
                       TRI5: S.load_fixture(TRI5), TRI7: S.load_fixture(TRI7)}
        self.pipes = {key: _Pipeline(g) for key, g in self.graphs.items()}
        rng = random.Random(seed)
        probes = 0
        for i in range(WORD_POOL):
            key, kind = WORD_ROUND[i % len(WORD_ROUND)]
            pres = self.pipes[key].pres
            if key == TRI7 and kind == "random" and i % 28 == 3:
                # (c1 c2)^k is trivial exactly when 7 | k in (2,3,7)
                k = 1 + probes % 14
                probes += 1
                w = power((("c.e1", 1), ("c.e2", 1)), k)
                q = Query(i, "probe", key, S.format_word(w), k % 7 == 0)
            elif kind == "relator-product":
                w = relator_product(rng, pres, rng.randint(1, 2), 12)
                q = Query(i, kind, key, S.format_word(w), True)
            else:
                w = random_word(rng, pres.generators, 40)
                q = Query(i, kind, key, S.format_word(w))
            self.queries.append(q)
        self.free_gens = free_exponent_generators(self.pipes[CHAIN].pres)

    def warm_up(self) -> None:
        # order resolution is memoized inside stratisolve, so the first call
        # on a graph resolves its orders and later calls reuse them
        for g in self.graphs.values():
            S.word_problem(g, "1")

    def answer(self, q, rec):
        v = S.word_problem(self.graphs[q.graph], q.text)
        return OK, f"{v.label} {v.reduced_length} {len(v.trace)}", v

    def check_one(self, r):
        q, pipe = r.query, self.pipes[r.query.graph]
        if not pipe.replays(q.text, r.payload):
            return FAIL
        if q.expect is not None:
            return PASS if r.payload.trivial == q.expect else FAIL
        return self.check_random(q.graph, S.parse_word(q.text, pipe.pres),
                                 r.payload.trivial)

    def prepare_checks(self):
        """Coset table of (2,3,5) and the degree-7 quotients of (2,3,7)."""
        self.table = S.todd_coxeter(self.pipes[TRI5].pres)
        if self.table.status != "complete" or self.table.order != 60:
            self.setup_errors.append(
                f"(2,3,5) coset table: {self.table.status} "
                f"order {self.table.order}")
        self.quotients = [
            h for h in S.finite_quotient_search(self.pipes[TRI7].pres, 7)
            if h.degree == 7
        ]
        if not any(h.image_order() == 168 for h in self.quotients):
            self.setup_errors.append("no quotient of (2,3,7) onto PSL(2,7)")

    def check_random(self, graph, word, trivial) -> str:
        """Check a verdict on a random word, whose answer is not known."""
        if graph == CHAIN:
            if exponent_sum_nonzero(word, self.free_gens):
                return FAIL if trivial else PASS
            return UNCHECKED
        if graph == TRI5:
            return PASS if trivial == S.cayley_wp(self.table, word) else FAIL
        ident = tuple(range(7))
        if any(h.permutation(word) != ident for h in self.quotients):
            return FAIL if trivial else PASS
        return UNCHECKED


# -- cli-fixtures ---------------------------------------------------------------

#: three commands per bundled fixture.  Expected answers follow the group
#: table of the README (e.g. FX-Z3 is Z/3, FX-S2W is trivial, FX-BS is an
#: infinite ascending HNN extension, FX-TRI(2,3,5) has order 60).
CLI_CALLS = {
    "FX-RP2": (
        (("abelian",), {"abelian": True}),
        (("solve", "y.w1.1^2"), {"verdict": "trivial"}),
        (("oracle", "derive", "y.w1.1^2"), {"found": True, "replays": True}),
    ),
    "FX-TOR": (
        (("abelian",), {"abelian": True}),
        (("solve", "y.w1.1 * y.w1.2 * y.w1.1^-1 * y.w1.2^-1"),
         {"verdict": "trivial"}),
        (("solve", "y.w1.1"), {"verdict": "nontrivial"}),
    ),
    "FX-KLB": (
        (("abelian",), {"abelian": False}),
        (("solve", "y.w1.1^2 * y.w1.2^2"), {"verdict": "trivial"}),
        (("sc",), {"simply_connected": False}),
    ),
    "FX-Z3": (
        (("order", "b1"), {"order": 3, "status": "exact"}),
        (("oracle", "quotients"), {"quotient": [3, 3]}),
        (("wedge",), {"simply_connected": False, "spheres": None}),
    ),
    "FX-S2W": (
        (("sc",), {"simply_connected": True}),
        (("wedge",), {"simply_connected": True, "spheres": 1}),
        (("prune",), {"success": True}),
    ),
    # each of these resolves the orders of FX-BS on the default budget
    "FX-BS": (
        (("order", "b1"), {"order": 0, "status": "exact"}),
        (("solve", "t.e2"), {"verdict": "nontrivial"}),
        (("abelian",), {"abelian": False}),
    ),
    "FX-ORB": (
        (("order", "b1"), {"order": 2, "status": "exact"}),
        (("abelian",), {"abelian": False}),
        (("solve", "y.w1.1 * y.w1.2 * y.w1.1^-1 * y.w1.2^-1"),
         {"verdict": "nontrivial"}),
    ),
    TRI5: (
        (("oracle", "tc"), {"order": 60, "status": "complete"}),
        (("solve", "c.e1 * c.e2 * c.e3"), {"verdict": "trivial"}),
        (("sc",), {"simply_connected": False}),
    ),
    TRI7: (
        (("order", "b3"), {"order": 7, "status": "exact"}),
        (("abelian",), {"abelian": False}),
        (("solve", "c.e1 * c.e2"), {"verdict": "nontrivial"}),
    ),
}


class CliFixtures(Workload):
    """One cold ``python -m stratisolve.cli --json ...`` process per query.

    A cycle runs the three commands of each of the eight other fixtures
    and one of the three FX-BS commands, each of which resolves the orders
    of FX-BS on the default budget (4-6 s, about half the cycle).  With one
    FX-BS call in 25, ``query_p90_ms`` is a time of the other commands
    rather than whichever FX-BS call is fastest.  The seed picks the FX-BS
    command and the order of the cycle."""

    name = "cli-fixtures"
    runs_children = True
    cycle = 3 * (len(CLI_CALLS) - 1) + 1
    traced_queries = cycle

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = random.Random(seed)
        calls = [(fx, call) for fx, fx_calls in CLI_CALLS.items()
                 if fx != "FX-BS" for call in fx_calls]
        calls.append(("FX-BS", rng.choice(CLI_CALLS["FX-BS"])))
        rng.shuffle(calls)
        for fx, (args, expect) in calls:
            argv = ("--json", args[0], self.fixture(fx)) + args[1:]
            self.queries.append(Query(len(self.queries), "cli", fx,
                                      json.dumps(argv), expect))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def warm_up(self) -> None:
        # the first call in a fresh checkout compiles the bytecode
        subprocess.run(self.command(("--json", "validate", self.fixture("FX-Z3"))),
                       cwd=self.root, env=self.env, capture_output=True,
                       timeout=120)

    def fixture(self, name: str) -> str:
        return str(Path("src") / "stratisolve" / "fixtures" / name)

    def command(self, argv, spans_out=None) -> list[str]:
        if spans_out is None:
            return [sys.executable, "-m", "stratisolve.cli", *argv]
        entry = str(Path(__file__).resolve().parent / "cli_entry.py")
        return [sys.executable, entry, str(spans_out), *argv]

    def answer(self, q, rec):
        argv = tuple(json.loads(q.text))
        spans_out = None
        if rec is not None:
            spans_out = spans.OUT_DIR / f"cli-{os.getpid()}-{q.index}.json"
        start = time.perf_counter()
        proc = subprocess.run(self.command(argv, spans_out), cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=170)
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.count("cli.process_s", elapsed)
            spans.merge_child(rec, json.loads(spans_out.read_text()),
                              rec.query_id)
            spans_out.unlink()
        answer = f"{proc.returncode} {proc.stdout.strip()}"
        if proc.returncode == 4:
            return UNDETERMINED, answer, None
        if proc.returncode != 0:
            return ERROR, answer, None
        return OK, answer, json.loads(proc.stdout)

    def check_one(self, r):
        if r.payload is None:
            return FAIL
        for key, want in r.query.expect.items():
            if key == "quotient":
                if want not in r.payload.get("quotients", []):
                    return FAIL
            elif r.payload.get(key) != want:
                return FAIL
        return PASS


WORKLOADS = {w.name: w for w in (OrdersRandom, Words, CliFixtures)}


def make(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, seed)
