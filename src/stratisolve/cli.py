"""Command-line interface.

Subcommands cover the full pipeline: validate / present / solve / order /
abelian / sc / wedge plus the oracle tools.  Exit codes: 0 success,
1 usage error, 2 input parse error, 3 graph invariant violation,
4 undetermined (order resolution exhausted its budget, or the coset table
of ``oracle cayley`` did not close).  JSON output is
deterministic: keys sorted, no timing, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decisions import is_abelian, is_simply_connected, prune, wedge_check
from .errors import (
    BlackDegreeError,
    DanglingEdgeError,
    DisconnectedError,
    DuplicateNameError,
    GraphSyntaxError,
    IncompleteTableError,
    NotApplicableError,
    NotZeroTerminalError,
    StratisolveError,
    TreeEdgeStableError,
    UndeterminedError,
    UnknownGeneratorError,
    UnknownVertexError,
    WordSyntaxError,
    ZeroLabelError,
)
from .graph_model import parse_graph
from .oracle import (
    Budget,
    cayley_wp,
    derive_if_h1_trivial,
    finite_quotient_search,
    replay_derivation,
    todd_coxeter,
)
from .order_engine import resolve_orders
from .pipeline import compile
from .presentation import abelianization, format_word, parse_word
from .serre_solver import word_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_UNDETERMINED = 4

_PARSE_ERRORS = (
    GraphSyntaxError,
    WordSyntaxError,
    UnknownGeneratorError,
    TreeEdgeStableError,
    UnknownVertexError,
)
_INVARIANT_ERRORS = (
    DuplicateNameError,
    DanglingEdgeError,
    ZeroLabelError,
    BlackDegreeError,
    DisconnectedError,
    NotApplicableError,
    NotZeroTerminalError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    return parse_graph(text)


def _budget(text: str) -> Budget:
    """``--budget``: a ValueError's reason reaches the usage error."""
    try:
        return Budget.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    for key, value in report.items():
        print(f"{key}: {value}")


# -- subcommands ----------------------------------------------------------

def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    _emit(
        {
            "command": "validate",
            "ok": True,
            "whites": len(g.whites),
            "blacks": len(g.blacks),
            "edges": len(g.edges),
        },
        args.json,
    )
    return EXIT_OK


def cmd_present(args) -> int:
    p = compile(_load_graph(args.graph)).pres
    report = {
        "command": "present",
        "basepoint": p.tree.basepoint,
        "tree_edges": sorted(p.tree.tree_edges),
        "generators": list(p.generators),
        "relators": [format_word(r) for r in p.relators],
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    verdict = word_problem(g, args.word, args.budget)
    report = {
        "command": "solve",
        "word": args.word,
        "verdict": verdict.label,
        "reduced_length": verdict.reduced_length,
    }
    if args.trace:
        report["trace"] = [
            {
                "index": s.index,
                "edge": s.edge,
                "end": s.end,
                "witness": s.witness,
            }
            for s in verdict.trace
        ]
    _emit(report, args.json)
    return EXIT_OK


def cmd_order(args) -> int:
    g = _load_graph(args.graph)
    g.black(args.black)
    oa = resolve_orders(g, args.budget)
    report = {
        "command": "order",
        "black": args.black,
        "status": oa.status,
        "order": oa.sigma[args.black],
    }
    if oa.unresolved:
        report["unresolved"] = list(oa.unresolved)
    _emit(report, args.json)
    if oa.status != "exact":
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_abelian(args) -> int:
    g = _load_graph(args.graph)
    value = is_abelian(g, args.budget)
    _emit({"command": "abelian", "abelian": value}, args.json)
    return EXIT_OK


def cmd_sc(args) -> int:
    g = _load_graph(args.graph)
    value = is_simply_connected(g, args.budget)
    _emit({"command": "sc", "simply_connected": value}, args.json)
    return EXIT_OK


def cmd_wedge(args) -> int:
    g = _load_graph(args.graph)
    n = wedge_check(g, args.budget)
    report = {
        "command": "wedge",
        "simply_connected": n is not None,
        "spheres": n,
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_prune(args) -> int:
    g = _load_graph(args.graph)
    rep = prune(g, args.budget)
    report = {
        "command": "prune",
        "success": rep.success,
        "steps": [
            {"black": s.black, "white": s.white, "order": s.order,
             "action": s.action}
            for s in rep.steps
        ],
        "final_components": len(rep.final_components),
    }
    _emit(report, args.json)
    return EXIT_OK


def _int_arg(args, default: int) -> int | None:
    """The oracle's numeric argument; None after reporting a usage error."""
    if args.arg is None:
        return default
    try:
        value = int(args.arg)
    except ValueError:
        print(
            f"error: oracle {args.subop} needs an integer, not {args.arg!r}",
            file=sys.stderr,
        )
        return None
    if value < 1:
        print(
            f"error: oracle {args.subop} needs a positive integer, not {value}",
            file=sys.stderr,
        )
        return None
    return value


def cmd_oracle(args) -> int:
    compiled = compile(_load_graph(args.graph), args.budget)
    p = compiled.pres
    if args.subop == "derive":
        if args.arg is None:
            print("error: oracle derive needs a word", file=sys.stderr)
            return EXIT_USAGE
        w = parse_word(args.arg, p)
        d = derive_if_h1_trivial(abelianization(p), w, compiled.budget)
        report = {
            "command": "oracle derive",
            "word": args.arg,
            "found": d is not None,
        }
        if d is not None:
            report["insertions"] = len(d.steps)
            report["replays"] = replay_derivation(p, d)
            if args.trace:
                report["steps"] = [
                    {
                        "conjugator": format_word(s.conjugator),
                        "relator": s.relator_index,
                        "sign": s.sign,
                    }
                    for s in d.steps
                ]
        _emit(report, args.json)
        return EXIT_OK
    if args.subop == "tc":
        cap = _int_arg(args, 100000)
        if cap is None:
            return EXIT_USAGE
        t = todd_coxeter(p, cap)
        _emit(
            {"command": "oracle tc", "status": t.status, "order": t.order},
            args.json,
        )
        return EXIT_OK
    if args.subop == "cayley":
        if args.arg is None:
            print("error: oracle cayley needs a word", file=sys.stderr)
            return EXIT_USAGE
        t = todd_coxeter(p)
        value = cayley_wp(t, parse_word(args.arg, p))
        _emit(
            {"command": "oracle cayley", "word": args.arg, "trivial": value},
            args.json,
        )
        return EXIT_OK
    if args.subop == "quotients":
        degree = _int_arg(args, 6)
        if degree is None:
            return EXIT_USAGE
        homs = finite_quotient_search(p, degree)
        report = {
            "command": "oracle quotients",
            "max_degree": degree,
            "count": len(homs),
            "quotients": sorted(
                {
                    (h.degree, h.image_order() or 0)
                    for h in homs
                }
            ),
        }
        report["quotients"] = [list(q) for q in report["quotients"]]
        _emit(report, args.json)
        return EXIT_OK
    print(f"error: unknown oracle operation {args.subop!r}", file=sys.stderr)
    return EXIT_USAGE


# -- argument parsing -------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="stratisolve",
        description="Word-problem decisions for 2-stratifold groups.",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--budget",
        type=_budget,
        metavar="INSERTIONS,MAXLEN",
        help="derivation search budget (default 6,64)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="include reduction/derivation certificates in the output",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("graph", help="path to a labelled graph file")
        for arg, kwargs in extra.items():
            sp.add_argument(arg, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate)
    add("present", cmd_present)
    add("solve", cmd_solve, word={"help": "word over the presentation"})
    add("order", cmd_order, black={"help": "black vertex name"})
    add("abelian", cmd_abelian)
    add("sc", cmd_sc)
    add("wedge", cmd_wedge)
    add("prune", cmd_prune)
    sp = add("oracle", cmd_oracle, subop={
        "choices": ["derive", "tc", "cayley", "quotients"],
        "help": "oracle operation",
    })
    sp.add_argument("arg", nargs="?", help="word / coset cap / degree")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UndeterminedError as exc:
        blacks = ", ".join(exc.blacks)
        print(
            f"undetermined: could not certify orders for: {blacks}",
            file=sys.stderr,
        )
        return EXIT_UNDETERMINED
    except IncompleteTableError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    # invariant violations first: several subclass GraphSyntaxError
    except _INVARIANT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except _PARSE_ERRORS as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StratisolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
