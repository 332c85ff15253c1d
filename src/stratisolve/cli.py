"""Command-line interface.

Subcommands cover the full pipeline: validate / present / solve / order /
abelian / sc / wedge plus the oracle tools.  Exit codes: 0 success,
1 usage error, 2 input parse error, 3 graph invariant violation,
4 undetermined (order resolution exhausted its budget, or the coset table
of ``oracle cayley`` did not close).  JSON output is
deterministic: keys sorted, no timing, byte-identical across runs.

Each command takes the loaded graph and the parsed arguments and returns
its report and exit code; ``run`` loads the graph, prints the report and
turns errors into exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decisions import is_abelian, is_simply_connected, prune, wedge_check
from .errors import (
    BlackDegreeError, DanglingEdgeError, DisconnectedError, DuplicateNameError,
    GraphSyntaxError, IncompleteTableError, NotApplicableError, NotZeroTerminalError,
    StratisolveError, UndeterminedError, UnknownGeneratorError, UnknownVertexError,
    WordSyntaxError, ZeroLabelError,
)
from .graph_model import parse_graph
from .oracle import (
    Budget, cayley_wp, derive_if_h1_trivial, finite_quotient_search,
    replay_derivation, todd_coxeter,
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


class _UsageError(Exception):
    """A usage error that argparse cannot see, such as a missing word or an
    unreadable graph file."""


#: how ``run`` reports an error: the first row whose classes match gives the
#: exit code and the stderr prefix.  The invariant violations come before
#: the parse errors, because several of them subclass GraphSyntaxError.
_ERROR_EXITS = (
    (_UsageError, EXIT_USAGE, "error"),
    ((UndeterminedError, IncompleteTableError), EXIT_UNDETERMINED, "undetermined"),
    ((DuplicateNameError, DanglingEdgeError, ZeroLabelError, BlackDegreeError,
      DisconnectedError, NotApplicableError, NotZeroTerminalError),
     EXIT_INVARIANT, "invalid input"),
    ((GraphSyntaxError, WordSyntaxError, UnknownGeneratorError, UnknownVertexError),
     EXIT_PARSE, "parse error"),
    (StratisolveError, EXIT_INVARIANT, "error"),
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
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphSyntaxError(
            f"{path} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from None
    return parse_graph(text)


def _budget(text: str) -> Budget:
    """``--budget``: a ValueError's reason reaches the usage error."""
    try:
        return Budget.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- subcommands ----------------------------------------------------------

def cmd_validate(g, args):
    return {"ok": True, "whites": len(g.whites), "blacks": len(g.blacks),
            "edges": len(g.edges)}, EXIT_OK


def cmd_present(g, args):
    p = compile(g).pres
    return {
        "basepoint": p.tree.basepoint,
        "tree_edges": sorted(p.tree.tree_edges),
        "generators": list(p.generators),
        "relators": [format_word(r) for r in p.relators],
    }, EXIT_OK


def cmd_solve(g, args):
    verdict = word_problem(g, args.word, args.budget)
    report = {"word": args.word, "verdict": verdict.label,
              "reduced_length": verdict.reduced_length}
    if args.trace:
        report["trace"] = [s._asdict() for s in verdict.trace]
    return report, EXIT_OK


def cmd_order(g, args):
    g.black(args.black)
    oa = resolve_orders(g, args.budget)
    report = {"black": args.black, "status": oa.status,
              "order": oa.sigma[args.black]}
    if oa.unresolved:
        report["unresolved"] = list(oa.unresolved)
    return report, EXIT_OK if oa.status == "exact" else EXIT_UNDETERMINED


def cmd_abelian(g, args):
    return {"abelian": is_abelian(g, args.budget)}, EXIT_OK


def cmd_sc(g, args):
    return {"simply_connected": is_simply_connected(g, args.budget)}, EXIT_OK


def cmd_wedge(g, args):
    n = wedge_check(g, args.budget)
    return {"simply_connected": n is not None, "spheres": n}, EXIT_OK


def cmd_prune(g, args):
    rep = prune(g, args.budget)
    return {"success": rep.success, "steps": [s._asdict() for s in rep.steps],
            "final_components": len(rep.final_components)}, EXIT_OK


# -- oracle operations ------------------------------------------------------

def _word_arg(args) -> str:
    if args.arg is None:
        raise _UsageError(f"oracle {args.subop} needs a word")
    return args.arg


def _int_arg(args, default: int) -> int:
    """The oracle's numeric argument: a positive integer."""
    if args.arg is None:
        return default
    try:
        value = int(args.arg)
    except ValueError:
        raise _UsageError(
            f"oracle {args.subop} needs an integer, not {args.arg!r}") from None
    if value < 1:
        raise _UsageError(f"oracle {args.subop} needs a positive integer, not {value}")
    return value


def _oracle_derive(c, args):
    text = _word_arg(args)
    w = parse_word(text, c.pres)
    d = derive_if_h1_trivial(abelianization(c.pres), w, c.budget)
    report = {"word": text, "found": d is not None}
    if d is not None:
        report["insertions"] = len(d.steps)
        report["replays"] = replay_derivation(c.pres, d)
        if args.trace:
            report["steps"] = [
                {"conjugator": format_word(s.conjugator),
                 "relator": s.relator_index, "sign": s.sign}
                for s in d.steps
            ]
    return report, EXIT_OK


def _oracle_tc(c, args):
    t = todd_coxeter(c.pres, _int_arg(args, 100000))
    return {"status": t.status, "order": t.order}, EXIT_OK


def _oracle_cayley(c, args):
    text = _word_arg(args)
    t = todd_coxeter(c.pres)
    return {"word": text, "trivial": cayley_wp(t, parse_word(text, c.pres))}, EXIT_OK


def _oracle_quotients(c, args):
    degree = _int_arg(args, 6)
    homs = finite_quotient_search(c.pres, degree)
    quotients = sorted({(h.degree, h.image_order() or 0) for h in homs})
    return {"max_degree": degree, "count": len(homs),
            "quotients": [list(q) for q in quotients]}, EXIT_OK


#: oracle operation -> function of the compiled graph and the arguments
_ORACLE = {
    "derive": _oracle_derive,
    "tc": _oracle_tc,
    "cayley": _oracle_cayley,
    "quotients": _oracle_quotients,
}


def cmd_oracle(g, args):
    return _ORACLE[args.subop](compile(g, args.budget), args)


# -- argument parsing -------------------------------------------------------

#: command -> (function, its positional arguments after the graph)
_COMMANDS = {
    "validate": (cmd_validate, {}),
    "present": (cmd_present, {}),
    "solve": (cmd_solve, {"word": {"help": "word over the presentation"}}),
    "order": (cmd_order, {"black": {"help": "black vertex name"}}),
    "abelian": (cmd_abelian, {}),
    "sc": (cmd_sc, {}),
    "wedge": (cmd_wedge, {}),
    "prune": (cmd_prune, {}),
    "oracle": (cmd_oracle, {
        "subop": {"choices": list(_ORACLE), "help": "oracle operation"},
        "arg": {"nargs": "?", "help": "word / coset cap / degree"},
    }),
}


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
    for name, (fn, extra) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("graph", help="path to a labelled graph file")
        for arg, kwargs in extra.items():
            sp.add_argument(arg, **kwargs)
        sp.set_defaults(fn=fn)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.fn(_load_graph(args.graph), args)
    except (_UsageError, StratisolveError) as exc:
        # the last row catches every StratisolveError
        _, code, prefix = next(row for row in _ERROR_EXITS if isinstance(exc, row[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    command = f"oracle {args.subop}" if args.cmd == "oracle" else args.cmd
    report = {"command": command, **report}
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
