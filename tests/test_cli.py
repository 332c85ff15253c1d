import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratisolve
from stratisolve import fixture_path, oracle
from stratisolve.cli import run


@pytest.fixture
def fx():
    return lambda name: str(fixture_path(name))


def out_of(capsys):
    return capsys.readouterr().out


def test_validate(fx, capsys):
    assert run(["validate", fx("FX-Z3")]) == 0
    assert "whites: 1" in out_of(capsys)


def test_validate_json_deterministic(fx, capsys):
    assert run(["--json", "validate", fx("FX-Z3")]) == 0
    first = out_of(capsys)
    assert run(["--json", "validate", fx("FX-Z3")]) == 0
    second = out_of(capsys)
    assert first == second
    data = json.loads(first)
    assert data["ok"] is True and data["edges"] == 1


def test_present(fx, capsys):
    assert run(["--json", "present", fx("FX-BS")]) == 0
    data = json.loads(out_of(capsys))
    assert data["basepoint"] == "w1"
    assert "t.e2" in data["generators"]
    assert data["tree_edges"] == ["e1"]


def test_solve_trivial_and_nontrivial(fx, capsys):
    assert run(["--json", "solve", fx("FX-Z3"), "b.b1^3"]) == 0
    assert json.loads(out_of(capsys))["verdict"] == "trivial"
    assert run(["--json", "solve", fx("FX-Z3"), "b.b1"]) == 0
    data = json.loads(out_of(capsys))
    assert data["verdict"] == "nontrivial"
    assert data["reduced_length"] == 2


def test_solve_trace(fx, capsys):
    assert run(["--json", "--trace", "solve", fx("FX-Z3"), "b.b1^3"]) == 0
    data = json.loads(out_of(capsys))
    assert data["trace"]
    assert {"index", "edge", "end", "witness"} <= set(data["trace"][0])


def test_order(fx, capsys):
    assert run(["--json", "order", fx("FX-Z3"), "b1"]) == 0
    data = json.loads(out_of(capsys))
    assert data["order"] == 3 and data["status"] == "exact"


def test_order_budget_exhaustion(fx, capsys):
    assert run(["--json", "--budget", "1,8", "order", fx("FX-ORB"), "b1"]) == 4
    data = json.loads(out_of(capsys))
    assert data["status"] == "undetermined"
    assert data["unresolved"] == ["b1"]


def test_solve_budget_exhaustion_names_black(fx, capsys):
    assert run(["--budget", "1,8", "solve", fx("FX-ORB"), "b.b1^2"]) == 4
    err = capsys.readouterr().err
    assert "b1" in err and "undetermined" in err


def test_abelian_sc_wedge(fx, capsys):
    assert run(["--json", "abelian", fx("FX-TOR")]) == 0
    assert json.loads(out_of(capsys))["abelian"] is True
    assert run(["--json", "sc", fx("FX-S2W")]) == 0
    assert json.loads(out_of(capsys))["simply_connected"] is True
    assert run(["--json", "wedge", fx("FX-S2W")]) == 0
    assert json.loads(out_of(capsys))["spheres"] == 1
    assert run(["--json", "wedge", fx("FX-Z3")]) == 0
    assert json.loads(out_of(capsys))["spheres"] is None


def test_prune(fx, capsys):
    assert run(["--json", "prune", fx("FX-S2W")]) == 0
    data = json.loads(out_of(capsys))
    assert data["success"] is True
    assert run(["--json", "prune", fx("FX-Z3")]) == 0
    data = json.loads(out_of(capsys))
    assert data["success"] is False
    assert data["steps"][-1]["order"] == 3


def test_prune_not_applicable_exit_code(fx, capsys):
    assert run(["prune", fx("FX-TOR")]) == 3


def test_oracle_derive(fx, capsys):
    assert run(["--json", "oracle", fx("FX-Z3"), "derive", "b.b1^3"]) == 0
    data = json.loads(out_of(capsys))
    assert data["found"] is True and data["replays"] is True


def test_oracle_derive_refutes_by_h1(fx, capsys, monkeypatch):
    # b.b1 has order 3 in H1 of FX-BS, so no derivation of b.b1 exists;
    # the screen looks derive_trivial up in the oracle module
    def refuse(*args):
        raise AssertionError("no search was expected for a word nonzero in H1")

    monkeypatch.setattr(oracle, "derive_trivial", refuse)
    assert run(["--json", "oracle", fx("FX-BS"), "derive", "b.b1"]) == 0
    assert json.loads(out_of(capsys)) == {
        "command": "oracle derive", "found": False, "word": "b.b1",
    }


def test_oracle_tc(fx, capsys):
    assert run(["--json", "oracle", fx("FX-Z3"), "tc"]) == 0
    data = json.loads(out_of(capsys))
    assert data["order"] == 3 and data["status"] == "complete"


def test_oracle_cayley(fx, capsys):
    assert run(["--json", "oracle", fx("FX-Z3"), "cayley", "b.b1^2"]) == 0
    assert json.loads(out_of(capsys))["trivial"] is False


def test_oracle_cayley_undetermined_on_an_infinite_group(fx, capsys):
    # Z x Z has no finite coset table: the oracle does not decide, and
    # that is exit 4, not an invariant violation
    assert run(["--json", "oracle", fx("FX-TOR"), "cayley", "y.w1.1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "undetermined: coset table did not close"


def test_oracle_quotients(fx, capsys):
    assert run(["--json", "oracle", fx("FX-Z3"), "quotients", "3"]) == 0
    data = json.loads(out_of(capsys))
    assert [3, 3] in data["quotients"]


@pytest.mark.parametrize("subop,arg", [("tc", "abc"), ("quotients", "x")])
def test_oracle_rejects_a_non_integer_argument(fx, capsys, subop, arg):
    assert run(["--json", "oracle", fx("FX-Z3"), subop, arg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: oracle {subop} needs an integer, not {arg!r}\n"
    )


@pytest.mark.parametrize(
    "subop,arg", [("tc", "-3"), ("tc", "0"), ("quotients", "0")]
)
def test_oracle_rejects_a_nonpositive_argument(fx, capsys, subop, arg):
    assert run(["--json", "oracle", fx("FX-Z3"), subop, arg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: oracle {subop} needs a positive integer, not {arg}\n"
    )


_BUDGET_REASONS = {
    "0,0": "budget fields must be at least 1",
    "-1,5": "budget fields must be at least 1",
    "4,0": "budget fields must be at least 1",
    "1,2,3": "budget needs two fields INSERTIONS,MAXLEN",
    "a,b": "budget fields must be integers",
}


@pytest.mark.parametrize(
    "budget", [["--budget", "0,0"], ["--budget=-1,5"], ["--budget", "4,0"],
               ["--budget", "1,2,3"], ["--budget", "a,b"]]
)
def test_budget_below_one_is_a_usage_error(fx, capsys, budget):
    with pytest.raises(SystemExit) as exc:
        run(budget + ["--json", "order", fx("FX-Z3"), "b1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    text = budget[-1].removeprefix("--budget=")
    assert (
        f"error: argument --budget: {_BUDGET_REASONS[text]}, not {text!r}\n"
        in captured.err
    )


def test_cold_import_loads_no_slow_modules():
    """A CLI process imports none of the modules that slowed every cold
    start.  ``-S`` keeps out site ``.pth`` files, which differ between
    machines and may import them on their own."""
    slow = ("dataclasses", "inspect", "ast", "importlib.resources")
    probe = (f"import stratisolve.cli, sys; "
             f"print(*[m for m in {slow!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(stratisolve.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def test_exit_codes(fx, tmp_path, capsys):
    bad_graph = tmp_path / "bad"
    bad_graph.write_text("white w genus 0\nblack b\nedge e w b 2\n")
    assert run(["validate", str(bad_graph)]) == 3  # sheet-count violation
    capsys.readouterr()

    mangled = tmp_path / "mangled"
    mangled.write_text("white w genus zero\n")
    assert run(["validate", str(mangled)]) == 2  # parse error
    capsys.readouterr()

    caret = tmp_path / "caret"
    caret.write_text("white w1 genus 0\nblack x^2\nedge e1 w1 x^2 3\n")
    assert run(["validate", str(caret)]) == 2  # a name no word can spell
    assert "parse error" in capsys.readouterr().err

    latin1 = tmp_path / "latin1"
    latin1.write_bytes(b"\xff")
    assert run(["validate", str(latin1)]) == 2  # not UTF-8
    assert capsys.readouterr().err.startswith("parse error: ")

    assert run(["solve", fx("FX-Z3"), "b.b1^^"]) == 2  # word syntax
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 1  # usage
    capsys.readouterr()

    missing = tmp_path / "missing"
    assert run(["validate", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_order_checks_black_name_before_order_search(fx, capsys, monkeypatch):
    import stratisolve.cli as cli

    def refuse(g, budget=None):
        raise AssertionError("orders resolved before the name was checked")

    monkeypatch.setattr(cli, "resolve_orders", refuse)
    assert run(["--json", "order", fx("FX-BS"), "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err


# -- pinned output ----------------------------------------------------------------

#: sha256 of what ``_pinned_cli_calls`` prints and returns: a change in any
#: stdout byte, stderr line or exit code of these calls shows here
CLI_PIN_DIGEST = "072bb7f1ee2cfe5d8f8f39b34849e6f25ea72f702b2a4eb4b02bf933c7bad791"

#: fixture -> (a word, a word for ``oracle derive``, a black): each derive
#: word is trivial or nonzero in H1, so no search runs out its budget
CLI_PIN_FIXTURES = {
    "FX-Z3": ("b.b1^3", "b.b1^3", "b1"),
    "FX-BS": ("t.e2", "t.e2", "b1"),
    "FX-TRI(2,3,7)": ("c.e1 * c.e2", "b.b1^2", "b3"),
}


def _pinned_cli_calls():
    """(flags, command, fixture, arguments after the graph) of every
    subcommand in plain and ``--json`` form, the two ``--trace`` commands,
    and the two oracle operations that need a word, given none."""
    for fx, (word, derived, black) in CLI_PIN_FIXTURES.items():
        commands = [
            ("validate",), ("present",), ("solve", word), ("order", black),
            ("abelian",), ("sc",), ("wedge",), ("prune",),
            ("oracle", "derive", derived), ("oracle", "tc", "2000"),
            ("oracle", "cayley", word), ("oracle", "quotients", "4"),
        ]
        for flags in ((), ("--json",)):
            for command, *rest in commands:
                yield flags, command, fx, rest
        for flags in (("--trace",), ("--json", "--trace")):
            yield flags, "solve", fx, [word]
            yield flags, "oracle", fx, ["derive", derived]
        yield (), "oracle", fx, ["derive"]
        yield (), "oracle", fx, ["cayley"]


def test_cli_output_is_pinned(capsys):
    h = hashlib.sha256()
    for flags, command, fx, rest in _pinned_cli_calls():
        code = run([*flags, command, str(fixture_path(fx)), *rest])
        captured = capsys.readouterr()
        # the fixture's name, not its path, which differs between checkouts
        argv = [*flags, command, fx, *rest]
        h.update(repr((argv, code, captured.out, captured.err)).encode())
    assert h.hexdigest() == CLI_PIN_DIGEST
