"""Tests for the command-line interface and its exit-code contract."""
from __future__ import annotations

import json
import sys

import pytest

import gaugeinv.cli as cli
from gaugeinv.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_HYPOTHESIS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    latex_expr,
    latex_operator,
    main,
)
from gaugeinv.classify import ClassSpec, class_operator
from gaugeinv.grammar import parse_expr, print_expr
from gaugeinv.invariants import InvariantRecord, complete_set
from gaugeinv.jetalg import JetExpr, param_symbol
from gaugeinv.opalg import DiffOperator
from gaugeinv import verify
from gaugeinv.verify import DeltaContext, is_invariant

import _fixtures as fx


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec.to_json()))
    return str(path)


def write_operator(tmp_path, L, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps(L.to_json()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_ok(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xyz())
    code, out, _ = run(capsys, ["analyze", path])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["framed"] is True
    assert data["framing_set"]


def test_analyze_not_flat_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_not_flat_a())
    code, out, _ = run(capsys, ["analyze", path])
    assert code == EXIT_HYPOTHESIS
    assert json.loads(out)["approximately_flat"] is False


def test_analyze_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_invariants_xxy(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, _ = run(capsys, ["invariants", path, "--verify"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["audit"]["complete"] is True
    kinds = [r["kind"] for r in data["invariants"]]
    assert kinds.count("maximal") == 1
    assert kinds.count("compatibility") == 1
    assert kinds.count("upward") == 3


def test_invariants_hypothesis_failure_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_not_framed())
    code, _, err = run(capsys, ["invariants", path])
    assert code == EXIT_HYPOTHESIS
    assert "not framed" in err


# On d_xxy the construction names its own parameters c1, c2 (the shifts of
# d_x, d_y) and q1_0, q0_1, q0_0 (the shifts of the B_w); a class parameter
# of one of these names would be the same symbol.
@pytest.mark.parametrize("name", ["c1", "q1_0"])
def test_class_parameter_named_like_the_constructions_exits_2(tmp_path, capsys, name):
    p = JetExpr.symbol(param_symbol(name), dim=2)
    path = write_spec(tmp_path, ClassSpec(2, (((2, 1), p),)))
    assert run(capsys, ["analyze", path])[0] == EXIT_OK
    code, out, err = run(capsys, ["invariants", path])
    assert (code, out) == (EXIT_HYPOTHESIS, "")
    assert f"class parameter {name} " in err


# The framing system is solved in the framing coefficients a_s and names no
# symbol of its own, so a class parameter such as D1_1 is only a parameter.
def test_class_parameter_named_like_a_framing_coefficient_verifies(tmp_path, capsys):
    p = JetExpr.symbol(param_symbol("D1_1"), dim=2)
    path = write_spec(tmp_path, ClassSpec(2, (((2, 1), p),)))
    code, out, _ = run(capsys, ["invariants", path, "--verify"])
    assert code == EXIT_OK
    assert json.loads(out)["audit"]["complete"] is True


# A coefficient symbol a_w is the maximal coefficient at w; on any other
# vector it would be gauged as a_w and as a maximal coefficient at once.
@pytest.mark.parametrize("vector, coefficient", [
    ([1, 1], "a[0,0]"), ([1, 1], "a[1,0]"), ([2, 1], "a[5,5]"),
])
def test_coefficient_symbol_of_another_vector_exits_2(tmp_path, capsys, vector, coefficient):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"dimension": 2, "maximal_terms": [{"vector": vector, "coefficient": coefficient}]}
    ))
    for command in ("analyze", "invariants"):
        code, out, err = run(capsys, [command, str(path)])
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert f"coefficient {coefficient} of " in err


def test_coefficient_symbol_of_its_own_vector_verifies(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"dimension": 2, "maximal_terms": [{"vector": [1, 1], "coefficient": "a[1,1]"}]}
    ))
    assert run(capsys, ["invariants", str(path), "--verify"])[0] == EXIT_OK


XXY_TEMPLATES = {
    "stages": [
        {
            "templates": [{
                "factors": [
                    {"powers": [[1, 0]], "shift": "q"},
                    {"powers": [[1, 0]], "shift": "q"},
                    {"powers": [[0, 1]], "shift": "r"},
                ],
            }],
            "targets": [[2, 0], [1, 1]],
        },
        {
            "templates": [{
                "factors": [
                    {"powers": [[1, 0]], "shift": "s"},
                    {"powers": [[0, 1]], "shift": "t"},
                ],
            }],
            "targets": [[1, 0], [0, 1]],
        },
    ],
}


def write_templates(tmp_path, data, name="templates.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_invariants_with_template_file(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    tfile = write_templates(tmp_path, XXY_TEMPLATES)
    code, out, _ = run(capsys, ["invariants", path, "--templates", tfile, "--verify"])
    assert code == EXIT_OK
    data = json.loads(out)
    labels = [r["label"] for r in data["invariants"]]
    assert labels == ["I_{01}", "I_{10}", "I_{00}"]


def test_second_call_prints_what_a_first_call_would(tmp_path, capsys):
    # The parser is built once per process; nothing of one call's
    # arguments may reach the next.
    path = write_spec(tmp_path, fx.spec_xxy())
    tfile = write_templates(tmp_path, XXY_TEMPLATES)
    cli.build_parser.cache_clear()
    first = run(capsys, ["invariants", path])
    staged = run(capsys, ["invariants", path, "--templates", tfile, "--verify",
                          "--seed", "3", "--format", "text"])
    assert staged[0] == EXIT_OK
    assert run(capsys, ["invariants", path]) == first


# The help texts at 80 columns, as argparse printed them when every call
# built its own parser.
HELP_80 = {
    (): """\
usage: gaugeinv [-h] {analyze,invariants,gauge,verify} ...

Gauge (Laplace) invariants of linear PDE operator classes.

positional arguments:
  {analyze,invariants,gauge,verify}
    analyze             classify a class spec
    invariants          construct invariants
    gauge               gauge-transform an operator
    verify              verify an expression over a class

options:
  -h, --help            show this help message and exit
""",
    ("invariants",): """\
usage: gaugeinv invariants [-h] [--templates TEMPLATES] [--verify]
                           [--seed SEED] [--format {json,latex,text}]
                           spec

positional arguments:
  spec

options:
  -h, --help            show this help message and exit
  --templates TEMPLATES
                        staged template JSON file
  --verify
  --seed SEED
  --format {json,latex,text}
""",
    ("verify",): """\
usage: gaugeinv verify [-h] --expr EXPR [--seed SEED]
                       [--format {json,latex,text}]
                       spec

positional arguments:
  spec

options:
  -h, --help            show this help message and exit
  --expr EXPR
  --seed SEED
  --format {json,latex,text}
""",
}


@pytest.mark.parametrize("command", [(), ("analyze",), ("invariants",), ("gauge",),
                                     ("verify",)])
def test_help_is_the_same_from_a_cached_parser(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0] == HELP_80.get(command, texts[0])


def test_invariants_verify_failure_prints_the_residual(tmp_path, capsys, monkeypatch):
    def poisoned(spec):
        records, audit = complete_set(spec)
        last = records[-1]
        bad = InvariantRecord(last.kind, last.label, last.expression + parse_expr("a[0,0]", 2),
                              last.assumptions, last.target_vector, last.representation)
        return records[:-1] + [bad], audit

    monkeypatch.setattr(cli, "complete_set", poisoned)
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["invariants", path, "--verify"])
    residual = is_invariant(parse_expr("a[0,0]", 2), DeltaContext.for_class(fx.spec_xxy()))[1]
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == f"verification failed for I_{{00}}: residual {print_expr(residual)}\n"


def test_invariants_verify_numeric_failure_prints_no_residual(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "numeric_spot_check", lambda *args: False)
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["invariants", path, "--verify"])
    first = complete_set(fx.spec_xxy())[0][0].label
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == f"verification failed for {first}: residual ?\n"


def test_verify_invariant_expression(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, _ = run(
        capsys, ["verify", path, "--expr", "2*a[2,0];[1,0] - a[1,1];[0,1]"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["invariant"] and data["numeric_check"]


def test_verify_non_invariant_exits_3(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, _ = run(capsys, ["verify", path, "--expr", "a[1,0]"])
    assert code == EXIT_VERIFY
    assert "residual" in json.loads(out)


def test_verify_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    # Delta says invariant, the oracle says not: a disagreement is a
    # verification failure, as in ``invariants --verify``.
    monkeypatch.setattr(verify, "numeric_spot_check", lambda *args: False)
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, _ = run(capsys, ["verify", path, "--expr", "2*a[2,0];[1,0] - a[1,1];[0,1]"])
    assert code == EXIT_VERIFY
    data = json.loads(out)
    assert data["invariant"] is True and data["numeric_check"] is False


def test_verify_bad_expression_exits_1(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, _, _ = run(capsys, ["verify", path, "--expr", "a[1,0] +"])
    assert code == EXIT_PARSE


@pytest.mark.parametrize("command, text, message", [
    ("verify", "a[1,0]^p", "exponent must be an integer literal"),
    ("verify", "a[1,0;[0,1]", "expected ']', got ';['"),
    ("templates", "p +", "unexpected end of expression"),
])
def test_parse_errors_exit_1(tmp_path, capsys, command, text, message):
    # "templates" parses text as a shift of a template file on the d_xy class
    if command == "verify":
        argv = ["verify", write_spec(tmp_path, fx.spec_xxy()), "--expr", text]
    else:
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(_xy_stage(first={"powers": [[1, 0]], "shift": text})))
        argv = ["invariants", write_spec(tmp_path, fx.spec_xy()), "--templates", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("expr", ["1/0", "a[1,0]/(a[0,1]-a[0,1])", "0^-1"])
def test_verify_division_by_zero_exits_1(tmp_path, capsys, expr):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["verify", path, "--expr", expr])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and "identically-zero" in err


def test_verify_unknown_parameter_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["verify", path, "--expr", "q"])
    assert code == EXIT_HYPOTHESIS
    assert out == ""
    assert err == "error: parameter q is not in the class\n"


def test_verify_maximal_coefficient_reports(tmp_path, capsys):
    # a[2,1] is the maximal coefficient, the constant 1 in the class; Delta
    # leaves it as it is, and the oracle draws it like any other symbol.
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, _ = run(capsys, ["verify", path, "--expr", "a[2,1]"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["invariant"] and data["numeric_check"]


def test_unexpected_exception_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["analyze", path])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: RuntimeError: broken command\n"


class _ClosedPipe:
    """A stdout whose reader has gone, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["analyze", "invariants"])
def test_closed_stdout_exits_141_and_prints_nothing(tmp_path, capsys, monkeypatch, command):
    path = write_spec(tmp_path, fx.spec_xxy())
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main([command, path])
    assert code == EXIT_BROKEN_PIPE == 141
    sys.stdout.write("the final flush\n")  # stdout now discards what is left
    sys.stdout.flush()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--expr", "a[2,1] \n"]],
                         ids=["spec", "spec and expr"])
def test_trailing_whitespace_is_not_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"dimension": 2, "maximal_terms": [{"vector": [2, 1], "coefficient": "1 "}]}
    ))
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, err) == (EXIT_OK, "")


XY_TERMS = [{"vector": [1, 1], "coefficient": "1"}]
STAGE_XY = {"templates": [{"factors": [{"powers": [[1, 0]], "shift": "p"},
                                       {"powers": [[0, 1]], "shift": "q"}]}],
            "targets": [[1, 0], [0, 1]]}


def _with_factor(factor):
    return {"stages": [{"templates": [{"factors": [factor]}], "targets": [[0, 0]]}]}


def _xy_stage(prefactor="1", first=None, second=None):
    """STAGE_XY with a prefactor and the two factors replaced."""
    first = first or {"powers": [[1, 0]], "shift": "p"}
    second = second or {"powers": [[0, 1]], "shift": "q"}
    return {"stages": [
        {**STAGE_XY, "templates": [{"prefactor": prefactor, "factors": [first, second]}]}]}


# case -> (command, file content, extra arguments, a piece of the message);
# "templates" runs invariants on the d_xy class with the content as its
# template file.  Each is an input error that a typed library error reports.
BAD_INPUTS = {
    "dimension_not_int": ("analyze", {"dimension": "two", "maximal_terms": XY_TERMS}, [],
                          "malformed class spec"),
    "dimension_fractional": ("analyze", {"dimension": 2.7, "maximal_terms": XY_TERMS}, [],
                             "malformed class spec: dimension must be an integer"),
    "negative_vector": ("analyze", {"dimension": 2, "maximal_terms": [
        {"vector": [-1, 2], "coefficient": "1"}]}, [], "invalid maximal vector"),
    "vector_too_long": ("analyze", {"dimension": 2, "maximal_terms": [
        {"vector": [1, 1, 1], "coefficient": "1"}]}, [], "invalid maximal vector"),
    "gauge_coefficient": ("analyze", {"dimension": 2, "maximal_terms": [
        {"vector": [1, 1], "coefficient": "g"}]}, [], "other than g"),
    "factor_without_powers": ("templates", _with_factor({"shift": "p"}), [],
                              "malformed template file: 'powers'"),
    "negative_power": ("templates", _with_factor({"powers": [[-1, 0]], "shift": "p"}), [],
                       "malformed template file"),
    "empty_first_stage": ("templates", {"stages": [{"templates": [], "targets": []},
                                                   STAGE_XY]}, [], "empty template sum"),
    "gauge_in_template": ("templates", {"stages": [
        {"templates": [*STAGE_XY["templates"], {"factors": [{"powers": [], "shift": "g"}]}],
         "targets": STAGE_XY["targets"]}]}, [], "invariant I_{00} contains the gauge symbol"),
    "target_wrong_length": ("templates", {"stages": [
        {**STAGE_XY, "targets": [*STAGE_XY["targets"], [1, 0, 0]]}]}, [],
        "malformed template file: expected dimension 2"),
    "target_outside_lattice": ("templates", {"stages": [
        {**STAGE_XY, "targets": [*STAGE_XY["targets"], [5, 5]]}]}, [],
        "target (5, 5) is not in the class lattice"),
    "target_fractional": ("templates", {"stages": [
        {**STAGE_XY, "targets": [[1.2, 0], [0, 1]]}]}, [],
        "malformed template file: multi-index entries must be nonnegative ints"),
    "power_fractional": ("templates", {"stages": [
        {**STAGE_XY, "templates": [{"factors": [{"powers": [[1.7, 0]], "shift": "p"},
                                                {"powers": [[0, 1]], "shift": "q"}]}]}]}, [],
        "malformed template file: multi-index entries must be nonnegative ints"),
    "check_closure_key": ("templates", {"check_closure": True, "stages": [STAGE_XY]}, [],
                          "malformed template file: unknown keys ['check_closure']"),
    "unknown_template_key": ("templates", {"stages": [STAGE_XY], "stage": [STAGE_XY]}, [],
                             "malformed template file: unknown keys ['stage']"),
    "vector_bool": ("analyze", {"dimension": 2, "maximal_terms": [
        {"vector": [True, 1], "coefficient": "1"}]}, [], "invalid maximal vector"),
    "empty_operator": ("gauge", [], [], "empty operator"),
    "operator_without_coeff": ("gauge", [{"vector": [1, 0]}], [], "'coeff'"),
    "operator_with_gauge": ("gauge", [{"vector": [1, 1], "coeff": "1"},
                                      {"vector": [0, 0], "coeff": "g"}], [], "already contains"),
    "expression_with_gauge": ("verify", {"dimension": 2, "maximal_terms": XY_TERMS},
                              ["--expr", "g"], "gauge symbol"),
    "stage_not_solvable": ("templates", {"stages": [{**STAGE_XY, "targets": [[0, 0]]}]}, [],
                           "stage not uniquely solvable"),
    "solver_parameter_in_prefactor": ("templates", {"stages": [
        {**STAGE_XY, "templates": [{**STAGE_XY["templates"][0], "prefactor": "s"}]}]}, [],
        "contains unresolved parameters: s"),
    "gauge_in_prefactor": ("templates", _xy_stage(prefactor="g"), [],
                           "invariant I_{11} contains the gauge symbol"),
    "parameter_not_in_its_equation": ("templates",
                                      _xy_stage(first={"powers": [[2, 0]], "shift": "p"}),
                                      [], "parameter q does not occur in its equation"),
    "two_parameters_in_shift": ("templates", _xy_stage(first={"powers": [[1, 0]], "shift": "p + r"}),
                                [], "stage not uniquely solvable"),
    "closure_prefactor_not_invariant": ("templates", _xy_stage(prefactor="a[0,0]"), [],
                                        "record I_{11} is not gauge invariant: Delta = "),
    "closure_refutes_a_record": ("templates", {"stages": [
        {"templates": [*STAGE_XY["templates"],
                       {"factors": [{"powers": [[1, 0]], "shift": "a[0,1] + p"}]}],
         "targets": STAGE_XY["targets"]}]}, [],
        "record I_{00} is not gauge invariant: Delta = -g;[1,0]"),
    "not_closed": ("templates", {"stages": [{"templates": [{"factors": [
        {"powers": [[1, 0]], "shift": "p"}, {"powers": [[0, 1]], "shift": "p"}]}],
        "targets": [[1, 0]]}]}, [],
        "record I_{01} is not gauge invariant: Delta = -g;[0,1] + g;[1,0]"),
    "template_without_factors": ("templates", {"stages": [
        {**STAGE_XY, "templates": [*STAGE_XY["templates"],
                                   {"prefactor": "a[0,0]", "factors": []}]}]}, [],
        "record I_{00} is not gauge invariant"),
    "coefficient_null": ("analyze", {"dimension": 2, "maximal_terms": [
        {"vector": [1, 1], "coefficient": None}]}, [],
        "malformed class spec: an expression must be a string or an integer, got None"),
    "coefficient_bool": ("verify", {"dimension": 2, "maximal_terms": [
        {"vector": [1, 1], "coefficient": True}]}, ["--expr", "a[0,0]"],
        "malformed class spec: an expression must be a string or an integer, got True"),
    "shift_null": ("templates", _xy_stage(first={"powers": [[1, 0]], "shift": None}), [],
                   "malformed template file: an expression must be a string or an integer"),
    "prefactor_bool": ("templates", _xy_stage(prefactor=False), [],
                       "malformed template file: an expression must be a string or an integer"),
    "coeff_fractional": ("gauge", [{"vector": [1, 1], "coeff": 1.5}], [],
                         "malformed operator: an expression must be a string or an integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_input_errors_exit_2(tmp_path, capsys, case):
    command, content, extra, message = BAD_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    if command == "templates":
        spec = write_spec(tmp_path, fx.spec_xy(), name="spec.json")
        argv = ["invariants", spec, "--templates", str(path)]
    else:
        argv = [command, str(path), *extra]
    code, out, err = run(capsys, argv)
    assert code == EXIT_HYPOTHESIS, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_closure_check_accepts_a_scaled_parameter(tmp_path, capsys, monkeypatch):
    # (d_x + 2*p)(d_y + q) gives the Laplace invariant; Delta proves it in
    # the engine, so --verify adds only the numeric oracle.
    spec = write_spec(tmp_path, fx.spec_xy())
    tfile = write_templates(tmp_path, _xy_stage(first={"powers": [[1, 0]], "shift": "2*p"}))
    monkeypatch.setattr(cli, "is_invariant", None)
    code, out, err = run(capsys, ["invariants", spec, "--templates", tfile, "--verify"])
    assert (code, err) == (EXIT_OK, "")
    (record,) = json.loads(out)["invariants"]
    assert record["expression"] == "-a[0,1]*a[1,0] + a[0,0] - a[1,0];[1,0]"


# A path that cannot be read as a file is a fault in the input, like a
# malformed file.  Read permission is not tested: a superuser reads any file.
@pytest.mark.parametrize("name, make_dir", [("missing.json", False), ("specs", True)])
def test_unreadable_spec_path_exits_1(tmp_path, capsys, name, make_dir):
    path = tmp_path / name
    if make_dir:
        path.mkdir()
    code, out, err = run(capsys, ["analyze", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_undecodable_file_exits_1(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == EXIT_PARSE
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("exc", [ValueError("internal"), KeyError("internal")])
def test_internal_value_error_exits_4(tmp_path, capsys, monkeypatch, exc):
    # a ValueError or KeyError from inside gaugeinv is a fault, not a user error
    def broken(spec):
        raise exc

    monkeypatch.setattr(cli, "analyze", broken)
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["analyze", path])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith(f"internal error: {type(exc).__name__}: ")


def test_exhausted_oracle_retries_exit_4(tmp_path, capsys):
    # Each instance is a polynomial of degree <= 3, so a fourth derivative
    # vanishes at every sample point and the oracle gives up.
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["verify", path, "--expr", "1/a[1,0];[4,0]"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: ZeroDivisionError: ") and err.count("\n") == 1


ORACLE_PRIME = 2**61 - 1


@pytest.mark.parametrize("expr, expected", [
    (f"a[1,0]/{ORACLE_PRIME}", EXIT_VERIFY),
    (f"a[1,0]/(2*{ORACLE_PRIME})", EXIT_VERIFY),
    (f"(2*a[2,0];[1,0] - a[1,1];[0,1])/{ORACLE_PRIME}", EXIT_OK),
])
def test_oracle_prime_in_a_denominator_of_the_expression(tmp_path, capsys, expr, expected):
    # The numeric verdict agrees with Delta's; the oracle does not fail.
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["verify", path, "--expr", expr])
    assert (code, err) == (expected, "")
    report = json.loads(out)
    assert report["numeric_check"] is report["invariant"] is (expected == EXIT_OK)


@pytest.mark.parametrize("expr", [
    f"(2*a[2,0];[1,0] - a[1,1];[0,1])/{ORACLE_PRIME}^2 + a[2,0]",
    f"(2*a[2,0];[1,0] - a[1,1];[0,1])/(a[1,0] + 1/{ORACLE_PRIME})",
], ids=["numerator", "denominator"])
def test_oracle_refuses_mixed_powers_of_its_prime(tmp_path, capsys, expr):
    # Scaled by the larger power of the prime, the other terms would be 0
    # modulo it and go unchecked; Delta alone refutes both expressions.
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["verify", path, "--expr", expr])
    assert (code, out) == (EXIT_HYPOTHESIS, "")
    assert err == ("error: E's coefficient denominators hold the oracle's "
                   "prime 2^61 - 1 unevenly\n")


@pytest.mark.parametrize("argv", [["invariants", "--verify"], ["verify", "--expr", "a[1,0]"]],
                         ids=["invariants", "verify"])
def test_oracle_prime_in_a_class_constant_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dimension": 2, "maximal_terms": [
        {"vector": [2, 1], "coefficient": f"1/{ORACLE_PRIME}"}]}))
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, out) == (EXIT_HYPOTHESIS, "")
    assert err == (f"error: the coefficient 1/{ORACLE_PRIME} of d^(2, 1) has the "
                   "oracle's prime 2^61 - 1 in its denominator\n")


def test_gauge_classical(tmp_path, capsys):
    L = class_operator(fx.spec_xy())
    path = write_operator(tmp_path, L)
    code, out, _ = run(capsys, ["gauge", path])
    assert code == EXIT_OK
    back = DiffOperator.from_json(json.loads(out)["operator"])
    assert back.coefficient((1, 0)) == parse_expr("a[1,0] + g;[0,1]", 2)
    assert back.coefficient((0, 1)) == parse_expr("a[0,1] + g;[1,0]", 2)


def test_gauge_with_zero_g_is_identity(tmp_path, capsys):
    L = class_operator(fx.spec_xy())
    path = write_operator(tmp_path, L)
    code, out, _ = run(capsys, ["gauge", path, "--g", "0"])
    assert code == EXIT_OK
    assert DiffOperator.from_json(json.loads(out)["operator"]) == L


def test_output_is_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    _, out1, _ = run(capsys, ["invariants", path])
    _, out2, _ = run(capsys, ["invariants", path])
    assert out1 == out2


def test_latex_format(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, _ = run(capsys, ["invariants", path, "--format", "latex"])
    assert code == EXIT_OK
    assert "a_{20x}" in out
    assert "a_{11y}" in out


def test_latex_expr_paper_subscripts():
    e = parse_expr("a[2,0];[1,1] - 1/2*a[1,1]", 2)
    text = latex_expr(e, 2)
    assert "a_{20xy}" in text
    assert "\\frac{1}{2} a_{11}" in text
    assert latex_expr(parse_expr("g;[0,1]", 2), 2) == "g_{y}"


def test_latex_operator():
    L = DiffOperator(2, {(1, 1): parse_expr("1", 2), (0, 0): parse_expr("a[0,0]", 2)})
    text = latex_operator(L)
    assert "\\partial_{xy}" in text
    assert "a_{00}" in text
