"""Tests for the command-line interface and its exit-code contract."""
from __future__ import annotations

import json

import pytest

import gaugeinv.cli as cli
from gaugeinv.cli import (
    EXIT_HYPOTHESIS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    latex_expr,
    latex_operator,
    main,
)
from gaugeinv.classify import class_operator
from gaugeinv.grammar import parse_expr
from gaugeinv.opalg import DiffOperator

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


def test_invariants_with_template_file(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    tfile = tmp_path / "templates.json"
    tfile.write_text(json.dumps({
        "check_closure": True,
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
    }))
    code, out, _ = run(capsys, ["invariants", path, "--templates", str(tfile), "--verify"])
    assert code == EXIT_OK
    data = json.loads(out)
    labels = [r["label"] for r in data["invariants"]]
    assert labels == ["I_{01}", "I_{10}", "I_{00}"]


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


def test_verify_bad_expression_exits_1(tmp_path, capsys):
    path = write_spec(tmp_path, fx.spec_xxy())
    code, _, _ = run(capsys, ["verify", path, "--expr", "a[1,0] +"])
    assert code == EXIT_PARSE


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


def test_exhausted_oracle_retries_exit_4(tmp_path, capsys):
    # Each instance is a polynomial of degree <= 3, so a fourth derivative
    # vanishes at every sample point and the oracle gives up.
    path = write_spec(tmp_path, fx.spec_xxy())
    code, out, err = run(capsys, ["verify", path, "--expr", "1/a[1,0];[4,0]"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: ZeroDivisionError: ") and err.count("\n") == 1


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
