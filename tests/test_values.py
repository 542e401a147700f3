"""The package's value classes: immutable, equal field by field, and cheap
to import.

Six are ``typing.NamedTuple``s (ClassAnalysis, GradientSolution,
Representation, Factor, FactorTemplate, DeltaContext) and three are slotted
classes that validate their fields (ClassSpec, InvariantRecord,
DiffOperator); none needs the ``dataclasses`` machinery at import.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from gaugeinv.classify import ClassSpec, analyze
from gaugeinv.invariants import InvariantRecord, complete_set, solve_gradient
from gaugeinv.jetalg import ONE, JetExpr, param_symbol
from gaugeinv.opalg import Factor, FactorTemplate
from gaugeinv.verify import DeltaContext

import _fixtures as fx

SRC = Path(__file__).resolve().parents[1] / "src"

# class name -> one of its fields
FIELDS = {
    "ClassSpec": "dimension",
    "ClassAnalysis": "framed",
    "GradientSolution": "gradient",
    "Representation": "bindings",
    "Factor": "shift",
    "FactorTemplate": "prefactor",
    "DeltaContext": "gauge_map",
    "InvariantRecord": "expression",
    "DiffOperator": "terms",
}


@pytest.fixture(scope="module")
def values() -> dict:
    spec = fx.spec_xxy()
    analysis = analyze(spec)
    record = complete_set(spec)[0][-1]  # I_{00}, with its representation
    template = record.representation.templates[0]
    ctx = DeltaContext.for_class(spec)
    return {
        "ClassSpec": spec,
        "ClassAnalysis": analysis,
        "GradientSolution": solve_gradient(analysis),
        "Representation": record.representation,
        "Factor": template.factors[0],
        "FactorTemplate": template,
        "DeltaContext": ctx,
        "InvariantRecord": record,
        "DiffOperator": ctx.operator,
    }


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(values, name):
    value, field = values[name], FIELDS[name]
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = None
    assert getattr(value, field) is before


def test_class_specs_compare_field_by_field():
    spec = ClassSpec(2, (((2, 1), ONE),))
    assert spec == ClassSpec(2, (((2, 1), JetExpr.const(1)),))
    assert spec == ClassSpec.from_json(spec.to_json())
    assert spec != ClassSpec(2, (((1, 2), ONE),))
    assert spec != ClassSpec(3, (((2, 1, 0), ONE),))
    with pytest.raises(TypeError):
        hash(spec)


def test_invariant_records_compare_field_by_field():
    record = complete_set(fx.spec_xxy())[0][-1]
    fields = (record.kind, record.label, record.expression, record.assumptions,
              record.target_vector, record.representation)
    assert record == InvariantRecord(*fields)
    assert record != InvariantRecord(*fields[:4])
    assert record != InvariantRecord(record.kind, "I_other", *fields[2:])
    assert record != fields
    with pytest.raises(TypeError):
        hash(record)


def test_factor_templates_compare_field_by_field():
    p = JetExpr.symbol(param_symbol("p"), dim=2)
    factors = (Factor.single((1, 0), p), Factor.single((0, 1), ONE))
    template = FactorTemplate(2, factors)
    assert template.prefactor is ONE
    assert template == FactorTemplate(2, factors, JetExpr.const(1))
    fresh = JetExpr.symbol(param_symbol("p"), dim=2)
    assert fresh is not p
    assert template == FactorTemplate(2, (Factor.single((1, 0), fresh), factors[1]))
    assert template != FactorTemplate(2, factors, JetExpr.const(2))
    assert template != FactorTemplate(2, factors[:1])


def test_import_loads_neither_dataclasses_nor_inspect():
    # loading the two slowed down every start of a process that uses gaugeinv
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gaugeinv, gaugeinv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
