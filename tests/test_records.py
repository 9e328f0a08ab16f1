"""The package's records without the dataclass code generator.

Plain value records are ``NamedTuple``s; configs, references, cells and AST
nodes are slotted ``_Record`` classes. Both keep what the frozen dataclasses
gave: keyword construction and defaults, ``==`` and ``hash`` by value, the
same ``repr`` texts (captured from the dataclasses), no assignment, and the
same validation errors, pickle, copy and class patterns. Importing the CLI
imports neither ``dataclasses`` nor ``inspect``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cellgauge
from cellgauge import (
    AnalysisConfig,
    AuditWarning,
    BetaConfig,
    CascadeStats,
    Cell,
    CellMetrics,
    CellRef,
    DispersionConfig,
    DomainError,
    RangeRef,
    ReliabilityConfig,
    Workbook,
    analyze_workbook,
    emit_report,
    load_workbook_doc,
    parse_formula,
)
from cellgauge.formula import BinaryOp, CellRefNode, NumberLiteral

REF = CellRef("S", 2, 3, True)
REF_TEXT = "CellRef(sheet='S', column=2, row=3, col_absolute=True, row_absolute=False)"
RELIABILITY_TEXT = ("ReliabilityConfig(base_cer=0.02, w_tokens=1.0, w_depth=1.0, "
                    "w_dispersion=1.0, w_decisions=1.0, w_span=1.0, "
                    "data_cell_factor=0.25, cap=0.25)")


def test_importing_the_cli_imports_no_code_generator():
    package_root = str(Path(cellgauge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cellgauge.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("record, text", [
    (REF, REF_TEXT),
    (RangeRef(CellRef("S", 1, 1), REF),
     "RangeRef(start=CellRef(sheet='S', column=1, row=1, col_absolute=False, "
     f"row_absolute=False), end={REF_TEXT})"),
    (CellMetrics(REF),
     f"CellMetrics(address={REF_TEXT}, n_operators=0, n_operands=0, depth_of_nesting=0, "
     "avg_nesting_level=Fraction(0, 1), decision_count=0, n_references=0, dispersion=0.0, "
     "delta_sum=0, col_span=0, row_span=0, cross_sheet_ref_count=0, mixed_axis_flag=False, "
     "forward_ref_count=0)"),
    (AuditWarning("W003", "S!A1", "msg"), "AuditWarning(code='W003', address='S!A1', message='msg')"),
    (CascadeStats(REF, 3, Fraction(1, 2), Fraction(5, 3), 2, 4),
     f"CascadeStats(terminal={REF_TEXT}, total_paths=3, avg_reachability=Fraction(1, 2), "
     "avg_path_length=Fraction(5, 3), max_path_length=2, cell_count=4)"),
    (DispersionConfig(), "DispersionConfig(alpha=0.01, mode='product')"),
    (ReliabilityConfig(), RELIABILITY_TEXT),
    (BetaConfig(), "BetaConfig(beta=0.0)"),
    (AnalysisConfig(),
     "AnalysisConfig(dispersion=DispersionConfig(alpha=0.01, mode='product'), "
     f"reliability={RELIABILITY_TEXT}, beta=BetaConfig(beta=0.0), flag_dr=0.5, "
     "flag_span=20, max_range_cells=10000000)"),
    (Cell(REF, 1.0), f"Cell(address={REF_TEXT}, value=1.0, source=None)"),
])
def test_repr_texts_are_the_dataclass_ones(record, text):
    assert repr(record) == text


def test_keyword_construction_and_defaults():
    assert CellRef(sheet="S", column=2, row=3, col_absolute=True) == REF
    assert CellRef("S", 2, 3).row_absolute is False
    assert CellMetrics(address=REF, n_operands=2).n_operands == 2
    assert CellMetrics(REF).avg_nesting_level == 0 and CellMetrics(REF).dispersion == 0.0
    assert ReliabilityConfig(cap=0.5).cap == 0.5 and ReliabilityConfig(cap=0.5).base_cer == 0.02
    config = AnalysisConfig(beta=BetaConfig(beta=1.0), flag_span=5)
    assert config.beta.beta == 1.0 and config.flag_span == 5
    assert config.dispersion == DispersionConfig() and config.reliability == ReliabilityConfig()
    assert Cell(REF).value is None and Cell(REF).shape is None


@pytest.mark.parametrize("make", [
    lambda: CellRef("S", 2, 3),
    lambda: RangeRef(CellRef("S", 1, 1), CellRef("S", 2, 2)),
    lambda: CellMetrics(CellRef("S", 2, 3), n_operators=1),
    lambda: AuditWarning("W001", "S!A1", "bad"),
    lambda: DispersionConfig(alpha=0.5, mode="manhattan"),
    lambda: ReliabilityConfig(w_span=2.0),
    lambda: BetaConfig(0.5),
    lambda: AnalysisConfig(flag_dr=0.25),
    lambda: Cell(CellRef("S", 1, 1), source="=1"),
    lambda: BinaryOp("+", NumberLiteral(1.0), NumberLiteral(2.0)),
])
def test_equality_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b


def test_records_of_other_classes_or_values_differ():
    assert CellRef("S", 2, 3) != CellRef("S", 2, 3, True)
    assert CellRef("S", 1, 1) != "S!A1"
    assert DispersionConfig() != BetaConfig() and BetaConfig(0.0) != BetaConfig(1.0)
    # A cell compares without its shape.
    assert Cell(REF, source="=1", shape=object()) == Cell(REF, source="=1")


def test_named_tuple_records_are_tuples():
    warning = AuditWarning("W001", "S!A1", "bad")
    assert warning == ("W001", "S!A1", "bad") and tuple(warning) == ("W001", "S!A1", "bad")
    moved = warning._replace(address="S!A2")
    assert moved == AuditWarning("W001", "S!A2", "bad") and warning.address == "S!A1"
    # References and configs are not tuples: reprs and encoders tell them apart.
    assert not isinstance(REF, tuple) and not isinstance(AnalysisConfig(), tuple)


@pytest.mark.parametrize("record, field", [
    (REF, "row"), (RangeRef(REF, REF), "end"), (CellMetrics(REF), "n_operators"),
    (AuditWarning("W001", "S!A1", "bad"), "code"), (DispersionConfig(), "alpha"),
    (ReliabilityConfig(), "cap"), (BetaConfig(), "beta"), (AnalysisConfig(), "flag_dr"),
    (Cell(REF), "value"), (NumberLiteral(1.0), "value"), (REF, "other"),
])
def test_fields_refuse_assignment_and_deletion(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize("make, error, text", [
    (lambda: CellRef("S", 0, 1), ValueError, "column and row must be >= 1, got (0, 1)"),
    (lambda: CellRef("S", 1, -2), ValueError, "column and row must be >= 1, got (1, -2)"),
    (lambda: DispersionConfig(alpha=0), DomainError, "alpha must be positive, got 0"),
    (lambda: DispersionConfig(alpha=float("nan")), DomainError,
     "alpha must be a finite number, got nan"),
    (lambda: DispersionConfig(mode="x"), DomainError,
     "mode must be one of ('product', 'manhattan', 'euclidean'), got 'x'"),
    (lambda: ReliabilityConfig(base_cer=1), DomainError, "base_cer must be in [0, 1), got 1"),
    (lambda: ReliabilityConfig(w_span=-1), DomainError, "w_span must be non-negative"),
    (lambda: ReliabilityConfig(cap=float("inf")), DomainError,
     "cap must be a finite number, got inf"),
    (lambda: ReliabilityConfig(data_cell_factor=-1), DomainError,
     "data_cell_factor must be non-negative"),
    (lambda: ReliabilityConfig(cap=2), DomainError, "cap must be in (0, 1], got 2"),
    (lambda: ReliabilityConfig(cap=0.01), DomainError, "cap must not be below base_cer"),
    (lambda: BetaConfig(-1), DomainError, "beta must be >= 0, got -1"),
    (lambda: AnalysisConfig(flag_dr=float("nan")), DomainError,
     "flag_dr must be a finite number, got nan"),
    (lambda: AnalysisConfig(max_range_cells=-1), DomainError,
     "max_range_cells must be a non-negative integer, got -1"),
])
def test_validation_errors_are_unchanged(make, error, text):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == text


def test_workbooks_compare_by_sheets_provenance_and_warnings():
    warning = AuditWarning("W001", "S!A1", "bad")
    assert Workbook() == Workbook() and Workbook().sheets == []
    assert Workbook(provenance="a.json") != Workbook(provenance="b.json")
    assert Workbook(warnings=[warning]) != Workbook()
    assert Workbook(warnings=[warning]) == Workbook(warnings=[warning])
    with pytest.raises(TypeError):
        hash(Workbook())


def test_pickle_and_copy_rebuild_records_through_their_init():
    wb = load_workbook_doc({"sheets": [{"name": "S", "cells": [
        {"ref": "A1", "value": 1}, {"ref": "B1", "formula": "=IF(A1>0,A1*2,SUM(A1:A3))"}]}]})
    cell = wb.cell("S!B1")
    for record in (REF, RangeRef(REF, REF), AnalysisConfig(flag_span=3), cell, cell.ast,
                   CellMetrics(REF, n_operands=2), wb):
        for rebuilt in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                        copy.deepcopy(record)):
            assert type(rebuilt) is type(record) and rebuilt == record
    assert pickle.loads(pickle.dumps(cell)).shape.shift_key == cell.shape.shift_key
    report = analyze_workbook(wb)
    assert emit_report(pickle.loads(pickle.dumps(report)), "json") == emit_report(report, "json")


def test_class_patterns_match_fields_by_position():
    match parse_formula("=A1+2").root:
        case BinaryOp("+", CellRefNode(CellRef(None, 1, 1)), NumberLiteral(value)):
            assert value == 2.0
        case other:
            pytest.fail(f"no match for {other!r}")
    match CascadeStats(REF, 3, Fraction(1), Fraction(2), 2, 4):
        case CascadeStats(terminal, paths):
            assert terminal == REF and paths == 3
