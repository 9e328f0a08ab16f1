import pytest
from hypothesis import settings

from cellgauge import build_graph, load_workbook_doc

# A deeper search for CI (``pytest --hypothesis-profile=ci``): properties
# that set no example count of their own run ten times the default's.
settings.register_profile("ci", max_examples=1000)


def make_workbook(sheets: dict[str, dict[str, object]]):
    """Build a workbook from {sheet: {ref: value-or-'=formula'}} shorthand."""
    doc = {"sheets": []}
    for name, cells in sheets.items():
        entries = []
        for ref, content in cells.items():
            if isinstance(content, str) and content.startswith("="):
                entries.append({"ref": ref, "formula": content})
            else:
                entries.append({"ref": ref, "value": content})
        doc["sheets"].append({"name": name, "cells": entries})
    return load_workbook_doc(doc)


def count_builds(monkeypatch, *classes) -> dict:
    """Count the objects built of each of ``classes`` while ``monkeypatch``
    holds, by class: a NamedTuple's through ``__new__`` or ``_make`` (which
    ``_replace`` calls), any other's through ``__init__``."""
    built = dict.fromkeys(classes, 0)

    def counting(cls, method):
        def counted(*args, **kwargs):
            built[cls] += 1
            return method(*args, **kwargs)
        return counted

    for cls in classes:
        if issubclass(cls, tuple):
            monkeypatch.setattr(cls, "__new__", counting(cls, cls.__new__))
            monkeypatch.setattr(cls, "_make", classmethod(counting(cls, cls._make.__func__)))
        else:
            monkeypatch.setattr(cls, "__init__", counting(cls, cls.__init__))
    return built


def make_graph(sheets: dict[str, dict[str, object]]):
    wb = make_workbook(sheets)
    return wb, build_graph(wb)


# Two physically different implementations of the same weighted additive
# utility model (score = w1*u(cpu) + w2*u(ram), u clamped at 1).
#
# The compact variant packs everything into one formula: six references
# (cpu and ram twice each), tokens nested on three levels.
FIVE_CELL_SHEETS = {
    "Model": {
        "A1": 2100,   # cpu
        "A2": 16,     # ram
        "B1": 0.6,    # w1
        "B2": 0.4,    # w2
        "C1": "=SUM(B1*IF(A1>100,1,A1/100), B2*IF(A2>100,1,A2/100))",
    }
}

# The expanded variant computes the same value through single-operation
# formulas, one step per cell.
NINE_CELL_SHEETS = {
    "Model": {
        "A1": 2100,
        "A2": 16,
        "B1": 0.6,
        "B2": 0.4,
        "C1": "=A1/100",
        "C2": "=A2/100",
        "D1": "=B1*C1",
        "D2": "=B2*C2",
        "E1": "=D1+D2",
    }
}


@pytest.fixture
def diamond_graph():
    # A1 feeds B1 and B2, both feed C1.
    return make_graph({
        "Sheet1": {
            "A1": 1,
            "B1": "=A1*2",
            "B2": "=A1+1",
            "C1": "=B1+B2",
        }
    })


@pytest.fixture
def chain_graph():
    return make_graph({
        "Sheet1": {
            "A1": 5,
            "B1": "=A1",
            "C1": "=B1",
        }
    })
