"""Tests for the exception hierarchy contract."""

import ast
from pathlib import Path

import pytest

import repro
from repro import errors


def _raised_names() -> set[str]:
    """Names raised as ``raise Name(...)`` or ``raise errors.Name(...)``."""
    raised = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            if isinstance(func, ast.Name):
                raised.add(func.id)
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "errors"
            ):
                raised.add(func.attr)
    return raised


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError), name

    def test_solver_timeout_carries_incumbent(self):
        err = errors.SolverTimeout("slow", incumbent="partial")
        assert err.incumbent == "partial"

    def test_specific_catches(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchemaError("x")
        with pytest.raises(errors.QueryError):
            raise errors.QueryError("x")
        with pytest.raises(errors.StatisticsError):
            raise errors.SamplingError("x")
        with pytest.raises(errors.TAPError):
            raise errors.SolverTimeout("x")


class TestEveryErrorIsRaised:
    def test_each_class_is_raised_somewhere_in_the_package(self):
        declared = {
            name
            for name, obj in vars(errors).items()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj.__module__ == errors.__name__
        }
        assert declared, "no exception classes found in repro.errors"
        assert sorted(declared - _raised_names()) == []
