"""Every dataclass of the package resolves its annotations: with
`from __future__ import annotations` each one is a string, and a name that
its module never imports reads fine until typing.get_type_hints, or a tool
built on it, looks it up."""

import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import ahsabr

MODULES = sorted(path.stem for path in Path(ahsabr.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


def _dataclasses():
    for name in MODULES:
        module = importlib.import_module(f"ahsabr.{name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield pytest.param(obj, id=f"{name}.{obj.__name__}")


@pytest.mark.parametrize("cls", _dataclasses())
def test_annotations_resolve(cls):
    hints = typing.get_type_hints(cls)
    assert list(hints) == [field.name for field in dataclasses.fields(cls)]
