"""Records are plain dataclasses.

A frozen dataclass generates and compiles __eq__, __hash__, __setattr__
and __delattr__ at import, and no caller compares, hashes or relies on a
record being immutable; the arrays that must not change are read-only
instead.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import slwave


def _records():
    for info in pkgutil.iter_modules(slwave.__path__):
        module = importlib.import_module(f"slwave.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_records_are_neither_frozen_nor_compared():
    records = list(_records())
    assert records
    bad = [cls.__qualname__ for cls in records
           if cls.__dataclass_params__.frozen or cls.__dataclass_params__.eq]
    assert bad == []
