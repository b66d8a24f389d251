"""Semantics of every record class: the frozen-dataclass contract of ``mbpre.model.Record``.

The classes are found by importing every module of the package, so a new
record is covered here without a new test. Field values come from a probe
subclass whose ``__post_init__`` does nothing, so placeholder values stand
in for the validated arrays and models that a real record holds.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from mbpre.model import Record

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbpre"
for _path in sorted(PACKAGE.glob("*.py")):
    importlib.import_module("mbpre" if _path.stem == "__init__" else f"mbpre.{_path.stem}")


def _records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("mbpre"):
            yield sub
        yield from _records(sub)


RECORDS = sorted(set(_records()), key=lambda c: (c.__module__, c.__name__))


def _probe(cls):
    """``cls`` with a ``__post_init__`` that accepts any field values."""
    return type(cls.__name__, (cls,), {"__doc__": "probe", "__post_init__": lambda self: None})


def test_records_are_found():
    names = {c.__name__ for c in RECORDS}
    assert {"ModelSpec", "LyapunovEstimate", "ConditionReport", "OracleReport"} <= names
    assert len(RECORDS) >= 15


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_record_semantics(cls):
    # a docstring of its own, not the signature dataclasses writes in its place
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")
    assert dataclasses.is_dataclass(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    required = [n for n in names if n not in defaults]

    # binding is checked before __post_init__, so on the class itself
    with pytest.raises(TypeError, match="missing a required argument"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(*range(len(names)), no_such_field=0)
    with pytest.raises(TypeError, match="too many positional arguments"):
        cls(*range(len(names) + 1))
    with pytest.raises(TypeError, match="multiple values"):
        cls(0, **{names[0]: 0})

    probe = _probe(cls)
    values = {n: f"{n}-value" for n in names}
    record = probe(*values.values())
    assert probe(**values) == record
    assert [getattr(record, n) for n in names] == list(values.values())
    with pytest.raises(TypeError, match="missing a required argument: " + repr(required[-1])):
        probe(*list(values.values())[: len(required) - 1])
    if defaults:
        short = probe(*[values[n] for n in required])
        assert short == dataclasses.replace(record, **defaults)
        # the instance holds its defaults, not only its class
        assert set(vars(short)) >= set(names)

    for name in names + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert [getattr(record, n) for n in names] == list(values.values())

    twin = probe(**values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for name in names:
        other = dataclasses.replace(record, **{name: "changed"})
        assert other != record and getattr(other, name) == "changed"
        assert hash(other) == hash(tuple(getattr(other, n) for n in names))
    # == holds only within one class, as a dataclass's does
    assert record != _probe(cls)(**values)
    assert record != tuple(values.values())

    assert dataclasses.replace(record) == record
    assert dataclasses.asdict(record) == values
    assert probe(**dataclasses.asdict(record)) == record
    assert repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in values.items()) + ")"
    )

