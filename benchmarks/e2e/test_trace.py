"""Tracer unit tests: self-time arithmetic, wrapping, and clean restoration."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import sys
import types

import pytest

from . import api
from .trace import BOUNDARIES, Boundary, Tracer


def ticking_clock():
    """A clock that advances by one on every reading."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


@pytest.fixture
def fixture_modules():
    """Two throwaway modules; the second holds a ``from first import`` alias."""
    first = types.ModuleType("e2e_trace_fixture_first")
    sys.modules[first.__name__] = first  # dataclasses looks the module up
    exec(
        "import dataclasses\n"
        "def leaf():\n    return 'leaf'\n"
        "def nested():\n    return leaf()\n"
        "def siblings():\n    return [leaf(), leaf()]\n"
        "def countdown(n):\n    return n if n == 0 else countdown(n - 1)\n"
        "def boom():\n    raise KeyError('boom')\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Key:\n"
        "    secret: int\n"
        "    @property\n"
        "    def public(self):\n        return self.secret * 2\n"
        "    @staticmethod\n"
        "    def generate(seed):\n        return Key(seed)\n"
        "    @classmethod\n"
        "    def zero(cls):\n        return cls(0)\n"
        "class Child(Key):\n    pass\n",
        vars(first),
    )
    second = types.ModuleType("e2e_trace_fixture_second")
    second.imported_leaf = first.leaf  # what ``from first import leaf`` leaves behind
    sys.modules[second.__name__] = second
    yield first, second
    del sys.modules[first.__name__], sys.modules[second.__name__]


def boundary(qualname: str, **options) -> Boundary:
    return Boundary(f"e2e_trace_fixture_first:{qualname}", layer="fixture", **options)


def tracer_for(modules, *qualnames, **options) -> Tracer:
    return Tracer(
        [boundary(name, **options) for name in qualnames],
        also_patch=modules, clock=ticking_clock(),
    )


def test_nested_span_self_time_excludes_the_child(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "nested", "leaf")
    with tracer:
        first.nested()
    # nested: 0..3, leaf: 1..2
    assert [(s[1], s[2], s[3]) for s in tracer.spans] == [(0.0, 3.0, -1), (1.0, 2.0, 0)]
    assert tracer.self_times() == [2.0, 1.0]


def test_sibling_spans_are_both_subtracted(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "siblings", "leaf")
    with tracer:
        first.siblings()
    # siblings: 0..5, leaves: 1..2 and 3..4
    assert tracer.self_times() == [3.0, 1.0, 1.0]


def test_recursive_spans_sum_to_the_outermost_duration(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "countdown")
    with tracer:
        first.countdown(2)
    assert tracer.self_times() == [2.0, 2.0, 1.0]
    totals = tracer.layer_totals()["fixture"]
    outermost = tracer.spans[0]
    assert totals == {"self_s": outermost[2] - outermost[1], "calls": 3}


def test_alias_in_a_second_module_is_wrapped_by_identity(fixture_modules):
    first, second = fixture_modules
    original = first.leaf
    tracer = tracer_for(fixture_modules, "leaf")
    tracer.install()
    try:
        assert second.imported_leaf is first.leaf is not original
        second.imported_leaf()
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 1
    assert second.imported_leaf is first.leaf is original


def test_real_alias_of_seal_in_asclient_is_reached():
    sealing = importlib.import_module("repro.crypto.sealing")
    asclient = importlib.import_module("repro.controlplane.asclient")
    original = sealing.seal
    tracer = Tracer([Boundary("repro.crypto.sealing:seal")])
    with tracer:
        assert asclient.seal is sealing.seal is not original
    assert asclient.seal is sealing.seal is original


def test_property_static_and_class_methods_on_a_frozen_dataclass(fixture_modules):
    first, _ = fixture_modules
    raw = {name: vars(first.Key)[name] for name in ("public", "generate", "zero")}
    tracer = tracer_for(fixture_modules, "Key.public", "Key.generate", "Key.zero")
    with tracer:
        key = first.Key.generate(21)
        assert key.public == 42
        assert first.Key.zero().secret == 0
        assert isinstance(vars(first.Key)["public"], property)
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.secret = 1
    assert [tracer.boundaries[s[0]].name for s in tracer.spans] == [
        "Key.generate", "Key.public", "Key.zero",
    ]
    for name, original in raw.items():
        assert vars(first.Key)[name] is original


def test_inherited_attribute_is_patched_where_it_is_defined(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "Child.public")
    with tracer:
        assert "public" not in vars(first.Child)
        assert first.Key(3).public == 6
    assert len(tracer.spans) == 1


def test_span_closes_when_the_call_raises(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "boom", "leaf")
    with tracer:
        with pytest.raises(KeyError):
            first.boom()
        first.leaf()
    assert [(s[2] - s[1], s[3]) for s in tracer.spans] == [(1.0, -1), (1.0, -1)]


def test_count_only_boundary_counts_and_records_no_span(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "leaf", count_only=True)
    with tracer:
        first.nested()
        first.leaf()
    assert tracer.spans == []
    assert tracer.calls("leaf") == 2
    assert tracer.layer_totals()["fixture"] == {"self_s": 0.0, "calls": 2}


def test_measure_reads_a_number_off_the_result(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "siblings", measure="len")
    with tracer:
        first.siblings()
    assert tracer.spans[0][5] == 2


def test_lifecycle_id_is_stamped_on_spans(fixture_modules):
    first, _ = fixture_modules
    tracer = tracer_for(fixture_modules, "leaf")
    with tracer:
        first.leaf()
        tracer.set_lifecycle("h1")
        first.leaf()
    assert [s[4] for s in tracer.spans] == [None, "h1"]


def test_unresolvable_names_are_listed_not_fatal(fixture_modules):
    first, _ = fixture_modules
    tracer = Tracer(
        [
            boundary("leaf"),
            boundary("no_such_function"),
            boundary("Key.no_such_method"),
            Boundary("e2e_trace_no_such_module:f", layer="fixture"),
        ],
        also_patch=fixture_modules,
    )
    with tracer:
        first.leaf()
    assert tracer.unresolved == [
        "e2e_trace_fixture_first:no_such_function",
        "e2e_trace_fixture_first:Key.no_such_method",
        "e2e_trace_no_such_module:f",
    ]
    assert len(tracer.spans) == 1


def resolve_raw(target: str):
    """(owner, name, raw attribute) the way the program defines it."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        owner = next(klass for klass in owner.__mro__ if name in vars(klass))
    return owner, name, vars(owner)[name]


def test_every_boundary_resolves_and_uninstall_restores_every_original():
    """The rest of the test session must see an untouched program."""
    before = [resolve_raw(boundary.target) for boundary in BOUNDARIES]
    api_before = dict(vars(api))
    tracer = Tracer(also_patch=(api,))
    tracer.install()
    try:
        assert tracer.unresolved == []
        changed = [
            name for (owner, name, raw) in before if vars(owner)[name] is raw
        ]
        assert changed == []  # every boundary is wrapped while installed
        assert api.purchase_path is not api_before["purchase_path"]
    finally:
        tracer.uninstall()
    for owner, name, raw in before:
        assert vars(owner)[name] is raw
    assert dict(vars(api)) == api_before
    leftovers = [
        f"{module_name}.{name}"
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        for name, value in vars(module).items()
        if getattr(getattr(value, "__code__", None), "co_name", "") in ("traced", "counted")
    ]
    assert leftovers == []
