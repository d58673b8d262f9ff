"""The records of the package (``core.Record`` and its subclasses): read-only,
compared and hashed by type and fields, never equal to a tuple, and given
back whole by copy and pickle."""
import copy
import importlib
import pickle

import numpy as np
import pytest

from opticomb import (
    BackendFunctor,
    Budget,
    Compose,
    CpmMorphism,
    Decision,
    ExhaustionWitness,
    FactorWitness,
    FinFunBackend,
    FinMap,
    Generator,
    Identity,
    Mat,
    ProbeWitness,
    SlidePathWitness,
    SlideStep,
    StrandMor,
    Symmetry,
    Tensor,
    WiringMor,
    comb,
)
from opticomb.comb import Relation, Route
from opticomb.core import HomSet, Record
from opticomb.program import QueryReport, parse_program
from opticomb.theory import TheoryConfig

from conftest import word

PROGRAM = """
comb c = (f, f) env I
dagger_comb d = f env I
poly p holes=[(s,s)] outers=[(s,s)] envs=[I] segs=[f | f]
equiv comb c c
compose c c as e
plug p at 0 with p as q
lens c
cpm c
"""


def samples() -> dict:
    s, x = word("s"), word("x")
    f = Generator("f")
    fm = FinMap(s, s, (1, 0))
    records = {
        "Generator": f,
        "Identity": Identity(s),
        "Symmetry": Symmetry(s, x),
        "Compose": Compose(f, f),
        "Tensor": Tensor(f, Identity(s)),
        "HomSet": HomSet((fm,), True),
        "Budget": Budget.of(2),
        "ProbeWitness": ProbeWitness(s, s, fm, fm, fm, f, "a note"),
        "SlideStep": SlideStep("push_up", fm, fm),
        "SlidePathWitness": SlidePathWitness((SlideStep("push_down", fm, fm),)),
        "ExhaustionWitness": ExhaustionWitness(3, (s,)),
        "FactorWitness": FactorWitness({"rotation": 1.0}),
        "Decision": Decision.unknown("braid-value", coverage={"bound": 2}),
        "CombRep": comb(FinFunBackend({"s": 2}), fm, fm, word()),
        # builtins stand in for the callables, which must pickle
        "Route": Route("auto", max, callable, "needs", None, ()),
        "Relation": Relation((Route("auto", max, callable),), max),
        # backends compare by identity, so names stand in for them
        "BackendFunctor": BackendFunctor("finfun", "bool", {"s": x}, abs),
        "FinMap": fm,
        "StrandMor": StrandMor(word("a"), (True, False)),
        "WiringMor": WiringMor(word(), word("a"), (), ("phi",), ()),
        "Mat": Mat(x, x, np.eye(2)),
        "CpmMorphism": CpmMorphism(x, x, 2, 2, (), 1e-9),
        "TheoryConfig": TheoryConfig("finfun", {"tolerance": "0"}, line_no=1),
        "QueryReport": QueryReport("lens c", "lens", {"get": [0, 1]}),
    }
    for stmt in parse_program(PROGRAM):
        records[type(stmt).__name__] = stmt
    return records


SAMPLES = samples()


def same(a, b) -> bool:
    """Equal records; a matrix, which compares by identity, by its fields."""
    if isinstance(a, Mat):
        return (type(b) is Mat and (a.dom, a.cod) == (b.dom, b.cod)
                and np.array_equal(a.array, b.array))
    return a == b


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_is_sampled():
    for module in ("backends.finfun", "backends.free", "backends.matrix", "cpm", "program",
                   "theory"):
        importlib.import_module(f"opticomb.{module}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if "__init__" in cls.__dict__:  # MorTerm and Statement are bases only
                found.add(cls.__name__)
    assert found == set(SAMPLES)
    assert len(found) == 32


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_read_only(name):
    record = SAMPLES[name]
    assert record._fields
    for field in record._fields:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, field)
    with pytest.raises(AttributeError, match="immutable"):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_and_hashed_by_type_and_fields(name):
    record = SAMPLES[name]
    rebuilt = type(record)(**record._asdict())
    assert record == record and same(record, rebuilt)
    if isinstance(record, Mat):  # by identity: the backend's equal reads entries
        assert record != rebuilt and hash(record) != hash(rebuilt)
        return
    assert rebuilt == record and not rebuilt != record
    try:
        key = hash(fields(record))
    except TypeError:  # a dict or list field: unhashable, like the tuple of fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt) == key
        assert {record: 1}[rebuilt] == 1


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_never_equals_its_tuple(name):
    record = SAMPLES[name]
    values = fields(record)
    assert record != values and values != record
    assert not record == values and not values == record
    assert record != list(values)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_copy_and_pickle_give_it_back(name):
    record = SAMPLES[name]
    for back in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(back) is type(record) and same(back, record)


def test_replace_rebuilds_through_the_constructor():
    d = SAMPLES["Decision"]
    assert d.replace(method="lens-components") == Decision.unknown(
        "lens-components", coverage={"bound": 2})
    with pytest.raises(ValueError, match="requires a witness"):
        d.replace(verdict=d.verdict.DISTINCT)
    with pytest.raises(TypeError):
        d.replace(nothing=1)


def test_repr_names_each_field():
    assert repr(Compose(Generator("f"), Identity(word()))) == (
        "Compose(first=Generator(name='f'), then=Identity(word=ObjectWord.parse('I')))")
    assert repr(QueryReport("lens c", "lens")) == (
        "QueryReport(query='lens c', kind='lens', payload={})")
