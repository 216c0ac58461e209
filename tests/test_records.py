"""The frozen records built once per proof: construction, equality, hashing,
`dataclasses.replace`, immutability and pickling.

EdgeColouring, DoubleStarWitness, ProofTrace and TripleStarCertificate each
define their own __init__; these checks pin that they still behave as the
dataclasses they are declared as.  The module needs only the standard
library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_records.py
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import pickle
from fractions import Fraction

from tristar.colouring import EdgeColouring, LabelMatrix, _find_violations, colour_masks
from tristar.prover import ProofTrace, TripleStarCertificate
from tristar.stars import DoubleStarWitness

TRACE = ProofTrace((0, 1), 3, 2, 1)
# one record of each kind, by its field values in declaration order
EXAMPLES = [
    (EdgeColouring, (4, 3, (1, 2, 3, 3, 2, 1))),
    (DoubleStarWitness, (2, (0, 3), 4, (0, 1, 2, 3))),
    (ProofTrace, ((0, 1), 3, None, 0)),
    (TripleStarCertificate, ("global", 12, 4, Fraction(4), 1, (0, 1, 2), (0, 1, 2, 3), 4,
                             False, TRACE)),
]


def build(cls, values, keywords: bool):
    if keywords:
        return cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)})
    return cls(*values)


def test_init_takes_the_fields_in_order():
    for cls, values in EXAMPLES:
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(cls).parameters) == names, cls
        assert len(values) == len(names)


def test_construction_by_position_and_by_keyword():
    for cls, values in EXAMPLES:
        by_position, by_keyword = build(cls, values, False), build(cls, values, True)
        assert dataclasses.astuple(by_position) == dataclasses.astuple(by_keyword)
        for f, v in zip(dataclasses.fields(cls), values):
            assert getattr(by_position, f.name) == v
            assert getattr(by_keyword, f.name) == v


def test_equality_and_hash():
    for cls, values in EXAMPLES:
        first, second = build(cls, values, False), build(cls, values, True)
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert first != dataclasses.replace(first, **{dataclasses.fields(cls)[1].name: 99})
        assert first != values  # a record equals only a record of its own class


def test_replace_changes_only_the_named_field():
    for cls, values in EXAMPLES:
        record = build(cls, values, False)
        name = dataclasses.fields(cls)[1].name
        changed = dataclasses.replace(record, **{name: 99})
        assert type(changed) is cls
        assert getattr(changed, name) == 99
        for f in dataclasses.fields(cls):
            if f.name != name:
                assert getattr(changed, f.name) == getattr(record, f.name)
        assert getattr(record, name) != 99


def test_assignment_and_deletion_raise():
    for cls, values in EXAMPLES:
        record = build(cls, values, False)
        for name in (dataclasses.fields(cls)[0].name, "new_attribute"):
            try:
                setattr(record, name, 0)
            except dataclasses.FrozenInstanceError:
                pass
            else:
                raise AssertionError(f"{cls.__name__}.{name} was assigned")
        try:
            delattr(record, dataclasses.fields(cls)[0].name)
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError(f"{cls.__name__} lost a field")
        assert dataclasses.astuple(record) == dataclasses.astuple(build(cls, values, False))


def test_pickle_round_trip():
    for cls, values in EXAMPLES:
        record = build(cls, values, False)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record and hash(back) == hash(record)


def test_a_colouring_with_its_lazy_values_still_compares_and_pickles():
    colouring = build(*EXAMPLES[0], False)
    colouring.view, colouring.validation  # fill the lazy values
    plain = build(*EXAMPLES[0], False)
    assert colouring == plain and hash(colouring) == hash(plain)
    back = pickle.loads(pickle.dumps(colouring))
    assert back == plain and back.view.masks == colouring.view.masks
    assert dataclasses.replace(colouring, m=4) == EdgeColouring(4, 4, plain.colours)


def test_a_walk_built_colouring_holds_its_view_and_validation_from_construction():
    # the second record declares m = 2 but uses label 3: the check still runs
    for n, m, colours in ((4, 3, (1, 2, 3, 3, 2, 1)), (4, 2, (1, 2, 3, 3, 2, 1))):
        masks = colour_masks(n, 3, colours)
        colouring = EdgeColouring.on_masks(n, m, colours, masks)
        assert "view" in colouring.__dict__ and "validation" in colouring.__dict__
        assert colouring.view.masks is masks
        assert colouring.validation == _find_violations(EdgeColouring(n, m, colours))
    assert not colouring.validation.ok


def test_the_lazy_attributes_are_cached_properties_computed_on_the_first_read():
    assert all(isinstance(vars(cls)[name], functools.cached_property)
               for cls, name in ((EdgeColouring, "view"), (EdgeColouring, "validation"),
                                 (EdgeColouring, "components"), (EdgeColouring, "labels"),
                                 (LabelMatrix, "row_labels")))
    colouring = build(*EXAMPLES[0], False)
    assert "view" not in colouring.__dict__
    for name in ("view", "validation", "components", "labels"):
        first = getattr(colouring, name)
        assert name in colouring.__dict__ and getattr(colouring, name) is first
    assert colouring.labels.row_labels is colouring.labels.row_labels


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items())
             if name.startswith("test_") and callable(test)]
    for name, test in tests:
        test()
        print(f"{name} passed")
    print(f"{len(tests)} passed")
