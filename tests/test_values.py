"""The value classes are immutable, hashable and printed by their fields."""

import pytest

from spantree import (
    ConstructionOrder,
    ForbiddenWitness,
    PartitionShape,
    Ring,
    ferrers_graph,
    ferrers_structure,
)

# a builder of a fresh instance of each class, and that instance's repr
VALUES = {
    "ConstructionOrder": (
        lambda: ConstructionOrder(
            (3, 2, 4, 1), frozenset({3, 4}), ("initial", "u_dominating", "isolated", "u_dominating")
        ),
        "ConstructionOrder(order=(3, 2, 4, 1), u_set=frozenset({3, 4}), "
        "roles=('initial', 'u_dominating', 'isolated', 'u_dominating'))",
    ),
    "ForbiddenWitness": (
        lambda: ForbiddenWitness("C4", (1, 2, 3, 4)),
        "ForbiddenWitness(pattern_name='C4', vertices=(1, 2, 3, 4))",
    ),
    "FerrersStructure": (
        lambda: ferrers_structure(ferrers_graph(PartitionShape((2, 1)))),
        "FerrersStructure(row_order=(1, 2), col_order=(3, 4), "
        "shape=PartitionShape(parts=(2, 1)), traversal=(3, 2, 4, 1))",
    ),
    "PartitionShape": (lambda: PartitionShape([2, 1]), "PartitionShape(parts=(2, 1))"),
    "Ring": (
        lambda: Ring(0, 1, abs, len, len, divmod, sum, max),
        "Ring(zero=0, one=1, weight=<built-in function abs>, weight_sum=<built-in function len>, "
        "weight_product=<built-in function len>, div=<built-in function divmod>, "
        "det=<built-in function sum>, lift=<built-in function max>)",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_are_frozen_hashable_and_printed_by_field(name):
    build, text = VALUES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name and value is not twin
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], twin[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin and hash(value) == hash(twin) and len({value, twin}) == 1
    assert repr(value) == text
    # a named tuple equals the plain tuple of its fields
    assert value == tuple(getattr(value, field) for field in value._fields)
