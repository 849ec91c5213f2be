from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import reference_forms as rf
from kinorbit.algebra_core import (
    AlgebraElement,
    GeneratorLabel,
    StructureConstants,
)
from kinorbit.catalog import build
from kinorbit.coadjoint import kirillov_matrix


def _so3() -> StructureConstants:
    return StructureConstants(
        ("X", "Y", "Z"),
        {
            ("X", "Y"): {"Z": 1},
            ("Y", "Z"): {"X": 1},
            ("Z", "X"): {"Y": 1},
        },
    )


def _heisenberg() -> StructureConstants:
    return StructureConstants(
        ("Q", "P", "Z"),
        {("Q", "P"): {"Z": 1}},
    )


def _random_element(alg: StructureConstants, rng: random.Random) -> AlgebraElement:
    return alg.element(
        {
            name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for name in alg.names
        }
    )


def test_generator_label_dimension_text() -> None:
    assert GeneratorLabel("J").dimension_text() == "1"
    assert GeneratorLabel("K", (-1, 1)).dimension_text() == "L^-1 T"
    assert GeneratorLabel("P", (-1, 0)).dimension_text() == "L^-1"
    assert GeneratorLabel("H", (0, -1)).dimension_text() == "T^-1"
    assert GeneratorLabel("M", (-2, 1)).dimension_text() == "L^-2 T"


def test_duplicate_bracket_pair_rejected() -> None:
    with pytest.raises(ValueError):
        StructureConstants(
            ("A", "B", "C"),
            {("A", "B"): {"C": 1}, ("B", "A"): {"C": -1}},
        )


def test_self_bracket_rejected() -> None:
    with pytest.raises(ValueError):
        StructureConstants(("A", "B"), {("A", "A"): {"B": 1}})


def test_unknown_generator_rejected() -> None:
    with pytest.raises(KeyError):
        StructureConstants(("A", "B"), {("A", "X"): {"B": 1}})
    with pytest.raises(KeyError):
        _so3().index("W")


def test_structure_tensor_antisymmetry() -> None:
    alg = build("dS+")
    n = alg.dim
    for i in range(n):
        for j in range(n):
            forward, backward = alg.bracket_targets(i, j), alg.bracket_targets(j, i)
            assert forward == {k: -v for k, v in backward.items()}
            assert all(isinstance(v, Fraction) for v in forward.values())


def test_bracket_antisymmetry_random_elements() -> None:
    rng = random.Random(101)
    for alg in (_so3(), _heisenberg(), build("G"), build("S", "noncentral_ext")):
        zero = alg.element({})
        for _ in range(20):
            x = _random_element(alg, rng)
            y = _random_element(alg, rng)
            assert alg.bracket(x, y) == -alg.bracket(y, x)
            assert alg.bracket(x, x) == zero


def test_bracket_bilinearity_random_elements() -> None:
    rng = random.Random(202)
    alg = build("P")
    for _ in range(25):
        x = _random_element(alg, rng)
        y = _random_element(alg, rng)
        z = _random_element(alg, rng)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        left = alg.bracket(a * x + b * y, z)
        right = a * alg.bracket(x, z) + b * alg.bracket(y, z)
        assert left == right


def test_element_arithmetic_is_exact() -> None:
    alg = _heisenberg()
    x = alg.element({"Q": Fraction(1, 3), "Z": 2})
    y = alg.element({"Q": 1, "P": Fraction(-1, 2)})
    s = x + y
    assert s.coordinate("Q") == Fraction(4, 3)
    assert s.coordinate("P") == Fraction(-1, 2)
    assert (x - x) == alg.element({})
    assert (-x).coordinate("Z") == Fraction(-2)
    assert (Fraction(3, 2) * x).coordinate("Q") == Fraction(1, 2)
    assert (x * Fraction(3, 2)).coordinate("Q") == Fraction(1, 2)


def test_basis_element_and_bracket_lookup() -> None:
    alg = _so3()
    ex = alg.basis_element("X")
    ey = alg.basis_element("Y")
    assert isinstance(ex, AlgebraElement)
    z = alg.bracket(ex, ey)
    assert z.coordinate("Z") == 1
    assert z.coordinate("X") == 0
    ix, iy, iz = (alg.index(n) for n in ("X", "Y", "Z"))
    assert alg.bracket_targets(ix, iy) == {iz: Fraction(1)}
    assert alg.bracket_targets(iy, ix) == {iz: Fraction(-1)}
    assert alg.bracket_targets(ix, iz) == {iy: Fraction(-1)}
    assert alg.bracket_targets(ix, ix) == {}


def test_adjoint_matrix_matches_bracket() -> None:
    rng = random.Random(303)
    # in the last algebra ad_A[W, Z] = A^X + 2 A^Y sums two brackets
    two_paths = StructureConstants(
        ("X", "Y", "Z", "W"), {("X", "Z"): {"W": 1}, ("Y", "Z"): {"W": 2}}
    )
    for alg in (_so3(), build("dS-"), build("NH+", "central_ext"), two_paths):
        for _ in range(10):
            x = _random_element(alg, rng)
            ad = alg.adjoint_matrix(dict(zip(alg.names, x.coords)))
            for j in range(alg.dim):
                ej = alg.basis_element(alg.names[j])
                expected = alg.bracket(x, ej)
                for k in range(alg.dim):
                    assert ad[k][j] == expected.coords[k]


def test_returned_bracket_data_cannot_corrupt_the_algebra() -> None:
    # charges that break the Jacobi identity, so that its check has
    # violations to change
    alg = rf.central_ext_table("NH+", 1, 1, 1, 1)
    coords = {name: Fraction(i + 1, 3) for i, name in enumerate(alg.names)}

    def readings():
        return (
            [(v.triple, v.residual) for v in alg.jacobi_violations()],
            alg.adjoint_matrix(coords),
            kirillov_matrix(alg, list(coords.values())),
        )

    before = readings()
    assert before[0]
    for (i, j), comps in alg.pair_table():
        comps.clear()
        comps[i] = Fraction(7)
        for first, second in ((i, j), (j, i)):
            targets = alg.bracket_targets(first, second)
            for k in targets:
                targets[k] = Fraction(99)
            targets[first] = Fraction(5)
    assert readings() == before


def test_pair_table_round_trip() -> None:
    alg = _so3()
    seen = {}
    for (i, j), comps in alg.pair_table():
        assert i < j
        seen[(alg.names[i], alg.names[j])] = {
            alg.names[k]: v for k, v in comps.items()
        }
    assert seen == {
        ("X", "Y"): {"Z": Fraction(1)},
        ("Y", "Z"): {"X": Fraction(1)},
        ("X", "Z"): {"Y": Fraction(-1)},
    }


def test_jacobi_clean_algebras_have_no_violations() -> None:
    for alg in (_so3(), _heisenberg(), build("C"), build("G", "noncentral_ext")):
        assert alg.jacobi_violations() == []
        assert alg.is_lie_algebra


def test_jacobi_violation_reporting() -> None:
    broken = StructureConstants(
        ("J", "A", "B", "H"),
        {("J", "A"): {"B": 1}, ("J", "B"): {"A": -1}, ("A", "H"): {"A": 1}},
    )
    violations = broken.jacobi_violations()
    assert not broken.is_lie_algebra
    assert [(v.triple, v.residual) for v in violations] == [
        (("J", "A", "H"), (("B", Fraction(1)),)),
        (("J", "B", "H"), (("A", Fraction(1)),)),
    ]
    assert all(v.magnitude == 1 for v in violations)


def test_jacobi_iterates_every_triple() -> None:
    alg = build("dS+")
    expected = len(list(combinations(range(alg.dim), 3)))
    assert expected == 20
    assert alg.jacobi_violations() == []
