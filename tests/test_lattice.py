"""Divisor classes, gram validation and exact intersection arithmetic."""

import random
import time
from enum import IntEnum
from fractions import Fraction

import pytest

from k3acm import (BadDimensionsError, BadParametersError, DegenerateFormError,
                   DimensionMismatchError, DivClass, Lattice,
                   NonPositiveAmpleError, NonSymmetricError,
                   OddK3DiagonalError, PreconditionError, WrongSignatureError)
from k3acm.casework import delpezzo_lattice, quartic_lattice
from k3acm.lattice import _signature_of


def test_divclass_arithmetic():
    u = DivClass((3, -2))
    v = DivClass((1, 1))
    assert (u + v).coords == (4, -1)
    assert (u - v).coords == (2, -3)
    assert (-u).coords == (-3, 2)
    assert (2 * u).coords == (6, -4)
    assert (u * 2).coords == (6, -4)
    assert not u.is_zero()
    assert DivClass((0, 0, 0)).is_zero()
    assert len(u) == 2
    assert str(u) == "(3, -2)"


def test_a_bool_is_not_a_class_multiplier():
    with pytest.raises(TypeError):
        DivClass((1, 0)) * True
    with pytest.raises(TypeError):
        True * DivClass((2, 3))
    assert (3 * DivClass((1, -2))).coords == (3, -6)


def test_divclass_is_hashable_and_comparable():
    assert DivClass((1, 0)) == DivClass([1, 0])
    assert len({DivClass((1, 0)), DivClass((1, 0)), DivClass((0, 1))}) == 2


@pytest.mark.parametrize("bad", [4.7, "3", Fraction(3), True, False, None],
                         ids=["float", "numeric-string", "fraction", "bool",
                              "false", "none"])
def test_non_integers_are_refused_not_truncated(bad):
    # in any position, after exact ints or alone; the text shows the input
    for coords in ((bad, -4), [1, 2, bad], (bad,)):
        with pytest.raises(BadParametersError) as err:
            DivClass(coords)
        assert str(err.value) == (
            f"class coordinates must be ints, got {coords!r}")
    for gram in ([[4, 6], [6, bad]], ((bad, 6), (6, 4)), [[4, 6], (6, bad)]):
        with pytest.raises(BadParametersError) as err:
            Lattice(gram=gram, labels=("h", "B"), ample=(1, 0))
        assert str(err.value) == f"gram entries must be ints, got {gram!r}"
    with pytest.raises(BadParametersError) as err:
        Lattice(gram=[[4, 6], [6, 4]], labels=("h", "B"), ample=(bad, 0))
    assert str(err.value) == (
        f"class coordinates must be ints, got {(bad, 0)!r}")


_SHAPES = {"list": list, "tuple": tuple,
           "generator": lambda xs: (x for x in xs)}


@pytest.mark.parametrize("shape", _SHAPES)
def test_classes_and_gram_rows_are_read_from_any_iterable(shape):
    make = _SHAPES[shape]
    assert DivClass(make([3, -2])).coords == (3, -2)
    assert DivClass(make([])).coords == ()
    lat = Lattice(gram=make([make([4, 1]), make([1, -2])]), labels=("h", "B"),
                  ample=make([1, 0]), k3=True)
    assert lat.gram == ((4, 1), (1, -2)) and lat.ample == DivClass((1, 0))
    assert type(lat.gram) is tuple
    assert all(type(row) is tuple for row in lat.gram)


class _Entry(IntEnum):
    ONE = 1
    TWO = 2


class _Indexable:
    def __index__(self):
        return 3


def test_an_int_like_entry_is_stored_as_an_exact_int():
    # an int subclass and an __index__ object are read through
    # operator.index, so nothing but an exact int is stored
    c = DivClass((_Entry.TWO, -1, _Indexable()))
    assert c.coords == (2, -1, 3)
    assert [type(x) for x in c.coords] == [int, int, int]
    assert c == DivClass((2, -1, 3)) and hash(c) == hash(DivClass((2, -1, 3)))
    lat = Lattice(gram=[[4, _Entry.ONE], [_Entry.ONE, -2]], labels=("h", "B"),
                  ample=(_Entry.ONE, 0), k3=True)
    assert lat.gram == ((4, 1), (1, -2))
    assert {type(x) for row in lat.gram for x in row} == {int}
    assert type(lat.ample.coords[0]) is int


def test_a_non_iterable_class_or_gram_is_refused_with_its_text():
    for coords in (5, None):
        with pytest.raises(BadParametersError) as err:
            DivClass(coords)
        assert str(err.value) == (
            f"class coordinates must be ints, got {coords!r}")
    for gram in (4, [[4, 1], 7], [None]):
        with pytest.raises(BadParametersError) as err:
            Lattice(gram=gram, labels=("h", "B"), ample=(1, 0))
        assert str(err.value) == f"gram entries must be ints, got {gram!r}"


def test_gram_must_be_square_and_symmetric():
    with pytest.raises(BadDimensionsError):
        Lattice(gram=[[4, 1]], labels=("h",), ample=DivClass((1,)))
    with pytest.raises(NonSymmetricError):
        Lattice(gram=[[4, 1], [2, -2]], labels=("h", "B"),
                ample=DivClass((1, 0)))


def test_labels_and_ample_are_validated():
    with pytest.raises(BadDimensionsError):
        Lattice(gram=[[4, 1], [1, -2]], labels=("h",), ample=DivClass((1, 0)))
    with pytest.raises(BadDimensionsError):
        Lattice(gram=[[4, 1], [1, -2]], labels=("h", "h"),
                ample=DivClass((1, 0)))
    with pytest.raises(BadDimensionsError):
        Lattice(gram=[[4, 1], [1, -2]], labels=("h", "B"),
                ample=DivClass((1, 0, 0)))
    with pytest.raises(NonPositiveAmpleError):
        Lattice(gram=[[4, 1], [1, -2]], labels=("h", "B"),
                ample=DivClass((0, 1)))
    with pytest.raises(NonPositiveAmpleError):
        Lattice([[0, 1], [1, 0]], "xy", ample=(1, 0))  # isotropic


def test_k3_surface_checks():
    with pytest.raises(OddK3DiagonalError):
        Lattice(gram=[[4, 1], [1, 3]], labels=("h", "B"),
                ample=DivClass((1, 0)), k3=True)
    # positive definite rank 2 is not a K3 sublattice
    with pytest.raises(WrongSignatureError):
        Lattice(gram=[[4, 0], [0, 2]], labels=("h", "B"),
                ample=DivClass((1, 0)), k3=True)
    # the same data is fine once the surface checks are off
    lat = Lattice(gram=[[4, 0], [0, 2]], labels=("h", "B"),
                  ample=DivClass((1, 0)), k3=False)
    assert lat.signature() == (2, 0)


def test_quartic_pairings():
    lat = quartic_lattice(-2, 1)
    h, b = DivClass((1, 0)), DivClass((0, 1))
    assert lat.pair(h, h) == 4
    assert lat.pair(b, b) == -2
    assert lat.pair(h, b) == 1
    c = DivClass((3, -2))
    assert lat.self_int(c) == 16
    assert lat.deg(c) == 10
    assert lat.pair(c, h - b) == 3


def test_basis_reproduces_gram():
    lat = delpezzo_lattice()
    basis = [DivClass(1 if j == i else 0 for j in range(lat.rank))
             for i in range(lat.rank)]
    for i in range(lat.rank):
        for j in range(lat.rank):
            assert lat.pair(basis[i], basis[j]) == lat.gram[i][j]


def test_dimension_mismatch():
    lat = quartic_lattice(0, 4)
    with pytest.raises(DimensionMismatchError):
        lat.pair(DivClass((1, 0, 0)), DivClass((0, 1)))


def test_signature_diagonal_and_hyperbolic():
    assert delpezzo_lattice().signature() == (1, 7)
    hyp = Lattice(gram=[[0, 1], [1, 0]], labels=("u", "v"),
                  ample=DivClass((1, 1)))
    assert hyp.signature() == (1, 1)
    assert quartic_lattice(-2, 2).signature() == (1, 1)


def test_a_k3_lattice_computes_its_signature_once(monkeypatch):
    from k3acm import lattice
    calls = []

    def counting(gram):
        calls.append(gram)
        return _signature_of(gram)
    monkeypatch.setattr(lattice, "_signature_of", counting)
    lat = delpezzo_lattice()
    assert lat.k3 and lat.signature() == lat.signature() == (1, 7)
    assert len(calls) == 1


def test_signature_rejects_degenerate_forms():
    lat = Lattice(gram=[[4, 4], [4, 4]], labels=("h", "B"),
                  ample=DivClass((1, 0)))
    with pytest.raises(DegenerateFormError):
        lat.signature()


def test_evenness():
    assert quartic_lattice(2, 5).is_even()
    assert delpezzo_lattice().is_even()
    odd = Lattice(gram=[[4, 1], [1, 3]], labels=("h", "B"),
                  ample=DivClass((1, 0)))
    assert not odd.is_even()


def test_hodge_check():
    lat = quartic_lattice(-2, 3)
    h, b = DivClass((1, 0)), DivClass((0, 1))
    assert lat.hodge_check(h, 2 * h - b)
    with pytest.raises(PreconditionError):
        lat.hodge_check(h, b)   # B^2 = -2 is not positive
    # the equality case holds: h^2 h^2 = 16 = (h.h)^2
    assert quartic_lattice(4, 6).hodge_check(h, h)
    # a definite form breaks the inequality: 2 * 2 > (h.b)^2 = 0 and
    # 2 * 4 > (h.(h + b))^2 = 4
    definite = Lattice(gram=[[2, 0], [0, 2]], labels=("h", "b"), ample=h)
    assert not definite.hodge_check(h, b)
    assert not definite.hodge_check(h, h + b)


def test_pairing_is_symmetric_and_bilinear():
    rng = random.Random(20260814)
    lat = delpezzo_lattice()
    n = lat.rank
    for _ in range(300):
        u = DivClass(rng.randint(-9, 9) for _ in range(n))
        v = DivClass(rng.randint(-9, 9) for _ in range(n))
        w = DivClass(rng.randint(-9, 9) for _ in range(n))
        a = rng.randint(-4, 4)
        assert lat.pair(u, v) == lat.pair(v, u)
        assert lat.pair(a * u + w, v) == a * lat.pair(u, v) + lat.pair(w, v)
        assert lat.self_int(u) % 2 == 0


def _pair_oracle(lat, d1, d2):
    """The former Lattice.pair, kept verbatim as the oracle for the new one."""
    if len(d1) != lat.rank or len(d2) != lat.rank:
        raise DimensionMismatchError(
            f"classes of length {len(d1)}, {len(d2)} on a rank-{lat.rank} lattice")
    total = 0
    for i, a in enumerate(d1.coords):
        if a == 0:
            continue
        row = lat.gram[i]
        total += a * sum(row[j] * b for j, b in enumerate(d2.coords) if b)
    return total


def test_pair_matches_the_oracle_on_random_grams():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 8)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.choice((0, 0, rng.randint(-9, 9)))
        gram[0][0] = rng.randint(1, 9)  # the ample class e_0 has positive square
        lat = Lattice(gram=gram, labels=[f"e{i}" for i in range(n)],
                      ample=DivClass([1] + [0] * (n - 1)))
        for _ in range(10):
            u = DivClass(rng.choice((0, rng.randint(-6, 6))) for _ in range(n))
            v = DivClass(rng.choice((0, rng.randint(-6, 6))) for _ in range(n))
            assert lat.pair(u, v) == _pair_oracle(lat, u, v)
            assert lat.self_int(u) == _pair_oracle(lat, u, u)
            assert lat.deg(v) == _pair_oracle(lat, lat.ample, v)


def test_pair_dimension_mismatch_text_matches_the_oracle():
    lat = quartic_lattice(0, 4)
    short, ok, long = DivClass((1,)), DivClass((1, 2)), DivClass((1, 2, 3))
    for d1, d2 in ((short, ok), (ok, long), (long, short), (long, long)):
        with pytest.raises(DimensionMismatchError) as want:
            _pair_oracle(lat, d1, d2)
        with pytest.raises(DimensionMismatchError) as got:
            lat.pair(d1, d2)
        assert str(got.value) == str(want.value)
        with pytest.raises(DimensionMismatchError) as raw:
            lat.pair_coords(d1.coords, list(d2.coords))
        assert str(raw.value) == str(want.value)


def _signature_oracle(gram):
    """The former _signature_of, elimination over Fraction, as the oracle."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            piv = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if piv is not None:
                a[i], a[piv] = a[piv], a[i]
                for row in a:
                    row[i], row[piv] = row[piv], row[i]
            else:
                k = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if k is None:
                    raise DegenerateFormError(
                        "form is degenerate: zero row during diagonalization")
                for col in range(n):
                    a[i][col] += a[k][col]
                for row in a:
                    row[i] += row[k]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[j][i] == 0:
                continue
            f = a[j][i] / p
            for col in range(i, n):
                a[j][col] -= f * a[i][col]
            for row in a:
                row[j] -= f * row[i]
    return pos, neg


def _outcome(signature, gram):
    try:
        return signature(gram)
    except DegenerateFormError as exc:
        return type(exc), str(exc)


def test_integer_signature_matches_the_fraction_oracle():
    rng = random.Random(20261018)
    seen = {"degenerate": 0, "zero-diagonal": 0, "hyperbolic": 0}
    for _ in range(2400):
        n = rng.randint(1, 8)
        span = rng.choice((1, 2, 3, 9, 40))
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.choice(
                    (0, rng.randint(-span, span)))
        if rng.random() < 0.2 and n > 1:  # a repeated row forces degeneracy
            i, j = rng.sample(range(n), 2)
            for k in range(n):
                gram[j][k] = gram[k][j] = gram[i][k]
            gram[j][j] = gram[i][i]
        want = _outcome(_signature_oracle, gram)
        assert _outcome(_signature_of, gram) == want, gram
        seen["degenerate"] += want[0] is DegenerateFormError
        seen["zero-diagonal"] += any(gram[i][i] == 0 for i in range(n))
        seen["hyperbolic"] += all(gram[i][i] == 0 for i in range(n)) and n > 1
    assert min(seen.values()) >= 50, seen


def test_integer_signature_entries_stay_the_size_of_minors():
    # without the exact division by the previous pivot, the entries grow
    # like the 3^k-th power of the Gram entries: rank 14 took 0.6 s
    rng = random.Random(14)
    grams = []
    for n in (10, 12, 14, 14):
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-5, 5)
        grams.append(gram)
    start = time.perf_counter()
    got = [_outcome(_signature_of, gram) for gram in grams]
    elapsed = time.perf_counter() - start
    assert got == [_outcome(_signature_oracle, gram) for gram in grams]
    assert elapsed < 0.1, elapsed
