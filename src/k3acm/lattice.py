"""Integral lattices with a distinguished ample class.

A Lattice is an integer symmetric bilinear form together with basis labels
and a distinguished ample divisor class.  All arithmetic is exact: pairings
are plain Python integers, the signature is computed by fraction-free
symmetric elimination over the integers, never by floating point.

A lattice flagged ``k3`` must be even (even diagonal suffices) and have
signature (1, rank-1); this is checked at construction time.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .errors import (
    BadDimensionsError,
    BadParametersError,
    DegenerateFormError,
    DimensionMismatchError,
    NonPositiveAmpleError,
    NonSymmetricError,
    OddK3DiagonalError,
    PreconditionError,
    WrongSignatureError,
)


_EXACT_INT = frozenset({int})  # .issuperset(map(type, xs)): a C-level pass


def int_text(n: int) -> str:
    """str(n), or n's size in bits where str() passes Python's digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"<an int of {n.bit_length()} bits>"


def _ints(values) -> tuple[int, ...]:
    """The values as a tuple of exact ints, else ``operator.index`` of each;
    TypeError on a non-integer or a bool (True is not 1 here)."""
    values = tuple(values)
    if _EXACT_INT.issuperset(map(type, values)):
        return values
    if bool in map(type, values):
        raise TypeError("a bool is not an integer entry")
    return tuple(map(operator.index, values))


class _Frozen:
    """Base of the immutable __slots__ value classes: each of ``_fields``
    is set once, in __init__, and printed as a dataclass prints it.  Each
    class writes its own == and hash, so none equals a plain tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class DivClass(_Frozen):
    """A divisor class: an integer coordinate vector in a fixed basis.

    A coordinate that is not an integer (``_ints`` refuses it: a float, a
    string, a Fraction, a bool) raises BadParametersError.

    Supports the obvious Z-module operations so combinations read like the
    formulas they implement, e.g. ``3*h - 2*b``.
    """

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: Iterable[int]):
        try:
            ints = _ints(coords)
        except TypeError:
            raise BadParametersError(
                f"class coordinates must be ints, got {coords!r}") from None
        object.__setattr__(self, "coords", ints)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "DivClass") -> "DivClass":
        if len(self) != len(other):
            raise DimensionMismatchError(
                f"cannot add classes of length {len(self)} and {len(other)}")
        return DivClass(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "DivClass") -> "DivClass":
        return self + (-other)

    def __neg__(self) -> "DivClass":
        return DivClass(-a for a in self.coords)

    def __mul__(self, k: int) -> "DivClass":
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return DivClass(k * a for a in self.coords)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(map(int_text, self.coords)) + ")"


def _check_gram(gram: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(map(_ints, gram))
    except TypeError:
        raise BadParametersError(
            f"gram entries must be ints, got {gram!r}") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise BadDimensionsError("gram matrix must be square and nonempty")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NonSymmetricError(
                    f"gram[{i}][{j}]={rows[i][j]} != gram[{j}][{i}]={rows[j][i]}")
    return rows


def _signature_of(gram: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Signature (#positive, #negative) of a nondegenerate symmetric form.

    Fraction-free symmetric elimination in integers.  At the pivot p of
    step i every later entry becomes (p*a[j][k] - a[j][i]*a[i][k]) / prev,
    a division by the previous pivot that is exact (Bareiss): each entry is
    then a minor of the form, so the numbers stay as small as minors.  The
    pivots are the leading principal minors D_i, and D_i / D_(i-1) is the
    i-th diagonal entry of a diagonalization, so its sign is counted.
    When every remaining diagonal entry vanishes but the row does not, a
    row+column addition turns the 2x2 hyperbolic block into a usable
    pivot; Sylvester's law makes the count basis-independent.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            piv = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if piv is not None:
                a[i], a[piv] = a[piv], a[i]
                for row in a:
                    row[i], row[piv] = row[piv], row[i]
            else:
                # all remaining diagonal entries vanish
                k = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if k is None:
                    raise DegenerateFormError(
                        "form is degenerate: zero row during diagonalization")
                for col in range(n):
                    a[i][col] += a[k][col]
                for row in a:
                    row[i] += row[k]
        p = a[i][i]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        row_i = a[i]
        for j in range(i + 1, n):
            row_j = a[j]
            f = row_j[i]
            for k in range(i + 1, n):
                row_j[k] = (p * row_j[k] - f * row_i[k]) // prev
        prev = p
    return pos, neg


class Lattice(_Frozen):
    """An integral lattice with labelled basis and ample class.

    Immutable; every operation is a pure function of the inputs.
    """

    _fields = ("gram", "labels", "ample", "k3")
    __slots__ = _fields + ("_sig",)  # _sig: the signature, once computed

    def __init__(self, gram, labels, ample, k3: bool = False):
        rows = _check_gram(gram)
        n = len(rows)
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise BadDimensionsError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise BadDimensionsError("basis labels must be distinct")
        if not isinstance(ample, DivClass):
            ample = DivClass(ample)
        if len(ample) != n:
            raise BadDimensionsError(
                f"ample class has length {len(ample)}, lattice rank is {n}")
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ample", ample)
        object.__setattr__(self, "k3", bool(k3))
        object.__setattr__(self, "_sig", None)
        if self.k3:
            for i in range(n):
                if rows[i][i] % 2 != 0:
                    raise OddK3DiagonalError(
                        f"K3 lattice needs an even diagonal; gram[{i}][{i}]={rows[i][i]}")
            sig = self.signature()
            if sig != (1, n - 1):
                raise WrongSignatureError(
                    f"K3 lattice needs signature (1, {n - 1}), got {sig}")
        if self.self_int(self.ample) <= 0:
            raise NonPositiveAmpleError(
                f"ample class {ample} has self-intersection "
                f"{self.self_int(self.ample)} <= 0")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.gram, self.labels, self.ample, self.k3)
                    == (other.gram, other.labels, other.ample, other.k3))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.gram, self.labels, self.ample, self.k3))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pair(self, d1: DivClass, d2: DivClass) -> int:
        """Intersection number d1 . d2 (exact integer)."""
        return self.pair_coords(d1.coords, d2.coords)

    def pair_coords(self, x: Sequence[int], y: Sequence[int]) -> int:
        """The pairing of two integer coordinate sequences, as pair does
        for the classes with these coordinates."""
        gram = self.gram
        if len(x) != len(gram) or len(y) != len(gram):
            raise DimensionMismatchError(
                f"classes of length {len(x)}, {len(y)} on a rank-{len(gram)} lattice")
        total = 0
        for a, row in zip(x, gram):
            if a:
                total += a * sum(map(operator.mul, row, y))
        return total

    def self_int(self, d: DivClass) -> int:
        """Self-intersection d . d."""
        return self.pair(d, d)

    def deg(self, d: DivClass) -> int:
        """Degree against the ample class."""
        return self.pair(self.ample, d)

    def signature(self) -> tuple[int, int]:
        """(#positive, #negative) eigenvalue counts, computed once;
        requires nondegeneracy."""
        if self._sig is None:
            object.__setattr__(self, "_sig", _signature_of(self.gram))
        return self._sig

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def hodge_check(self, d1: DivClass, d2: DivClass) -> bool:
        """Hodge index inequality d1^2 * d2^2 <= (d1.d2)^2.

        Only meaningful when both self-intersections are positive; raises
        PreconditionError otherwise.  On a signature-(1, k) lattice the
        inequality always holds, so a False return flags corrupt data.
        """
        a = self.self_int(d1)
        b = self.self_int(d2)
        if a <= 0 or b <= 0:
            raise PreconditionError(
                f"hodge_check needs positive squares, got {a} and {b}")
        return a * b <= self.pair(d1, d2) ** 2
