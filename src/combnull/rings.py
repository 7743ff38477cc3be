"""Exact arithmetic over the supported commutative coefficient rings.

Four ring families are available: the integers ``ZZ``, the rationals ``QQ``,
the modular rings ``ZZ/m`` with m >= 2, and the prime fields ``GF(p)``
(realized as ZZ/p with p prime; extension fields are out of scope).

Elements are kept in canonical form as plain Python values: arbitrary
precision ``int`` for ZZ and the modular rings (representatives in
``[0, m)``), and normalized ``Fraction`` for QQ.  All arithmetic is exact;
nothing in the library rounds.  Only QQ imports ``fractions`` (which loads
``decimal`` and ``numbers``): ``QQ`` is built on first access (PEP 562
``__getattr__``), ``Ring.__init__`` imports ``Fraction`` for QQ alone, and
QQ's element methods take the class from ``type(self.one)``, so no call
over ZZ, ZZ/m or GF(p) pays for it.  A modulus m or p must be an
``int``, by the one integer rule ``staircase.require_int``.

The one predicate on elements is ``is_zero_divisor``.  Condition (D) on a
grid axis (no difference of two support values is a zero divisor) is
decided from it once per axis, when ``multiset_ideals.Axis`` interns it.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, TypeAlias, Union

from .errors import ParseError, RingMismatch, UnsupportedField
from .staircase import require_int

if TYPE_CHECKING:
    from fractions import Fraction

# A string alias: a typing forward reference would call compile() at import,
# whose first call in a process costs over a millisecond.
Element: TypeAlias = "Union[int, Fraction]"

_INTEGERS = "ZZ"
_RATIONALS = "QQ"
_MODULAR = "ZZ/m"
_PRIME_FIELD = "GF"


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below psi_13 (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; refuses moduli where it is not exact."""
    if p in _MR_BASES:
        return True
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return False
    if p >= _MR_EXACT_BELOW:
        raise UnsupportedField(
            f"cannot decide primality of {p} exactly (limit {_MR_EXACT_BELOW})"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FrozenValue:
    """An immutable value with the equality, hash and repr of a frozen
    dataclass over its ``_fields``: equal only within one class, unhashable
    when a field is.  ``__init__`` stores one value per field.  A type with
    invariants checks them in its own ``__init__``, which stores through
    ``__dict__`` or ``object.__setattr__``, so ``replace`` checks them again."""

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = property(attrgetter(*cls._fields))  # one C call per hash

    def __init__(self, *args, **kwargs):
        """One value per name in ``_fields``, positional ones in that order;
        a missing or unknown field is a TypeError."""
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args += tuple(map(kwargs.get, rest))
        self.__dict__.update(zip(fields, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes``, built by ``__init__`` from the ``_fields``,
        so every check runs again.  A class whose ``__init__`` takes other
        parameters overrides this."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


class FieldsToJson:
    """Mixed into a ``FrozenValue`` report whose JSON document is its fields
    by name, each written by ``serialization.value_to_json``."""

    def to_json_dict(self) -> dict:
        from .serialization import value_to_json  # it imports the report modules

        return {name: value_to_json(getattr(self, name)) for name in self._fields}


class Ring(FrozenValue):
    """A commutative ring descriptor; all element operations live here.

    Instances are immutable and compare structurally, so two descriptors of
    the same ring are interchangeable.  Every operation is a pure function
    of its inputs.
    """

    _fields = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        zero, one = 0, 1
        if kind in (_INTEGERS, _RATIONALS):
            if modulus is not None:
                raise ValueError(f"{kind} takes no modulus")
            if kind == _RATIONALS:
                from fractions import Fraction
                zero, one = Fraction(0), Fraction(1)
        elif kind == _MODULAR:
            require_int(modulus, 2, "ZZ/m modulus m", ValueError)
        elif kind == _PRIME_FIELD:
            if not _is_prime(require_int(modulus, 0, "GF modulus p", ValueError)):
                raise UnsupportedField(
                    f"GF({modulus}) is not a prime field; "
                    "extension fields are unsupported"
                )
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        # Element ops read the modulus (None for ZZ and QQ) and the constants on
        # every call, and object.__setattr__ keeps the inline values that read
        # faster than __dict__.  zero and one follow from kind, so they are not
        # fields: equality, hash, repr and replace see kind and modulus only.
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    # -- construction ----------------------------------------------------

    def canon(self, value) -> Element:
        """Canonical representative of an int (or, in QQ, a Fraction) in
        this ring; a ``bool`` is not an element of any ring."""
        if self.kind == _RATIONALS:
            fraction = type(self.one)  # Fraction, which only QQ's __init__ imports
            if isinstance(value, (int, fraction)) and not isinstance(value, bool):
                return fraction(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            return value % self.modulus if self.modulus else value
        raise ParseError(f"not an element of {self}: {value!r}")

    def from_int(self, k: int) -> Element:
        """Canonical ring image of an integer (the unique map ZZ -> R)."""
        if self.kind == _RATIONALS:
            return type(self.one)(k)
        return k % self.modulus if self.modulus else k

    # -- arithmetic -------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return (a + b) % self.modulus if self.modulus else a + b

    def sub(self, a: Element, b: Element) -> Element:
        return (a - b) % self.modulus if self.modulus else a - b

    def mul(self, a: Element, b: Element) -> Element:
        return (a * b) % self.modulus if self.modulus else a * b

    def submul(self, a: Element, b: Element, c: Element) -> Element:
        """``a - b*c`` with one reduction: the division loops' one call per term."""
        return (a - b * c) % self.modulus if self.modulus else a - b * c

    def neg(self, a: Element) -> Element:
        return (-a) % self.modulus if self.modulus else -a

    def pow(self, a: Element, k: int) -> Element:
        if k < 0:
            raise ValueError("negative exponent")
        return pow(a, k, self.modulus) if self.modulus else a ** k

    # -- predicates -------------------------------------------------------

    def is_zero_divisor(self, a: Element) -> bool:
        """True iff aw = 0 for some w != 0.

        Zero is a zero divisor in every ring here (all supported rings are
        nonzero), matching the literal definition used throughout.
        """
        if self.kind in (_INTEGERS, _RATIONALS):
            return a == 0
        return gcd(a % self.modulus, self.modulus) > 1

    # -- text forms --------------------------------------------------------

    def parse_element(self, text: str) -> Element:
        text = text.strip()
        try:
            if "/" in text:
                if self.kind != _RATIONALS:
                    raise ParseError(f"fractions are not elements of {self}")
                return type(self.one)(text)
            return self.canon(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad element {text!r} for {self}: {exc}") from None

    def __str__(self) -> str:
        if self.kind == _MODULAR:
            return f"ZZ/{self.modulus}"
        if self.kind == _PRIME_FIELD:
            return f"GF({self.modulus})"
        return self.kind

    def require_same(self, other: "Ring") -> None:
        if self is not other and self != other:
            raise RingMismatch(f"{self} vs {other}")


ZZ = Ring(_INTEGERS)


def _rationals() -> Ring:
    """``QQ``, built and bound as a module global on first use."""
    global QQ
    try:
        return QQ
    except NameError:
        QQ = Ring(_RATIONALS)
        return QQ


def __getattr__(name):
    if name == "QQ":
        return _rationals()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def Zmod(m: int) -> Ring:
    return Ring(_MODULAR, m)


def GF(p: int) -> Ring:
    return Ring(_PRIME_FIELD, p)


def parse_ring(text: str) -> Ring:
    """Parse the ring grammar: ``ZZ``, ``QQ``, ``ZZ/<m>``, ``GF(<p>)``."""
    if not isinstance(text, str):
        raise ParseError(f"ring text must be a string, got {text!r}")
    text = text.strip()
    if text == "ZZ":
        return ZZ
    if text == "QQ":
        return _rationals()
    if text.startswith("ZZ/"):
        try:
            m = int(text[3:])
        except ValueError:
            raise ParseError(f"bad modulus in {text!r}") from None
        if m < 2:
            raise ParseError(f"modulus must be >= 2 in {text!r}")
        return Zmod(m)
    if text.startswith("GF(") and text.endswith(")"):
        try:
            p = int(text[3:-1])
        except ValueError:
            raise ParseError(f"bad prime in {text!r}") from None
        return GF(p)
    raise ParseError(f"unrecognized ring {text!r}")
