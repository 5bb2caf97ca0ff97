"""Immutable value classes, and ``json_int``, the check of an integer
read from JSON.

A subclass of ``Value`` lists its fields in ``__slots__``, in order, and
sets them in its own ``__init__`` through ``set_field`` after checking
and normalising its arguments.  The base supplies what a frozen
dataclass would: equality between instances of the same class with
equal fields (``NotImplemented`` otherwise), a hash of the field tuple,
the repr ``Name(field=value, ...)``, an ``AttributeError`` on assignment
or deletion, and pickling and copying that restore the fields without
re-running the checks.

>>> class Pair(Value):
...     __slots__ = ("x", "y")
...     def __init__(self, x, y=0):
...         set_field(self, "x", x)
...         set_field(self, "y", y)
>>> Pair(1) == Pair(x=1, y=0), hash(Pair(1, 2)) == hash((1, 2))
(True, True)
>>> Pair(1, 2)
Pair(x=1, y=2)
>>> Pair(1).x = 2
Traceback (most recent call last):
...
AttributeError: cannot assign to field 'x'
"""

from operator import attrgetter

__all__ = ["Value", "set_field", "json_int"]

set_field = object.__setattr__


def _restore(cls, fields):
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        set_field(obj, name, value)
    return obj


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            cls._fields = staticmethod(lambda obj: (get(obj),))
        else:
            cls._fields = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item
            for item in zip(self.__slots__, self._fields(self))))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return _restore, (type(self), self._fields(self))


def json_int(value):
    """``value`` if it is an integer as read from JSON; booleans, floats
    and strings raise ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer, got %r" % (value,))
    return value
