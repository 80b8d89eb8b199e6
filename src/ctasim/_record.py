"""Read-only value types with field-wise ==, hash, repr and replace()."""


class Record:
    """Base of ctasim's value types.

    A subclass's fields are the parameters of its ``__init__``, which first
    stores them with ``self._set(locals())`` and then checks them.
    ``replace(**changes)`` builds a new record through ``__init__``, so
    every check runs again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, values: dict) -> None:
        # Writing through vars(self) instead would cost the closed loop
        # CPython's fast attribute loads on the gains and the disturbance.
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only; use replace()")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
