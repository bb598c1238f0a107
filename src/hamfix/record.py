"""Frozen value records without `dataclasses`, whose import loads `inspect`,
`ast` and `dis` and whose decorator compiles about six methods per class:
together as much time as the package's whole search.  `record` compiles only
`__init__` per class; `__eq__` and `__hash__` are shared and read the fields
through the class's `__record_key__`."""

import operator


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self.__record_key__(self) == other.__record_key__(other)
    return NotImplemented


def _hash(self):
    return hash(self.__record_key__(self))


def _repr(self):
    body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__record_fields__)
    return f"{type(self).__qualname__}({body})"


def record(cls):
    """Make `cls` a frozen value record over its annotated fields, in order:
    keyword `__init__` with class-level defaults and `__post_init__`, value
    `__eq__`/`__hash__` as `dataclasses` writes them, frozen attributes, and
    a `Name(field=value, ...)` `__repr__` unless the class defines one."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    params = ", ".join(f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields)
    src = (
        f"def __init__(self, {params}):\n"
        + "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
    )
    namespace = {"_set": object.__setattr__, "_cls": cls}
    exec(src, namespace)
    cls.__init__ = namespace["__init__"]
    # the tuple of field values, as `dataclasses` compares and hashes it
    get = operator.attrgetter(*fields)
    cls.__record_key__ = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))
    cls.__eq__, cls.__hash__ = _eq, _hash
    cls.__record_fields__ = fields
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    return cls
