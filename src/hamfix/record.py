"""Frozen value records without `dataclasses`, whose import loads `inspect`,
`ast` and `dis` and whose decorator compiles about six methods per class:
together as much time as the package's whole search.  `record` compiles one
source text per class."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set {name!r}")


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
    mine, theirs = ("".join(f"{who}.{f}, " for f in fields) for who in ("self", "other"))
    src = (
        f"def __init__(self, {params}):\n"
        + "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
    )
    namespace = {"_set": object.__setattr__, "_cls": cls}
    exec(src, namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        setattr(cls, name, namespace[name])
    cls.__record_fields__ = fields
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    return cls
