"""Every exception class spokenkit defines derives from ``SpokenkitError``,
the one class ``spokenkit.cli.main`` reports as a usage error, and keeps the
builtin base it had before that root existed."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import spokenkit
from spokenkit.core import SpokenkitError

# Each exception class by module and name, with the builtin base it keeps.
BUILTIN_BASES = {
    "spokenkit.cli.CliError": None,
    "spokenkit.core.model.UnknownIdError": LookupError,
    "spokenkit.core.temporal.IncomparableIntervalsError": ValueError,
    "spokenkit.datacat.RegistryError": ValueError,
    "spokenkit.datacat.RegistryFormatError": ValueError,
    "spokenkit.datacat.UnknownCategoryError": LookupError,
    "spokenkit.featstruct.TagsetError": ValueError,
    "spokenkit.featstruct.UnknownTagError": LookupError,
    "spokenkit.tei.conventions.ConventionRuleError": ValueError,
    "spokenkit.tei.parser.TeiParseError": ValueError,
    "spokenkit.tei.writer.TeiSerializeError": ValueError,
    "spokenkit.tier.TierParseError": ValueError,
    "spokenkit.tier.TierSerializeError": ValueError,
}


def defined_exceptions() -> dict[str, type]:
    """Every BaseException subclass defined (not imported) by a spokenkit module."""
    found = {}
    for info in pkgutil.walk_packages(spokenkit.__path__, "spokenkit."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (
                inspect.isclass(value)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                found[f"{module.__name__}.{name}"] = value
    return found


def test_every_exception_class_derives_from_the_root():
    found = defined_exceptions()
    assert found.pop("spokenkit.core.model.SpokenkitError") is SpokenkitError
    assert sorted(found) == sorted(BUILTIN_BASES)
    for name, cls in found.items():
        assert issubclass(cls, SpokenkitError), name


def test_every_exception_class_keeps_its_builtin_base():
    found = defined_exceptions()
    for name, base in BUILTIN_BASES.items():
        bases = {b for b in (ValueError, LookupError) if issubclass(found[name], b)}
        assert bases == ({base} if base else set()), name
