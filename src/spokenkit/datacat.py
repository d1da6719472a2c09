"""Data-category registry: persistent identifiers and value domains.

The registry is a deliberately flat marketplace of descriptors. Each category
carries a persistent identifier, an optional broader (generic) category, and
for complex categories a conceptual domain of permitted values, optionally
narrowed per language. ``validate --registry`` checks each qualifier's value
against its feature's domain; broader links are read and checked for cycles
only.
"""

from __future__ import annotations

from typing import Mapping

from spokenkit.core.model import (
    SpokenkitError,
    ValueTuple,
    checked_replace,
    decode_utf8,
    value_eq,
    value_ne,
)

COMPLEX = "complex"
SIMPLE = "simple"

OK = "ok"
OUT_OF_DOMAIN = "outOfDomain"
LANGUAGE_RESTRICTED = "languageRestricted"


class RegistryError(SpokenkitError, ValueError):
    """A registration violates the registry's invariants."""


class UnknownCategoryError(SpokenkitError, LookupError):
    def __init__(self, pid: str):
        super().__init__(f"unknown data category {pid!r}")
        self.pid = pid


class DataCategory(ValueTuple):
    """A registered semantic descriptor.

    Complex categories are place-holders (features) and may declare a
    conceptual domain; simple categories are values and may not.
    ``language_restrictions`` defaults to a new empty dict.
    """

    pid: str
    kind: str
    name: str
    broader: str | None = None
    conceptual_domain: tuple[str, ...] | None = None
    language_restrictions: Mapping[str, tuple[str, ...]] | None = None  # None: a new empty dict

    def __new__(
        cls,
        pid: str,
        kind: str,
        name: str,
        broader: str | None = None,
        conceptual_domain: tuple[str, ...] | None = None,
        language_restrictions: Mapping[str, tuple[str, ...]] | None = None,
    ) -> DataCategory:
        if kind not in (COMPLEX, SIMPLE):
            raise RegistryError(f"category {pid!r}: kind must be 'complex' or 'simple'")
        if kind == SIMPLE and conceptual_domain is not None:
            raise RegistryError(f"simple category {pid!r} cannot declare a conceptual domain")
        if language_restrictions is None:
            language_restrictions = {}
        elif language_restrictions:
            domain = set(conceptual_domain or ())
            for lang, subset in language_restrictions.items():
                extra = set(subset) - domain
                if extra:
                    raise RegistryError(
                        f"category {pid!r}: {lang!r} restriction is not a subset "
                        f"of the conceptual domain ({', '.join(sorted(extra))})"
                    )
        fields = (pid, kind, name, broader, conceptual_domain, language_restrictions)
        return tuple.__new__(cls, fields)

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    _replace = checked_replace


class Registry:
    """Single-writer store of data categories; queries are pure."""

    def __init__(self) -> None:
        self.categories: dict[str, DataCategory] = {}
        self.name_index: dict[str, str] = {}

    def __len__(self) -> int:
        """The number of categories; ``perfbench``'s tracer counts them with ``len``."""
        return len(self.categories)

    def get(self, pid: str) -> DataCategory:
        cat = self.categories.get(pid)
        if cat is None:
            raise UnknownCategoryError(pid)
        return cat

    def by_name(self, name: str) -> DataCategory | None:
        pid = self.name_index.get(name)
        return self.categories.get(pid) if pid is not None else None

    def register(self, cat: DataCategory) -> "Registry":
        """Add one category; duplicate pids and broader cycles are rejected."""
        if cat.pid in self.categories:
            raise RegistryError(f"duplicate persistent identifier {cat.pid!r}")
        seen = {cat.pid}
        cur = cat.broader
        while cur is not None:
            if cur in seen:
                raise RegistryError(f"category {cat.pid!r} would close a broader cycle at {cur!r}")
            seen.add(cur)
            parent = self.categories.get(cur)
            cur = parent.broader if parent is not None else None
        self.categories[cat.pid] = cat
        self.name_index.setdefault(cat.name, cat.pid)
        return self

    def validate_value(self, feature: str, value: str, language: str | None = None) -> str:
        """Check a value pid against a complex feature's domain and language rules.

        A feature without a declared domain constrains nothing. Restrictions
        only narrow: a value passing a language check also passes the plain
        domain check.
        """
        cat = self.get(feature)
        if cat.kind != COMPLEX:
            raise RegistryError(f"category {feature!r} is not complex; it cannot take values")
        if cat.conceptual_domain is None:
            return OK
        if value not in cat.conceptual_domain:
            return OUT_OF_DOMAIN
        if language is not None:
            restriction = cat.language_restrictions.get(language)
            if restriction is not None and value not in restriction:
                return LANGUAGE_RESTRICTED
        return OK


class RegistryFormatError(SpokenkitError, ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def load_registry(data: str | bytes) -> Registry:
    """Read the line-oriented registry format.

    ``pid<TAB>kind<TAB>name<TAB>broader-or-'-'<TAB>domain-or-'-'[<TAB>lang=subset;...]``
    with '#' comment lines and blank lines, which are skipped but still
    counted in line numbers. A leading UTF-8 byte-order mark of bytes input is
    dropped. Each language takes at most one restriction. A bad line raises
    :class:`RegistryFormatError` with its line number.
    """
    data = decode_utf8(data, RegistryFormatError)
    reg = Registry()
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (5, 6):
            raise RegistryFormatError(line_no, f"expected 5 or 6 tab-separated fields, got {len(fields)}")
        pid, kind, name, broader, domain = fields[:5]
        restrictions: dict[str, tuple[str, ...]] = {}
        if len(fields) == 6:
            for part in fields[5].split(";"):
                lang, eq, subset = part.partition("=")
                if not lang or eq != "=":
                    raise RegistryFormatError(line_no, f"malformed language restriction {part!r}")
                if lang in restrictions:
                    raise RegistryFormatError(line_no, f"language {lang!r} is restricted twice")
                restrictions[lang] = tuple(subset.split(",")) if subset else ()
        try:
            cat = DataCategory(
                pid=pid,
                kind=kind,
                name=name,
                broader=None if broader == "-" else broader,
                conceptual_domain=None if domain == "-" else tuple(domain.split(",")),
                language_restrictions=restrictions,
            )
            reg.register(cat)
        except RegistryError as exc:
            raise RegistryFormatError(line_no, str(exc)) from exc
    return reg
