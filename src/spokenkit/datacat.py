"""Data-category registry: persistent identifiers and reference semantics.

The registry is a deliberately flat marketplace of descriptors. Each category
carries a persistent identifier, an optional broader (generic) category, and
for complex categories a conceptual domain of permitted values, optionally
narrowed per language. Annotations referencing the same categories are
semantically equivalent; broader links make coarser and finer annotations
comparable.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from spokenkit.core.model import (
    CategoryRef,
    Qualifier,
    SpokenkitError,
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

EQUAL = "equal"
Q1_BROADER_VALUE = "q1BroaderValue"
Q2_BROADER_VALUE = "q2BroaderValue"
DISJOINT = "disjoint"


class RegistryError(SpokenkitError, ValueError):
    """A registration violates the registry's invariants."""


class UnknownCategoryError(SpokenkitError, LookupError):
    def __init__(self, pid: str):
        super().__init__(f"unknown data category {pid!r}")
        self.pid = pid


class _DataCategoryFields(NamedTuple):
    pid: str
    kind: str
    name: str
    broader: str | None = None
    conceptual_domain: tuple[str, ...] | None = None
    language_restrictions: Mapping[str, tuple[str, ...]] | None = None  # None: a new empty dict


class DataCategory(_DataCategoryFields):
    """A registered semantic descriptor.

    Complex categories are place-holders (features) and may declare a
    conceptual domain; simple categories are values and may not.
    ``language_restrictions`` defaults to a new empty dict.
    """

    __slots__ = ()

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


class Equivalence(NamedTuple):
    """Outcome of a semantic equivalence check; truthiness is the verdict."""

    equivalent: bool
    reason: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return self.equivalent


class Comparability(NamedTuple):
    """Outcome of a granularity comparison between two qualifiers."""

    outcome: str
    reason: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


# Registry file layout records; comments and blank lines round-trip.
_REC_COMMENT = "comment"
_REC_BLANK = "blank"
_REC_CATEGORY = "category"


class Registry:
    """Single-writer store of data categories; queries are pure."""

    def __init__(self) -> None:
        self.categories: dict[str, DataCategory] = {}
        self.name_index: dict[str, str] = {}
        self._records: list[tuple] = []

    def __contains__(self, pid: str) -> bool:
        return pid in self.categories

    def __len__(self) -> int:
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
        self._records.append((_REC_CATEGORY, cat.pid))
        return self

    def is_subcategory(self, a: str, b: str) -> bool:
        """True iff b is reachable from a via broader links (reflexively)."""
        self.get(b)
        cur: str | None = a
        visited: set[str] = set()
        while cur is not None and cur not in visited:
            if cur == b:
                return True
            visited.add(cur)
            cat = self.categories.get(cur)
            if cat is None:
                raise UnknownCategoryError(cur)
            cur = cat.broader
        return False

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

    def equivalent(self, q1: Qualifier, q2: Qualifier) -> Equivalence:
        """Two qualifiers are equivalent iff their feature and value pids match.

        Plain-name qualifiers never take part: without a registry reference
        there is nothing to compare.
        """
        refs = (q1.feature, q1.value, q2.feature, q2.value)
        if not all(isinstance(r, CategoryRef) for r in refs):
            return Equivalence(False, "unmappedName")
        if q1.feature.pid != q2.feature.pid:
            return Equivalence(False, "featureMismatch")
        if q1.value.pid != q2.value.pid:
            return Equivalence(False, "valueMismatch")
        return Equivalence(True)

    def comparable(self, q1: Qualifier, q2: Qualifier) -> Comparability:
        """Classify two same-feature qualifiers by value granularity."""
        refs = (q1.feature, q1.value, q2.feature, q2.value)
        if not all(isinstance(r, CategoryRef) for r in refs):
            return Comparability(DISJOINT, "unmappedName")
        if q1.feature.pid != q2.feature.pid:
            return Comparability(DISJOINT, "featureMismatch")
        v1 = q1.value.pid
        v2 = q2.value.pid
        if v1 == v2:
            return Comparability(EQUAL)
        try:
            if self.is_subcategory(v2, v1):
                return Comparability(Q1_BROADER_VALUE)
            if self.is_subcategory(v1, v2):
                return Comparability(Q2_BROADER_VALUE)
        except UnknownCategoryError as exc:
            return Comparability(DISJOINT, f"unknownCategory:{exc.pid}")
        return Comparability(DISJOINT)


class RegistryFormatError(SpokenkitError, ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def load_registry(data: str | bytes) -> Registry:
    """Read the line-oriented registry format.

    ``pid<TAB>kind<TAB>name<TAB>broader-or-'-'<TAB>domain-or-'-'[<TAB>lang=subset;...]``
    with '#' comment lines. Valid files round-trip bit-exactly through
    :func:`dump_registry`.
    """
    data = decode_utf8(data, RegistryFormatError)
    reg = Registry()
    for line_no, line in enumerate(data.splitlines(), start=1):
        if line.startswith("#"):
            reg._records.append((_REC_COMMENT, line))
            continue
        if not line:
            reg._records.append((_REC_BLANK,))
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


def dump_registry(reg: Registry) -> str:
    """Serialise a registry, preserving comment and blank lines in place."""
    lines: list[str] = []
    for record in reg._records:
        if record[0] == _REC_COMMENT:
            lines.append(record[1])
        elif record[0] == _REC_BLANK:
            lines.append("")
        else:
            lines.append(_category_line(reg.categories[record[1]]))
    return "".join(line + "\n" for line in lines)


def _category_line(cat: DataCategory) -> str:
    fields = [
        cat.pid,
        cat.kind,
        cat.name,
        cat.broader if cat.broader is not None else "-",
        ",".join(cat.conceptual_domain) if cat.conceptual_domain is not None else "-",
    ]
    if cat.language_restrictions:
        fields.append(
            ";".join(
                f"{lang}={','.join(subset)}" for lang, subset in cat.language_restrictions.items()
            )
        )
    return "\t".join(fields)


def build_registry(categories: Iterable[DataCategory]) -> Registry:
    reg = Registry()
    for cat in categories:
        reg.register(cat)
    return reg
