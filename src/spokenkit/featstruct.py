"""Feature structures and tagset libraries.

A feature structure maps feature names to typed values (binary, symbol,
numeric, string, or a nested structure). Structures support equality,
subsumption and unification; tagset libraries bundle elementary feature
declarations and tags that expand to full structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Mapping, Union

from spokenkit.core.model import SpokenkitError


@dataclass(frozen=True)
class Binary:
    value: bool


@dataclass(frozen=True)
class Symbol:
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("symbol requires a non-empty name")


@dataclass(frozen=True)
class Numeric:
    value: Union[int, float, Decimal]


@dataclass(frozen=True)
class Str:
    text: str


@dataclass(frozen=True)
class FeatureStructure:
    """An optionally typed set of feature-value pairs; one value per name.

    Equality is structural over type and features.
    """

    features: Mapping[str, "FSValue"] = field(default_factory=dict)
    type: str | None = None

    def __post_init__(self) -> None:
        for name in self.features:
            if not name:
                raise ValueError("feature names must be non-empty")

    def get(self, name: str) -> "FSValue | None":
        return self.features.get(name)

    def __len__(self) -> int:
        return len(self.features)


FSValue = Union[Binary, Symbol, Numeric, Str, FeatureStructure]

EMPTY = FeatureStructure()


@dataclass(frozen=True)
class Feature:
    """An elementary named feature-value declaration, e.g. from a library."""

    name: str
    value: FSValue
    id: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("feature requires a non-empty name")


@dataclass(frozen=True)
class UnificationFailure:
    """A clash found during unification: the path plus both offending values."""

    path: tuple[str, ...]
    left: object
    right: object

    @property
    def path_str(self) -> str:
        return "/".join(self.path)

    def __str__(self) -> str:
        where = self.path_str or "(type)"
        return f"unification failed at {where}: {self.left!r} vs {self.right!r}"


def unify(a: FeatureStructure, b: FeatureStructure) -> FeatureStructure | UnificationFailure:
    """Combine two structures; failure is returned as a value, never raised.

    Shared feature names unify recursively for nested structures and by
    exact value equality for atoms; any atom clash or variant mismatch
    yields a failure carrying the clashing path.
    """
    return _unify(a, b, ())


def _unify(a: FeatureStructure, b: FeatureStructure, path: tuple[str, ...]):
    if a.type is not None and b.type is not None and a.type != b.type:
        return UnificationFailure(path, a.type, b.type)
    merged: dict[str, FSValue] = dict(a.features)
    for name, value in b.features.items():
        if name not in merged:
            merged[name] = value
            continue
        ours = merged[name]
        if isinstance(ours, FeatureStructure) and isinstance(value, FeatureStructure):
            result = _unify(ours, value, path + (name,))
            if isinstance(result, UnificationFailure):
                return result
            merged[name] = result
        elif ours != value:
            # Covers atom clashes and variant mismatches alike: dataclass
            # equality is False across different value kinds.
            return UnificationFailure(path + (name,), ours, value)
    return FeatureStructure(merged, type=a.type or b.type)


def subsumes(a: FeatureStructure, b: FeatureStructure) -> bool:
    """True iff every feature path and value of a occurs identically in b."""
    if a.type is not None and a.type != b.type:
        return False
    for name, value in a.features.items():
        other = b.features.get(name)
        if other is None:
            return False
        if isinstance(value, FeatureStructure):
            if not isinstance(other, FeatureStructure) or not subsumes(value, other):
                return False
        elif value != other:
            return False
    return True


def atom_value(value: FSValue) -> object:
    """The plain Python payload of an atomic value."""
    if isinstance(value, Binary):
        return value.value
    if isinstance(value, Symbol):
        return value.name
    if isinstance(value, Numeric):
        return value.value
    if isinstance(value, Str):
        return value.text
    raise TypeError(f"not an atomic value: {value!r}")


def flatten(fs: FeatureStructure) -> list[tuple[str, object]]:
    """All atomic leaves as (slash-joined path, plain value) pairs.

    Enumeration is depth-first with feature names sorted at each level, so
    the order is deterministic regardless of construction order.
    """
    out: list[tuple[str, object]] = []
    _flatten_into(fs, "", out)
    return out


def _flatten_into(node: FeatureStructure, prefix: str, out: list[tuple[str, object]]) -> None:
    for name in sorted(node.features):
        value = node.features[name]
        path = f"{prefix}/{name}" if prefix else name
        if isinstance(value, FeatureStructure):
            _flatten_into(value, path, out)
        else:
            out.append((path, atom_value(value)))


class TagsetError(SpokenkitError, ValueError):
    """A tagset library declaration is inconsistent."""


class UnknownTagError(SpokenkitError, LookupError):
    def __init__(self, ref: str):
        super().__init__(f"unknown tag {ref!r}")
        self.ref = ref


@dataclass(frozen=True)
class TagDecl:
    """A tag declared as a list of feature references, before expansion."""

    id: str
    feats: tuple[str, ...]


@dataclass(frozen=True)
class TagDefinition:
    """A tag of the tagset: its feature references and the expanded structure."""

    id: str
    feats: tuple[str, ...]
    expanded: FeatureStructure


@dataclass(frozen=True)
class TagsetLibrary:
    feature_lib: Mapping[str, Feature]
    tag_lib: Mapping[str, TagDefinition]

    def tag_ids(self) -> tuple[str, ...]:
        return tuple(self.tag_lib)


def strip_ref(ref: str) -> str:
    """Drop one leading '#' from a reference."""
    return ref[1:] if ref.startswith("#") else ref


def build_library(
    feature_decls: Iterable[Feature], tag_decls: Iterable[TagDecl]
) -> TagsetLibrary:
    """Resolve declarations into a library, expanding every tag eagerly.

    Raises TagsetError naming the offending id on duplicate identifiers,
    dangling feature references, or a feature name bound twice in one tag; a
    feature with a missing or empty identifier is refused too.
    """
    feature_lib: dict[str, Feature] = {}
    for decl in feature_decls:
        if not decl.id:
            raise TagsetError(f"library feature {decl.name!r} has no identifier")
        fid = strip_ref(decl.id)
        if fid in feature_lib:
            raise TagsetError(f"duplicate identifier {fid!r}")
        feature_lib[fid] = decl

    tag_lib: dict[str, TagDefinition] = {}
    for decl in tag_decls:
        tag_id = strip_ref(decl.id)
        if tag_id in feature_lib or tag_id in tag_lib:
            raise TagsetError(f"duplicate identifier {tag_id!r}")
        features: dict[str, FSValue] = {}
        refs: list[str] = []
        for ref in decl.feats:
            fid = strip_ref(ref)
            feature = feature_lib.get(fid)
            if feature is None:
                raise TagsetError(f"tag {tag_id!r} references unknown feature {fid!r}")
            if feature.name in features:
                raise TagsetError(f"tag {tag_id!r} binds feature {feature.name!r} more than once")
            features[feature.name] = feature.value
            refs.append(fid)
        tag_lib[tag_id] = TagDefinition(tag_id, tuple(refs), FeatureStructure(features))
    return TagsetLibrary(feature_lib, tag_lib)


def resolve_tag(lib: TagsetLibrary, ref: str) -> FeatureStructure:
    """Look up a tag by reference (a leading '#' is accepted and stripped).

    Lookups are exact and case-sensitive.
    """
    tag = lib.tag_lib.get(strip_ref(ref))
    if tag is None:
        raise UnknownTagError(ref)
    return tag.expanded
