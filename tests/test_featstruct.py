from __future__ import annotations

import itertools
import random

import pytest

from spokenkit.featstruct import (
    EMPTY,
    Binary,
    Feature,
    FeatureStructure,
    Numeric,
    Str,
    Symbol,
    TagDecl,
    TagsetError,
    UnificationFailure,
    UnknownTagError,
    build_library,
    flatten,
    resolve_tag,
    subsumes,
    unify,
)
from tests.conftest import cyclic_garbage


def fs(**features):
    return FeatureStructure({name: Symbol(value) for name, value in features.items()})


MORPH = FeatureStructure(
    {
        "partOfSpeech": Symbol("noun"),
        "grammaticalGender": Symbol("masculine"),
        "grammaticalNumber": Symbol("plural"),
    },
    type="morphosyntacticAnnotation",
)


def test_unify_disjoint_union():
    result = unify(fs(partOfSpeech="noun"), fs(grammaticalGender="masculine"))
    assert result == fs(partOfSpeech="noun", grammaticalGender="masculine")


def test_unify_atom_clash_reports_path():
    failure = unify(fs(partOfSpeech="noun"), fs(partOfSpeech="verb"))
    assert isinstance(failure, UnificationFailure)
    assert failure.path_str == "partOfSpeech"
    assert failure.left == Symbol("noun")
    assert failure.right == Symbol("verb")


def test_unify_with_empty_is_identity():
    assert unify(MORPH, EMPTY) == MORPH
    assert unify(EMPTY, MORPH) == MORPH


def test_unify_recurses_into_nested_structures():
    a = FeatureStructure({"agr": FeatureStructure({"num": Symbol("sg")})})
    b = FeatureStructure({"agr": FeatureStructure({"gen": Symbol("f")})})
    merged = unify(a, b)
    assert merged == FeatureStructure(
        {"agr": FeatureStructure({"num": Symbol("sg"), "gen": Symbol("f")})}
    )
    clash = unify(a, FeatureStructure({"agr": FeatureStructure({"num": Symbol("pl")})}))
    assert isinstance(clash, UnificationFailure)
    assert clash.path_str == "agr/num"


def test_unify_variant_mismatch_fails():
    a = FeatureStructure({"x": Symbol("true")})
    b = FeatureStructure({"x": Binary(True)})
    assert isinstance(unify(a, b), UnificationFailure)
    c = FeatureStructure({"x": FeatureStructure({"y": Symbol("z")})})
    assert isinstance(unify(a, c), UnificationFailure)


def test_numeric_equality_is_by_value():
    assert unify(
        FeatureStructure({"n": Numeric(3)}), FeatureStructure({"n": Numeric(3.0)})
    ) == FeatureStructure({"n": Numeric(3)})


def test_type_clash_fails_and_types_merge():
    typed = FeatureStructure({}, type="a")
    other = FeatureStructure({}, type="b")
    assert isinstance(unify(typed, other), UnificationFailure)
    merged = unify(typed, EMPTY)
    assert merged.type == "a"


def test_subsumes_partial_structure():
    assert subsumes(fs(partOfSpeech="noun"), MORPH)


def test_subsumes_is_reflexive():
    assert subsumes(MORPH, MORPH)


def test_subsumes_atom_mismatch():
    assert not subsumes(fs(grammaticalNumber="plural"), fs(grammaticalNumber="singular"))


GENDER_FEATURES = [
    Feature("grammaticalGender", Symbol("feminine"), id="fem"),
    Feature("grammaticalGender", Symbol("masculine"), id="mas"),
    Feature("grammaticalGender", Symbol("neuter"), id="neu"),
]
CATEGORY_FEATURES = [Feature("partOfSpeech", Symbol("commonNoun"), id="NC")]
NUMBER_FEATURES = [Feature("grammaticalNumber", Symbol("singular"), id="sing")]
ALL_FEATURES = CATEGORY_FEATURES + GENDER_FEATURES + NUMBER_FEATURES

NCMS_EXPANSION = FeatureStructure(
    {
        "partOfSpeech": Symbol("commonNoun"),
        "grammaticalGender": Symbol("masculine"),
        "grammaticalNumber": Symbol("singular"),
    }
)


def test_build_library_expands_tags():
    lib = build_library(ALL_FEATURES, [TagDecl("Ncms__", ("#NC", "#mas", "#sing"))])
    assert lib.tag_lib["Ncms__"].expanded == NCMS_EXPANSION
    assert lib.tag_lib["Ncms__"].feats == ("NC", "mas", "sing")


def test_build_library_dangling_reference():
    with pytest.raises(TagsetError) as exc:
        build_library(ALL_FEATURES, [TagDecl("bad", ("#NC", "#xyz"))])
    assert "xyz" in str(exc.value)


def test_build_library_shared_features_across_tags():
    lib = build_library(
        ALL_FEATURES,
        [TagDecl("Ncms__", ("#NC", "#mas", "#sing")), TagDecl("Ncfs__", ("#NC", "#fem", "#sing"))],
    )
    assert lib.tag_lib["Ncms__"].expanded.features["grammaticalGender"] == Symbol("masculine")
    assert lib.tag_lib["Ncfs__"].expanded.features["grammaticalGender"] == Symbol("feminine")
    assert (
        lib.tag_lib["Ncms__"].expanded.features["partOfSpeech"]
        == lib.tag_lib["Ncfs__"].expanded.features["partOfSpeech"]
    )


def test_build_library_duplicate_id():
    with pytest.raises(TagsetError):
        build_library(ALL_FEATURES + [Feature("x", Symbol("y"), id="NC")], [])


def test_build_library_duplicate_feature_name_in_tag():
    with pytest.raises(TagsetError) as exc:
        build_library(ALL_FEATURES, [TagDecl("odd", ("#fem", "#mas"))])
    assert "grammaticalGender" in str(exc.value)


@pytest.fixture
def library():
    return build_library(ALL_FEATURES, [TagDecl("Ncms__", ("#NC", "#mas", "#sing"))])


def test_resolve_tag_with_hash(library):
    assert resolve_tag(library, "#Ncms__") == NCMS_EXPANSION


def test_resolve_tag_bare(library):
    assert resolve_tag(library, "Ncms__") == NCMS_EXPANSION


def test_resolve_tag_is_case_sensitive(library):
    with pytest.raises(UnknownTagError):
        resolve_tag(library, "#NCMS__")


def test_resolve_tag_equals_unify_fold_in_any_order(library):
    tag = library.tag_lib["Ncms__"]
    for order in itertools.permutations(tag.feats):
        acc = EMPTY
        for ref in order:
            feature = library.feature_lib[ref]
            acc = unify(acc, FeatureStructure({feature.name: feature.value}))
            assert isinstance(acc, FeatureStructure)
        assert acc == tag.expanded


def test_flatten_morph_structure():
    assert set(flatten(MORPH)) == {
        ("partOfSpeech", "noun"),
        ("grammaticalGender", "masculine"),
        ("grammaticalNumber", "plural"),
    }


def test_flatten_empty():
    assert flatten(EMPTY) == []


def test_flatten_nested_paths():
    nested = FeatureStructure({"agr": FeatureStructure({"num": Symbol("sg")})})
    assert flatten(nested) == [("agr/num", "sg")]


def test_flatten_leaves_no_reference_cycle():
    nested = FeatureStructure({"agr": FeatureStructure({"num": Symbol("sg")}), "pos": Symbol("n")})
    assert cyclic_garbage(lambda: flatten(nested)) == 0


# ---------------------------------------------------------------- properties

ATOM_NAMES = ["a", "b", "c", "d", "e"]


def random_atom(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return Symbol(rng.choice(["x", "y", "z"]))
    if kind == 1:
        return Binary(rng.random() < 0.5)
    if kind == 2:
        return Numeric(rng.randrange(3))
    return Str(rng.choice(["s", "t"]))


def random_structure(rng: random.Random, depth: int = 0) -> FeatureStructure:
    names = rng.sample(ATOM_NAMES, rng.randint(0, 5))
    features = {}
    for name in names:
        if depth < 2 and rng.random() < 0.3:
            features[name] = random_structure(rng, depth + 1)
        else:
            features[name] = random_atom(rng)
    return FeatureStructure(features)


def value_at(fstruct: FeatureStructure, path: tuple[str, ...]):
    node = fstruct
    for step in path:
        if not isinstance(node, FeatureStructure) or step not in node.features:
            return None
        node = node.features[step]
    return node


def check_unify_properties(a: FeatureStructure, b: FeatureStructure) -> None:
    forward = unify(a, b)
    backward = unify(b, a)
    assert isinstance(forward, UnificationFailure) == isinstance(backward, UnificationFailure)
    if isinstance(forward, UnificationFailure):
        # failure soundness: the reported path really clashes in the inputs
        left = value_at(a, forward.path)
        right = value_at(b, forward.path)
        if forward.path:  # () marks a type clash
            assert left is not None and right is not None
            assert left != right or type(left) is not type(right)
    else:
        assert forward == backward
        assert subsumes(a, forward)
        assert subsumes(b, forward)
    assert unify(a, EMPTY) == a
    assert unify(EMPTY, a) == a


def test_unify_property_suite_small():
    rng = random.Random(20260501)
    for _ in range(500):
        check_unify_properties(random_structure(rng), random_structure(rng))


def test_unify_associativity_where_defined():
    rng = random.Random(424242)
    agreement = 0
    for _ in range(500):
        a, b, c = (random_structure(rng) for _ in range(3))
        ab = unify(a, b)
        bc = unify(b, c)
        left = unify(ab, c) if isinstance(ab, FeatureStructure) else ab
        right = unify(a, bc) if isinstance(bc, FeatureStructure) else bc
        left_ok = isinstance(left, FeatureStructure)
        right_ok = isinstance(right, FeatureStructure)
        assert left_ok == right_ok
        if left_ok:
            assert left == right
            agreement += 1
    assert agreement > 0


def test_subsumes_is_a_partial_order():
    rng = random.Random(77)
    structures = [random_structure(rng) for _ in range(60)]
    for a in structures:
        assert subsumes(a, a)
    for a, b in itertools.combinations(structures, 2):
        if subsumes(a, b) and subsumes(b, a):
            assert a == b
    for a, b, c in itertools.islice(itertools.permutations(structures, 3), 2000):
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)
