from __future__ import annotations

import pytest

from spokenkit.core import CategoryRef, Qualifier
from spokenkit.datacat import (
    DISJOINT,
    EQUAL,
    LANGUAGE_RESTRICTED,
    OK,
    OUT_OF_DOMAIN,
    Q1_BROADER_VALUE,
    Q2_BROADER_VALUE,
    DataCategory,
    Registry,
    RegistryError,
    RegistryFormatError,
    UnknownCategoryError,
    build_registry,
    dump_registry,
    load_registry,
)
from tests.conftest import fixture_bytes

PID = "http://dcr.example.org/"


def gender_category():
    return DataCategory(
        pid=PID + "grammaticalGender",
        kind="complex",
        name="grammaticalGender",
        conceptual_domain=(PID + "masculine", PID + "feminine", PID + "neuter"),
        language_restrictions={"fr": (PID + "masculine", PID + "feminine")},
    )


def simple(name, broader=None):
    return DataCategory(pid=PID + name, kind="simple", name=name, broader=broader)


@pytest.fixture
def registry():
    return load_registry(fixture_bytes("registry.tsv"))


def test_register_gender_with_french_restriction():
    reg = Registry()
    reg.register(gender_category())
    assert PID + "grammaticalGender" in reg


def test_register_duplicate_pid():
    reg = Registry()
    reg.register(simple("noun"))
    with pytest.raises(RegistryError):
        reg.register(simple("noun"))


def test_restriction_must_be_domain_subset():
    with pytest.raises(RegistryError):
        DataCategory(
            pid=PID + "gender",
            kind="complex",
            name="gender",
            conceptual_domain=(PID + "masculine",),
            language_restrictions={"fr": (PID + "feminine",)},
        )


def test_simple_category_cannot_have_domain():
    with pytest.raises(RegistryError):
        DataCategory(pid=PID + "x", kind="simple", name="x", conceptual_domain=(PID + "y",))


def test_broader_cycle_rejected():
    reg = Registry()
    reg.register(simple("a", broader=PID + "b"))
    with pytest.raises(RegistryError):
        reg.register(simple("b", broader=PID + "a"))


def test_is_subcategory_through_broader_link(registry):
    assert registry.is_subcategory(PID + "properNoun", PID + "noun")


def test_is_subcategory_is_not_symmetric(registry):
    assert not registry.is_subcategory(PID + "noun", PID + "properNoun")


def test_is_subcategory_is_reflexive(registry):
    assert registry.is_subcategory(PID + "noun", PID + "noun")


def test_is_subcategory_unknown_pid(registry):
    with pytest.raises(UnknownCategoryError):
        registry.is_subcategory(PID + "noun", PID + "missing")


def test_validate_value_language_restricted(registry):
    verdict = registry.validate_value(PID + "grammaticalGender", PID + "neuter", "fr")
    assert verdict == LANGUAGE_RESTRICTED


def test_validate_value_allowed_by_restriction(registry):
    assert registry.validate_value(PID + "grammaticalGender", PID + "feminine", "fr") == OK


def test_validate_value_without_language(registry):
    assert registry.validate_value(PID + "grammaticalGender", PID + "neuter") == OK


def test_validate_value_out_of_domain(registry):
    assert registry.validate_value(PID + "grammaticalGender", PID + "noun") == OUT_OF_DOMAIN


def test_validate_value_rejects_simple_feature(registry):
    with pytest.raises(RegistryError):
        registry.validate_value(PID + "noun", PID + "neuter")


def test_restrictions_only_narrow(registry):
    gender = PID + "grammaticalGender"
    domain = registry.get(gender).conceptual_domain
    for value in domain:
        for language in (None, "fr", "de"):
            if registry.validate_value(gender, value, language) == OK and language is not None:
                assert registry.validate_value(gender, value) == OK


def q(feature, value):
    return Qualifier(CategoryRef(PID + feature), CategoryRef(PID + value))


def test_equivalent_same_pids(registry):
    assert registry.equivalent(q("grammaticalGender", "feminine"), q("grammaticalGender", "feminine"))


def test_equivalent_different_values(registry):
    result = registry.equivalent(q("grammaticalGender", "feminine"), q("grammaticalGender", "masculine"))
    assert not result
    assert result.reason == "valueMismatch"


def test_equivalent_plain_name_never_matches(registry):
    plain = Qualifier("gender", CategoryRef(PID + "feminine"))
    result = registry.equivalent(plain, q("grammaticalGender", "feminine"))
    assert not result
    assert result.reason == "unmappedName"


def test_equivalent_is_an_equivalence_relation(registry):
    qualifiers = [
        q("grammaticalGender", "feminine"),
        q("grammaticalGender", "feminine"),
        q("grammaticalGender", "masculine"),
        q("partOfSpeech", "noun"),
    ]
    for a in qualifiers:
        assert registry.equivalent(a, a)
        for b in qualifiers:
            assert bool(registry.equivalent(a, b)) == bool(registry.equivalent(b, a))
            for c in qualifiers:
                if registry.equivalent(a, b) and registry.equivalent(b, c):
                    assert registry.equivalent(a, c)


def test_comparable_broader_value(registry):
    result = registry.comparable(q("partOfSpeech", "noun"), q("partOfSpeech", "properNoun"))
    assert result.outcome == Q1_BROADER_VALUE
    flipped = registry.comparable(q("partOfSpeech", "properNoun"), q("partOfSpeech", "noun"))
    assert flipped.outcome == Q2_BROADER_VALUE


def test_comparable_identical_values(registry):
    assert registry.comparable(q("partOfSpeech", "noun"), q("partOfSpeech", "noun")).outcome == EQUAL


def test_comparable_sibling_values_disjoint(registry):
    assert registry.comparable(q("partOfSpeech", "noun"), q("partOfSpeech", "verb")).outcome == DISJOINT


def test_comparable_feature_mismatch(registry):
    result = registry.comparable(q("partOfSpeech", "noun"), q("grammaticalGender", "feminine"))
    assert result.outcome == DISJOINT
    assert result.reason == "featureMismatch"


def test_registry_file_round_trip_is_bit_exact():
    raw = fixture_bytes("registry.tsv").decode("utf-8")
    assert dump_registry(load_registry(raw)) == raw


def test_registry_round_trip_preserves_comments_and_blanks():
    raw = "# header comment\n\n" + "p:a\tsimple\ta\t-\t-\n"
    assert dump_registry(load_registry(raw)) == raw


def test_registry_rejects_malformed_line():
    with pytest.raises(RegistryFormatError) as exc:
        load_registry("p:a\tsimple\n")
    assert exc.value.line_no == 1


def test_registry_rejects_bad_restriction_syntax():
    with pytest.raises(RegistryFormatError):
        load_registry("p:a\tcomplex\ta\t-\tp:x\tnotapair\n")


def test_build_registry_from_iterable():
    reg = build_registry([simple("noun"), simple("properNoun", broader=PID + "noun")])
    assert reg.is_subcategory(PID + "properNoun", PID + "noun")


def test_a_name_registered_twice_finds_the_first_category():
    reg = Registry()
    reg.register(DataCategory(pid="p:1", kind="simple", name="dup"))
    reg.register(DataCategory(pid="p:2", kind="simple", name="dup"))
    assert reg.by_name("dup").pid == "p:1"
    assert len(reg) == 2


def test_is_subcategory_is_transitive():
    reg = build_registry(
        [
            simple("entity"),
            simple("noun", broader=PID + "entity"),
            simple("properNoun", broader=PID + "noun"),
        ]
    )
    assert reg.is_subcategory(PID + "properNoun", PID + "noun")
    assert reg.is_subcategory(PID + "noun", PID + "entity")
    assert reg.is_subcategory(PID + "properNoun", PID + "entity")
