from __future__ import annotations

import pytest

from spokenkit.datacat import (
    LANGUAGE_RESTRICTED,
    OK,
    OUT_OF_DOMAIN,
    DataCategory,
    Registry,
    RegistryError,
    RegistryFormatError,
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
    assert PID + "grammaticalGender" in reg.categories


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


def test_registry_rejects_malformed_line():
    with pytest.raises(RegistryFormatError) as exc:
        load_registry("p:a\tsimple\n")
    assert exc.value.line_no == 1


def test_registry_rejects_bad_restriction_syntax():
    with pytest.raises(RegistryFormatError):
        load_registry("p:a\tcomplex\ta\t-\tp:x\tnotapair\n")


def test_a_name_registered_twice_finds_the_first_category():
    reg = Registry()
    reg.register(DataCategory(pid="p:1", kind="simple", name="dup"))
    reg.register(DataCategory(pid="p:2", kind="simple", name="dup"))
    assert reg.by_name("dup").pid == "p:1"
    assert len(reg) == 2


def test_the_broader_column_is_read(registry):
    assert registry.get(PID + "properNoun").broader == PID + "noun"
    assert registry.get(PID + "noun").broader is None


def test_comment_and_blank_lines_are_skipped_but_counted():
    assert list(load_registry("# c\n\np:a\tsimple\ta\t-\t-\n").categories) == ["p:a"]
    with pytest.raises(RegistryFormatError) as exc:
        load_registry("# c\n\np:a\tsimple\n")
    assert exc.value.line_no == 3


def test_a_byte_order_mark_is_not_part_of_the_first_pid():
    reg = load_registry(b"\xef\xbb\xbfp:g\tsimple\tg\t-\t-\n")
    assert list(reg.categories) == ["p:g"]
    assert reg.by_name("g").pid == "p:g"


def test_a_language_restricted_twice_is_refused():
    raw = "p:a\tsimple\ta\t-\t-\np:g\tcomplex\tg\t-\tp:a,p:b\tde=p:a;fr=p:a;fr=p:b\n"
    with pytest.raises(RegistryFormatError) as exc:
        load_registry(raw)
    assert exc.value.line_no == 2
    assert str(exc.value) == "line 2: language 'fr' is restricted twice"
