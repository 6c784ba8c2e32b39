from __future__ import annotations

import pytest

from nsra import compile_text, halstead_nsra, registry as registry_module
from nsra.errors import (
    BadTemplate,
    ConfigParseError,
    DuplicateAttribute,
    UnknownAttribute,
)
from nsra.registry import (
    ORDINAL_SLOT,
    AttributeRule,
    CallStep,
    Registry,
    builtin_crypto_profile,
    load_profile,
    lookup_attribute,
)


@pytest.fixture(scope="module")
def builtin() -> Registry:
    return builtin_crypto_profile()


def rendered(reg: Registry, word: str, ordinal_index: int | None = None) -> str:
    return ".".join(lookup_attribute(word, reg).render_steps(ordinal_index))


def test_name_rule(builtin):
    rule = lookup_attribute("name", builtin)
    assert rule.render_steps() == ("getName()",)
    assert rule.result_kind == "string"


def test_type_rule_is_object_valued(builtin):
    rule = lookup_attribute("type", builtin)
    assert rule.render_steps() == ("getType()",)
    assert rule.result_kind == "object"


def test_argument_rule_has_ordinal_slot(builtin):
    rule = lookup_attribute("argument", builtin)
    assert rule.has_ordinal_slot
    assert rule.render_steps(1) == ("getArgument(1)",)
    assert rule.result_kind == "object"


def test_method_rule(builtin):
    assert rendered(builtin, "method") == "getMethod()"


def test_algorithm_template(builtin):
    assert rendered(builtin, "algorithm") == 'toString().replaceAll("\\"", "").splitAt("/", 0)'


def test_mode_index_is_one(builtin):
    assert 'splitAt("/", 1)' in rendered(builtin, "mode")


def test_padding_index_matches_split_oracle(builtin):
    # Independent oracle: the transformation string's third slash-separated
    # part is the padding, so the template must take index 2.
    transformation = "AES/ECB/PKCS5Padding"
    assert transformation.split("/")[2] == "PKCS5Padding"
    assert 'splitAt("/", 2)' in rendered(builtin, "padding")


def test_builtin_aliases(builtin):
    assert builtin.resolve_alias("PublicKey") == "java.security.PublicKey"
    assert builtin.resolve_alias("PrivateKey") == "java.security.PrivateKey"
    assert builtin.resolve_alias("Certificate") == "java.security.cert.Certificate"


def test_unknown_alias_passes_through(builtin):
    assert builtin.resolve_alias("SecretKeySpec") == "SecretKeySpec"


def test_builtin_type_nouns(builtin):
    assert builtin.ql_type_names["class"] == "Class"
    assert builtin.ql_type_names["variable"] == "Variable"
    assert builtin.ql_type_names["method access"] == "MethodAccess"


def test_unknown_attribute(builtin):
    with pytest.raises(UnknownAttribute) as info:
        lookup_attribute("colour", builtin)
    assert info.value.known == tuple(sorted(builtin.rules))


def test_empty_config_is_identity(builtin):
    overlaid = load_profile("")
    assert overlaid.rules == builtin.rules
    assert overlaid.type_aliases == builtin.type_aliases
    assert overlaid.ql_type_names == builtin.ql_type_names


def test_user_rule_added():
    reg = load_profile("receiver = getReceiverType()")
    rule = lookup_attribute("receiver", reg)
    assert rule.render_steps() == ("getReceiverType()",)
    assert rule.result_kind == "object"


def test_user_rule_shadows_builtin():
    reg = load_profile('mode = toString().replaceAll("\\"", "").splitAt("/", 4)')
    assert 'splitAt("/", 4)' in rendered(reg, "mode")


def test_duplicate_attribute_in_one_file():
    for first in ("receiver", "Receiver"):  # the check runs on the case-folded word
        with pytest.raises(DuplicateAttribute):
            load_profile(f"{first} = getReceiverType()\nreceiver = getOther()")


def test_attribute_words_are_case_insensitive():
    reg = load_profile("Receiver = getReceiverType()")
    out = compile_text('An object of Cipher invokes init. The Receiver of init is "Cipher".', reg)
    assert 'init.getReceiverType().toString() = "Cipher"' in out
    assert out == compile_text('An object of Cipher invokes init. The receiver of init is "Cipher".', reg)


def test_double_ordinal_slot_rejected():
    with pytest.raises(BadTemplate):
        load_profile("bad = getArgument(@ordinal).getOther(@ordinal)")


def test_rule_without_steps_rejected():
    with pytest.raises(BadTemplate, match="template has no calls"):
        AttributeRule("x", (), "string")


def test_rules_compare_by_fields():
    rule = AttributeRule(word="name", steps=(CallStep(name="getName"),), result_kind="string")
    assert rule == lookup_attribute("name", builtin_crypto_profile())
    assert hash(rule) == hash(AttributeRule("name", (CallStep("getName", ()),), "string"))
    assert CallStep("getName") != AttributeRule("getName", (CallStep("getName"),), "string")


def test_malformed_line_rejected():
    with pytest.raises(ConfigParseError) as info:
        load_profile("receiver getReceiverType()")
    assert info.value.line == 1


def test_unknown_section_rejected():
    with pytest.raises(ConfigParseError):
        load_profile("[surprises]\nx = y")


def test_alias_and_type_sections():
    reg = load_profile(
        """
        [aliases]
        Key = java.security.Key
        [types]
        field = Field
        """
    )
    assert reg.resolve_alias("Key") == "java.security.Key"
    assert reg.ql_type_names["field"] == "Field"


def test_comments_and_blank_lines_ignored():
    reg = load_profile("# nothing here\n\nreceiver = getReceiverType()  # trailing\n")
    assert "receiver" in reg.rules


def test_overlay_associativity_disjoint_profiles():
    a = "alpha = getAlpha()"
    b = "beta = getBeta()\n[aliases]\nFoo = bar.Foo"
    sequential = load_profile(b, base=load_profile(a))
    concatenated = load_profile(a + "\n" + b)
    assert sequential.rules == concatenated.rules
    assert sequential.type_aliases == concatenated.type_aliases


def test_alias_resolution_pure(builtin):
    assert builtin.resolve_alias("PublicKey") == builtin.resolve_alias("PublicKey")


def test_ordinal_slot_render_requires_index(builtin):
    rule = lookup_attribute("argument", builtin)
    with pytest.raises(ValueError):
        rule.render_steps(None)


def test_string_args_escaped_in_render():
    reg = load_profile('quoted = replaceAll("\\"", "x")')
    assert rendered(reg, "quoted") == 'replaceAll("\\"", "x")'


def test_template_literal_int_and_ordinal_mix():
    reg = load_profile('pick = getArgument(@ordinal).splitAt("/", 3)')
    rule = lookup_attribute("pick", reg)
    assert rule.render_steps(0) == ("getArgument(0)", 'splitAt("/", 3)')
    assert ORDINAL_SLOT in rule.steps[0].args


def test_builtin_templates_appear_in_reference_outputs(builtin, golden_dir):
    """Every built-in rule's rendered template shows up verbatim in the
    normalized reference outputs (padding excepted: its index is fixed by
    the transformation layout, not by any reference text)."""
    from nsra.qlgen import normalize_ql

    corpus = "".join(
        normalize_ql((golden_dir / f"{name}.ql").read_text(encoding="utf-8"))
        for name in ("example_invoke", "task1", "task2", "task3")
    )
    for word, rule in builtin.rules.items():
        if word == "padding":
            continue
        index = 0 if rule.has_ordinal_slot else None
        assert ".".join(rule.render_steps(index)) in corpus, word


def test_builtin_profile_is_read_only():
    builtin = builtin_crypto_profile()
    for maps in (builtin.rules, builtin.type_aliases, builtin.ql_type_names):
        with pytest.raises(TypeError):
            maps["receiver"] = None  # type: ignore[index]
    before = (dict(builtin.rules), dict(builtin.type_aliases), dict(builtin.ql_type_names))
    load_profile("receiver = getReceiverType()\nname = getOther()\n[aliases]\nKey = a.Key\n[types]\nfield = Field")
    after = builtin_crypto_profile()
    assert after is builtin
    assert (dict(after.rules), dict(after.type_aliases), dict(after.ql_type_names)) == before


def test_builtin_profile_parsed_once_per_process(monkeypatch):
    parse = registry_module.load_profile
    parsed: list[str] = []

    def counting_load_profile(config_text, base=None):
        parsed.append(config_text)
        return parse(config_text, base)

    monkeypatch.setattr(registry_module, "load_profile", counting_load_profile)
    builtin_crypto_profile.cache_clear()
    for _ in range(2):
        compile_text("An object of Cipher invokes init.")
        halstead_nsra("An object of Cipher invokes init.")
        parse("receiver = getReceiverType()", base=None)
    assert parsed == [registry_module._BUILTIN_PROFILE]
