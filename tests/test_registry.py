from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsra import compile_text, halstead_nsra, registry as registry_module
from nsra.errors import (
    BadTemplate,
    ConfigParseError,
    DuplicateAttribute,
    SourceError,
    Span,
    UnknownAttribute,
)
from nsra.ir import Chain, Eq, Lit, Var
from nsra.lexer import ORDINALS, STRUCTURE_WORDS
from nsra.parser import QL_RESERVED_WORDS, parse_query
from nsra.qlgen import read_query_text
from nsra.registry import (
    AttributeRule,
    Registry,
    builtin_crypto_profile,
    load_profile,
    lookup_attribute,
)
from nsra.syntax import Basic, Ident, Literal, Prefixed, QueryAst
from front_end_oracle import reference_tokens
from ql_oracle import as_parent


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
    assert rule.slot is not None
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
    assert info.value.span is None
    assert info.value.message == f"unknown attribute 'colour'; known attributes: {', '.join(sorted(builtin.rules))}"


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
    with pytest.raises(ConfigParseError, match="expected 'name = value'"):
        load_profile("x =   # no template")
    with pytest.raises(ConfigParseError, match="expected a call name in template for 'x'"):
        load_profile("x = ()")


def test_rules_compare_by_fields():
    rule = AttributeRule(steps=("getName()",), result_kind="string", slot=None)
    assert rule == lookup_attribute("name", builtin_crypto_profile())
    assert hash(rule) == hash(AttributeRule(("getName()",), "string", None))
    assert rule != AttributeRule(("getName()",), "string", (0, 8))


def test_malformed_line_rejected():
    with pytest.raises(ConfigParseError) as info:
        load_profile("x = f()\n  receiver getReceiverType()")
    assert info.value.span == Span(10, 36)


def test_unknown_section_rejected():
    with pytest.raises(ConfigParseError):
        load_profile("[surprises]\nx = y")


def test_alias_and_type_sections():
    reg = load_profile(
        """
        [aliases]
        Key = java.security.Key
        [types]
        variable = LocalVariableDecl
        """
    )
    assert reg.resolve_alias("Key") == "java.security.Key"
    assert reg.ql_type_names["variable"] == "LocalVariableDecl"


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
    reg = load_profile('quoted = replaceAll("\\"", "x")\nother = f("\\n", "a\\\\b", 007)')
    assert rendered(reg, "quoted") == 'replaceAll("\\"", "x")'
    assert rendered(reg, "other") == 'f("n", "a\\\\b", 7)'  # unescaped, then escaped again


def test_template_literal_int_and_ordinal_mix():
    reg = load_profile('pick = getArgument(@ordinal).splitAt("/", 3)')
    rule = lookup_attribute("pick", reg)
    assert rule.render_steps(0) == ("getArgument(0)", 'splitAt("/", 3)')
    assert rule.steps == ("getArgument()", 'splitAt("/", 3)')
    assert rule.slot == (0, len("getArgument("))


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
        index = 0 if rule.slot is not None else None
        assert ".".join(rule.render_steps(index)) in corpus, word


def test_builtin_profile_is_read_only():
    builtin = builtin_crypto_profile()
    for maps in (builtin.rules, builtin.type_aliases, builtin.ql_type_names):
        with pytest.raises(TypeError):
            maps["receiver"] = None  # type: ignore[index]
    before = (dict(builtin.rules), dict(builtin.type_aliases), dict(builtin.ql_type_names))
    load_profile(
        "receiver = getReceiverType()\nname = getOther()\n[aliases]\nKey = a.Key\n[types]\nvariable = LocalVariableDecl"
    )
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


def error_at(text: str) -> tuple[str, str]:
    """The message of the error ``load_profile`` raises on ``text``, and the text its span covers."""
    with pytest.raises(SourceError) as info:
        load_profile(text)
    span = info.value.span
    return info.value.message, text[span.start : span.end]


@pytest.mark.parametrize(
    "template, message, at, covered",
    [
        ('splitAt("/" 1)', "unexpected '1' in template arguments", 12, "1"),  # a missing comma
        ("f(1,)", "unexpected ')' in template arguments", 4, ")"),  # a trailing comma
        ("f(,1)", "unexpected ',' in template arguments", 2, ","),
        ("f(1,,2)", "unexpected ',' in template arguments", 4, ","),
        ("getArgument(-1)", "unexpected '-' in template arguments", 12, "-"),  # no negative integers
        ("f(@ordinal).g(@ordinal)", "bad template for attribute 'x': ordinal slot named twice", 14, "@"),
        ("f() // a comment", "unexpected '/' in template", 4, "/"),
        ("f(/* a comment */ 1)", "unexpected '/' in template", 2, "/"),
        ("f().", "expected a call name in template for 'x'", 4, ""),
        ("1f()", "expected a call name in template for 'x'", 0, "1"),
        ("getName().count()", "expected a call name in template for 'x'", 10, "count"),  # a QL keyword
        ("f() g()", "expected '.' between calls, found 'g'", 4, "g"),
        ("f", "call 'f' needs parentheses", 1, ""),
        ('f("abc', "unterminated string in template", 2, '"'),
        ("f(1", "unterminated argument list for 'x'", 3, ""),
    ],
)
def test_template_errors_point_at_the_token(template, message, at, covered):
    prefix = "# a rule\nx =  "
    with pytest.raises(SourceError) as info:
        load_profile(f"{prefix}{template}\n")
    start, end = info.value.span.start - len(prefix), info.value.span.end - len(prefix)
    assert (info.value.message, start, template[start:end]) == (message, at, covered)


def test_hash_inside_a_string_is_part_of_it():
    reg = load_profile('strip = replaceAll("#", "")  # drops every "#"\n[aliases]\nHash = "#" # an alias')
    assert lookup_attribute("strip", reg).render_steps() == ('replaceAll("#", "")',)
    assert reg.type_aliases["Hash"] == '"#"'


def test_whitespace_between_template_tokens():
    reg = load_profile('x = toString()  .replaceAll ( "a" ,"b" ) . splitAt("/",0)\ny = getArgument(@ ordinal)')
    assert lookup_attribute("x", reg).render_steps() == ("toString()", 'replaceAll("a", "b")', 'splitAt("/", 0)')
    assert lookup_attribute("y", reg).render_steps(2) == ("getArgument(2)",)


def test_ordinal_slot_keeps_a_string_that_spells_it():
    rule = lookup_attribute("x", load_profile('x = f("@ordinal", @ordinal)'))
    assert rule.render_steps(1) == ('f("@ordinal", 1)',)


# A key must read as an attribute word in both phrasings. These are keys no
# phrasing can use, then keys only ``x's key`` could use.
_UNREADABLE_KEYS = ["the", "a", "an", "is", "object", "signature", "doesn't", "if"]
_POSSESSIVE_ONLY_KEYS = ["and", "or", "in", "then", "does", "invoke", "invokes", "precedes", "follows"]


@pytest.mark.parametrize(
    "key", ["my attr", "first", "Second", "1st", "x-y", '"x"', *_UNREADABLE_KEYS, *_POSSESSIVE_ONLY_KEYS, "of", "OF"]
)
def test_rule_keys_are_one_word_and_not_an_ordinal(key):
    if key.lower() == "of":  # the parser reads it as an attribute word in both phrasings
        message = f"{key!r} cannot be an attribute word: the Halstead count reads 'of' as glue"
    else:
        message = f"the parser does not read {key!r} as an attribute word"
    assert error_at(f"{key} = getX()") == (message, key)


def test_rule_keys_are_the_words_the_possessive_rewrite_read_as_attributes(builtin):
    """The keys the parser reads as attribute words in both phrasings are
    those it read when a token rewrite turned possessives into of-phrases."""

    def read_before(key):
        expected = QueryAst((Basic(Prefixed(key.lower(), None, Ident("x")), Literal(1)),))
        try:
            return all(
                parse_query(reference_tokens(text)) == expected for text in (f"the {key} of x is 1.", f"x's {key} is 1.")
            )
        except SourceError:
            return False

    def accepted(key):  # as a profile's rule key
        try:
            return key.lower() in load_profile(f"{key} = getX()", base=Registry()).rules
        except ConfigParseError:
            return False

    keys = {*STRUCTURE_WORDS, *ORDINALS, *QL_RESERVED_WORDS, *builtin.rules, *_UNREADABLE_KEYS, *_POSSESSIVE_ONLY_KEYS}
    keys |= {key.upper() for key in keys} | {"s", "x_1", "doesn’t", "DOESN'T", "it's", "p'5", "a b", "'s", "1"}
    # ``of`` is left out: the parser reads it as an attribute word, but a key
    # that the Halstead count reads as glue would count unlike every other.
    keys -= {"of", "OF"}
    assert read_before("of") and not accepted("of")
    assert {key for key in keys if accepted(key)} == {key for key in keys if read_before(key)}


def test_rule_keys_the_parser_reads_as_words():
    reg = load_profile("class = getX()\nx_1 = getZ()\nNot = getW()")
    assert {"class", "x_1", "not"} <= set(reg.rules)


@pytest.mark.parametrize("key", ["field", "method  access", "methods"])
def test_type_keys_are_type_nouns(key):
    message = f"{key!r} is not a type noun: variable, class, method access"
    assert error_at(f"[types]\n{key} = Field") == (message, key)


def test_readme_profile_loads_and_compiles():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Attribute profiles\n.*?^```ini\n(.*?)^```", readme, re.S | re.M)
    reg = load_profile(block)
    out = compile_text(
        'An object of Cipher invokes init. The receiver of init is "Cipher". The first argument of init is k. '
        "k is a method access.",
        reg,
    )
    assert 'init.getReceiverType().toString() = "Cipher"' in out
    assert "init.getArgument(0) = k" in out
    assert reg.resolve_alias("PublicKey") == "java.security.PublicKey"


# --- templates read back as QL ----------------------------------------------------

_STRINGS = st.text(alphabet='ab #/@\\"', max_size=6).map(lambda body: f'"{body}"') | st.sampled_from(
    ['"\\""', '"\\\\"', '"#"', '"@ordinal"', '"\\n"', '"a/b"']
)
_ARGS = _STRINGS | st.integers(0, 10**20).map(str) | st.just("@ordinal") | st.sampled_from(["-1", "x", "@", "²"])
_SEPARATORS = st.sampled_from([", ", ",", " , ", ",\t"] * 4 + [" ", ",,", ", ,", ""])


@st.composite
def _templates(draw) -> str:
    """Calls of sampled names, arguments and separators, mostly well formed."""
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["getName", "toString", "splitAt", "f_1", "replaceAll", "1f", "é"]))
        args = draw(st.lists(_ARGS, max_size=3))
        text = args[0] if args else ""
        for arg in args[1:]:
            text += draw(_SEPARATORS) + arg
        calls.append(f"{name}({text}{draw(st.sampled_from(['', '', '', ',']))})")
    return draw(st.sampled_from([".", ".", " . ", ".."])).join(calls)


@given(_templates())
@example('toString().replaceAll("\\"", "").splitAt("/", 0)')
@example('f("#", "\\\\", "@ordinal", @ordinal, 12)')
@example("getArgument(-1)")
@settings(max_examples=300, deadline=None)
def test_templates_render_what_the_ql_reader_reads(template):
    """A template ``load_profile`` accepts renders calls that ``read_query_text``
    reads back to the same chain; one it rejects raises a ``SourceError``
    with a span inside the profile text."""
    text = f"# generated\nw = {template}  # after\n"
    try:
        rule = lookup_attribute("w", load_profile(text))
    except SourceError as err:
        assert err.span is not None and 0 <= err.span.start <= err.span.end <= len(text), err
        return
    steps = rule.render_steps(3 if rule.slot is not None else None)
    ir = read_query_text(f'from MethodAccess m where m.{".".join(steps)} = "x" select m')
    assert ir.condition == Eq(Chain(Var("m"), steps), Lit("x"))


TEMPLATE_PIECES = (
    "getName()", "getArgument(@ordinal)", 'f("a", 1)', "/* c */", "/** d */", "//x", "/", "*", " ", ".",
    "g()", "(", ")", ",", '"', "@", "1", "x", "/*", "*/", '"/*"', '"//"',
)


def _loaded(text: str):
    """``load_profile``'s registry for ``text``, or its error's class, message and span."""
    try:
        return load_profile(text, base=Registry())
    except SourceError as err:
        return type(err), err.message, err.span


@given(
    st.lists(st.sampled_from(TEMPLATE_PIECES), min_size=1, max_size=8).map("".join), st.sampled_from(TEMPLATE_PIECES)
)
@example("f() // a comment", "g()")
@example("f(/* a */ 1) /* b */", "g()")
@settings(max_examples=300, deadline=None)
def test_template_comments_load_or_fail_as_with_the_skip_prefix_scan(template, other):
    """A template read with the one QL token pattern gives the rule or the
    error, at the same span, that the old skip-prefix scan gave."""
    text = f"# a rule\nx =  {template}\ny = {other}\n"
    new = _loaded(text)
    with as_parent():
        assert _loaded(text) == new
