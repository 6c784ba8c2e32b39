"""Seeded input generator for the nsra benchmark, with its own oracle.

Every generated query comes with what the compiler must make of it, built
here from the generator's templates and the language as README.md documents
it, never by calling the compiler:

* the query text in possessive phrasing (``m's first argument``) and in
  ``of`` phrasing (``the first argument of m``), with the same content;
* the declarations, in first-mention order;
* the expected QL in ``render``'s clause layout (one line per clause; the
  renderer's line wrapping disappears under whitespace collapse);
* the controlled-English Halstead terms the query must count.

The boolean side is a small model of the documented lowering: implication
is ``not p or q``, membership is a disjunction of equalities, necessity
statements contribute the disjunction of their negations at the end, and
the simplifier applies exactly the three rewrites ``ir.py`` documents.

Sizes never depend on the seed: the seed picks names, literals and which
template fills each slot, so a workload costs the same on every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

# --- the documented vocabulary -----------------------------------------------

ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth", "tenth")

_SPLIT = 'toString().replaceAll("\\"", "").splitAt("/", {})'

# Built-in attribute words: (call step, ``{}`` marks the ordinal slot), and
# whether the last call yields a string (toString/getName/replaceAll/splitAt).
BUILTIN_ATTRS = {
    "name": ("getName()", True),
    "type": ("getType()", False),
    "argument": ("getArgument({})", False),
    "method": ("getMethod()", False),
    "algorithm": (_SPLIT.replace("{}", "0"), True),
    "mode": (_SPLIT.replace("{}", "1"), True),
    "padding": (_SPLIT.replace("{}", "2"), True),
}
BUILTIN_ALIASES = {
    "PublicKey": "java.security.PublicKey",
    "PrivateKey": "java.security.PrivateKey",
    "Certificate": "java.security.cert.Certificate",
}

# The overlay profile used by the ``--profile`` inputs.
PROFILE_TEXT = "receiver = getReceiverType()\n\n[aliases]\nSecretKey = javax.crypto.SecretKey\n"
PROFILE_ATTRS = {**BUILTIN_ATTRS, "receiver": ("getReceiverType()", False)}
PROFILE_ALIASES = {**BUILTIN_ALIASES, "SecretKey": "javax.crypto.SecretKey"}

TYPE_NOUNS = {"variable": "Variable", "class": "Class", "method access": "MethodAccess"}

METHODS = ("getInstance", "init", "doFinal", "update", "wrap", "unwrap", "generateKey", "sign", "verify", "digest")
CLASSES = ("Cipher", "KeyGenerator", "Mac", "MessageDigest", "KeyPairGenerator")
VARIABLES = ("keySpec", "ivSpec", "secret", "nonce", "salt", "keyBytes", "cert", "params")
LITERALS = {
    "algorithm": ("AES", "RSA", "DES", "DESede", "Blowfish", "ChaCha20"),
    "mode": ("ECB", "CBC", "GCM", "CTR", "CFB", "OFB", ""),
    "padding": ("NoPadding", "PKCS5Padding", "OAEPPadding", "ISO10126Padding"),
    "argument": ("Cipher.ENCRYPT_MODE", "Cipher.DECRYPT_MODE", "Cipher.WRAP_MODE", "Cipher.UNWRAP_MODE"),
    "name": ("doFinal", "update", "key", "iv", "getEncoded"),
    "receiver": ("Cipher", "Mac", "Signature"),
}
SIGNATURE_TYPES = ("int", "Key", "Certificate", "SecureRandom", "AlgorithmParameterSpec", "byte[]")

# Attribute chains, innermost first; each holds at most one ordinal word.
METHOD_CHAINS = (
    ("argument",),
    ("argument", "algorithm"),
    ("argument", "mode"),
    ("argument", "padding"),
    ("argument", "type"),
    ("method", "name"),
)
VARIABLE_CHAINS = (("type",), ("name",))


# --- boolean model -----------------------------------------------------------
# ("eq", l, r) | ("lt", l, r) | ("and", items) | ("or", items) | ("not", x)
# | ("exists", type, var, body) | TRUE; values are their QL text.

TRUE = ("true",)


def conjoin(items):
    items = [i for i in items if i != TRUE]
    if not items:
        return TRUE
    return items[0] if len(items) == 1 else ("and", tuple(items))


def disjoin(items):
    return items[0] if len(items) == 1 else ("or", tuple(items))


def _push_pays(group):
    negated = sum(1 for i in group[1] if i[0] == "not")
    return len(group[1]) - negated < 1 + negated


def _dual(group):
    flipped = tuple(("not", i) for i in group[1])
    return ("and", flipped) if group[0] == "or" else ("or", flipped)


def simplify(e):
    """Double negation removal, flattening, and a De Morgan push exactly when
    it lowers the number of negations (decided before and after simplifying
    the group, as the simplifier's contract states)."""
    kind = e[0]
    if kind in ("and", "or"):
        items = []
        for child in (simplify(i) for i in e[1]):
            if kind == "and" and child == TRUE:
                continue
            if kind == "or" and child == ("not", TRUE):
                continue
            if child[0] == kind:
                items.extend(child[1])
            else:
                items.append(child)
        if kind == "and":
            return conjoin(items)
        return disjoin(items) if items else TRUE
    if kind == "not":
        raw = e[1]
        if raw[0] == "not":
            return simplify(raw[1])
        if raw[0] in ("and", "or") and _push_pays(raw):
            return simplify(_dual(raw))
        inner = simplify(raw)
        if inner[0] == "not":
            return inner[1]
        if inner[0] in ("and", "or") and _push_pays(inner):
            return simplify(_dual(inner))
        return ("not", inner)
    if kind == "exists":
        return ("exists", e[1], e[2], simplify(e[3]))
    return e


_PREC = {"or": 1, "and": 2, "not": 3, "exists": 4}


def bool_text(e, parent=0):
    kind = e[0]
    if kind == "eq":
        return f"{e[1]} = {e[2]}"
    if kind == "lt":
        return f"{e[1]} < {e[2]}"
    if kind == "true":
        return "1 = 1"
    if kind == "not":
        text = f"not ({bool_text(e[1])})"
    elif kind == "exists":
        text = f"exists ({e[1]} {e[2]} | {bool_text(e[3])})"
    else:
        text = f" {kind} ".join(bool_text(i, _PREC[kind]) for i in e[1])
    return f"({text})" if _PREC[kind] < parent else text


def render_expected(decls, condition) -> str:
    """QL text in the renderer's clause layout, without line wrapping."""
    lines = []
    if decls:
        lines.append("from " + ", ".join(f"{t} {v}" for t, v in decls))
    if condition != TRUE:
        if condition[0] in ("and", "or"):
            lines.append("where " + bool_text(condition, _PREC[condition[0]]))
        else:
            lines.append("where " + bool_text(condition))
    lines.append("select " + (", ".join(v for _, v in decls) or "1"))
    return "\n".join(lines) + "\n"


# --- phrases -----------------------------------------------------------------


@dataclass
class Phrase:
    """One piece of English in both phrasings, with its Halstead terms."""

    poss: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    terms: list = field(default_factory=list)

    def __add__(self, other: "Phrase") -> "Phrase":
        return Phrase(self.poss + other.poss, self.plain + other.plain, self.terms + other.terms)


def op(word: str) -> Phrase:
    return Phrase([word], [word], [("op", word.lower())])


def glue(word: str) -> Phrase:
    """Articles and ``of``: present in the text, never counted."""
    return Phrase([word], [word], [])


def ident(name: str) -> Phrase:
    return Phrase([name], [name], [("id", name)])


def words(text: str) -> Phrase:
    out = Phrase()
    for w in text.split():
        out = out + (glue(w) if w.lower() in ("a", "an", "the", "of") else op(w))
    return out


def quote(value: str) -> str:
    return '"' + value + '"'


def literal(value) -> Phrase:
    if isinstance(value, int):
        return Phrase([str(value)], [str(value)], [("int", value)])
    return Phrase([quote(value)], [quote(value)], [("str", value)])


def literal_list(values) -> Phrase:
    text = "[" + ", ".join(str(v) if isinstance(v, int) else quote(v) for v in values) + "]"
    terms = [("int", v) if isinstance(v, int) else ("str", v) for v in values]
    return Phrase([text], [text], terms)


@dataclass(frozen=True)
class Exp:
    """``owner`` wrapped in attribute words, innermost first; ``ordinal`` is
    the 1-based ordinal of the innermost word, or None."""

    owner: str
    chain: tuple
    ordinal: int | None = None

    def phrase(self) -> Phrase:
        def attr(i: int) -> Phrase:
            p = Phrase()
            if i == 0 and self.ordinal is not None:
                p = op(ORDINALS[self.ordinal - 1])
            return p + op(self.chain[i])

        outer = Phrase()
        for i in range(len(self.chain) - 1, 0, -1):
            outer = outer + glue("the") + attr(i) + glue("of")
        of_form = glue("the") + attr(0) + glue("of") + ident(self.owner)
        poss_form = Phrase([self.owner + "'s"], [], [("id", self.owner)]) + attr(0)
        return outer + Phrase(poss_form.poss, of_form.plain, of_form.terms)

    def value(self, attrs) -> str:
        steps = []
        for i, word in enumerate(self.chain):
            step = attrs[word][0]
            steps.append(step.format(self.ordinal - 1) if i == 0 and "{}" in step else step)
        return ".".join([self.owner, *steps])

    def compared_with_string(self, attrs) -> str:
        text = self.value(attrs)
        return text if attrs[self.chain[-1]][1] else text + ".toString()"


@dataclass
class Sentence:
    phrase: Phrase
    cond: tuple
    decls: tuple = ()
    necessity: bool = False


def _capitalize(fragments: list) -> list:
    if fragments and fragments[0] in ("the", "it", "if", "an", "a"):
        return [fragments[0].capitalize(), *fragments[1:]]
    return fragments


def sentence_text(fragments: list) -> str:
    return " ".join(_capitalize(fragments)) + "."


@dataclass
class Query:
    """A generated query and everything the compiler must make of it."""

    poss_text: str
    plain_text: str
    decls: tuple
    expected_ql: str
    terms: tuple
    profile: bool = False

    def text(self, phrasing: str) -> str:
        return self.poss_text if phrasing == "poss" else self.plain_text


def build_query(sentences: list, profile: bool = False) -> Query:
    decls: list = []
    plain: list = []
    necessity: list = []
    terms: list = []
    poss_parts: list = []
    plain_parts: list = []
    for s in sentences:
        for d in s.decls:
            if d not in decls:
                decls.append(d)
        body = s.phrase
        if s.necessity:
            body = words("It is necessary that") + body
            necessity.append(s.cond)
        elif s.cond != TRUE:
            plain.append(s.cond)
        terms.extend(body.terms)
        poss_parts.append(sentence_text(body.poss))
        plain_parts.append(sentence_text(body.plain))
    if necessity:
        plain.append(("not", necessity[0]) if len(necessity) == 1 else ("or", tuple(("not", c) for c in necessity)))
    condition = simplify(conjoin(plain))
    return Query(
        " ".join(poss_parts),
        " ".join(plain_parts),
        tuple(decls),
        render_expected(decls, condition),
        tuple(terms),
        profile,
    )


# --- statement templates -----------------------------------------------------


def invocation(cls: str, method: str, positive: bool = True, contracted: bool = False) -> Sentence:
    cond = conjoin(
        [
            ("eq", f"{method}.getMethod().getName()", quote(method)),
            ("eq", f"{method}.getReceiverType().getName()", quote(cls)),
        ]
    )
    head = glue("An") + op("object") + glue("of") + ident(cls)
    if positive:
        return Sentence(head + op("invokes") + ident(method), cond, (("MethodAccess", method),))
    verb = Phrase(["doesn't"], ["doesn't"], [("op", "does"), ("op", "not")]) if contracted else words("does not")
    return Sentence(head + verb + op("invoke") + ident(method), ("not", ("exists", "MethodAccess", method, cond)))


def assumption(var: str, noun: str) -> Sentence:
    return Sentence(ident(var) + op("is") + words("a " + noun), TRUE, ((TYPE_NOUNS[noun], var),))


def _lit_text(value, exp: Exp, aliases) -> str:
    if isinstance(value, int):
        return str(value)
    if exp.chain[-1] == "type":
        value = aliases.get(value, value)
    return quote(value)


def equality(exp: Exp, value, attrs, aliases, negated=False, swapped=False) -> tuple:
    lhs = exp.value(attrs) if isinstance(value, int) else exp.compared_with_string(attrs)
    cond = ("eq", lhs, _lit_text(value, exp, aliases))
    verb = words("is not") if negated else op("is")
    if swapped:
        phrase = literal(value) + verb + exp.phrase()
    else:
        phrase = exp.phrase() + verb + literal(value)
    return phrase, ("not", cond) if negated else cond


def membership(exp: Exp, values, attrs, aliases, negated=False) -> tuple:
    strings = all(isinstance(v, str) for v in values)
    lhs = exp.compared_with_string(attrs) if strings else exp.value(attrs)
    cond = disjoin([("eq", lhs, _lit_text(v, exp, aliases)) for v in values])
    verb = words("is not in") if negated else words("is in")
    return exp.phrase() + verb + literal_list(values), ("not", cond) if negated else cond


def signature_cond(method: str, types) -> tuple:
    items = [("eq", f"count ({method}.getAnArgument())", str(len(types)))]
    items += [("eq", f"{method}.getArgument({i}).getType().toString()", quote(t)) for i, t in enumerate(types)]
    return ("and", tuple(items))


def signature(method: str, lists, negated: bool) -> tuple:
    """``m's signature is [..]``, then ``and is [not] [..]`` per extra list."""
    subject = Phrase([method + "'s", "signature"], ["the", "signature", "of", method], [("op", "signature"), ("id", method)])
    verb = words("is not") if negated else op("is")
    phrase = subject + verb + literal_list(lists[0])
    conds = [signature_cond(method, lists[0])]
    for types in lists[1:]:
        phrase = phrase + op("and") + verb + literal_list(types)
        conds.append(signature_cond(method, types))
    if negated:
        conds = [("not", c) for c in conds]
    return phrase, conjoin(conds) if len(conds) > 1 else conds[0]


def ordering(before: str, after: str, follows: bool) -> Sentence:
    cond = (
        "and",
        (
            ("eq", f"{before}.getEnclosingCallable()", f"{after}.getEnclosingCallable()"),
            ("lt", f"{before}.getLocation().getEndLine()", f"{after}.getLocation().getEndLine()"),
        ),
    )
    if follows:
        return Sentence(ident(after) + op("follows") + ident(before), cond)
    return Sentence(ident(before) + op("precedes") + ident(after), cond)


# --- the four task shapes ----------------------------------------------------


def task_queries() -> dict:
    """The repository's four golden queries, built from the templates, so
    that their expected QL can be compared with tests/golden."""
    a, b = BUILTIN_ATTRS, BUILTIN_ALIASES
    cls, first, second = "Cipher", "init", "getInstance"
    init_arg = Exp(first, ("argument",), 1)
    type_arg = Exp(first, ("argument", "type"), 2)
    algo = Exp(second, ("argument", "algorithm"), 1)
    mode = Exp(second, ("argument", "mode"), 1)

    def necessity_if(cond_phrase, cond, then_phrase, then_cond):
        return Sentence(op("if") + cond_phrase + op("then") + then_phrase, ("or", (("not", cond), then_cond)), necessity=True)

    p1, c1 = membership(init_arg, ["Cipher.WRAP_MODE", "Cipher.UNWRAP_MODE"], a, b)
    p2, c2 = membership(type_arg, ["PublicKey", "PrivateKey", "Certificate"], a, b)
    p3, c3 = equality(algo, "RSA", a, b)
    task1 = [invocation(cls, first), invocation(cls, second), necessity_if(p1 + op("or") + p2, ("or", (c1, c2)), p3, c3)]

    p4, c4 = membership(mode, ["", "ECB"], a, b)
    task2 = [invocation(cls, second), necessity_if(p3, c3, p4, c4)]

    p5, c5 = membership(mode, ["CBC", "PCBC", "CTR", "CTS", "CFB", "OFB"], a, b)
    p6, c6 = equality(init_arg, "Cipher.ENCRYPT_MODE", a, b, negated=True)
    sig_lists = [["int", "Certificate"], ["int", "Certificate", "SecureRandom"], ["int", "Key"], ["int", "Key", "SecureRandom"]]
    p7, c7 = signature(second, sig_lists, negated=True)
    task3 = [invocation(cls, second), invocation(cls, first), necessity_if(p5 + op("and") + p6, ("and", (c5, c6)), p7, c7)]
    return {
        "example_invoke": build_query([invocation(cls, first)]),
        "task1": build_query(task1),
        "task2": build_query(task2),
        "task3": build_query(task3),
    }


# --- seeded generation -------------------------------------------------------

# How often task_sized picks each kind of sentence after the first: the
# golden queries' constructs (invocation, necessity) weigh most, and every
# other construct of README.md's Language section stays in the mix. This is
# an assumption about everyday queries: the goldens are the only real ones.
TASK_KIND_WEIGHTS = {
    "inv": 4, "nec": 6,
    "decl": 1, "ninv": 1, "eq": 1, "neq": 1, "in": 1, "nin": 1,
    "false": 1, "and": 1, "or": 1, "if": 1, "sig": 1, "order": 1,
}


class Generator:
    """Builds queries from two ``random.Random``: ``shape`` makes every
    structural choice (statement kinds, list lengths, attribute chains,
    negations) from a fixed seed, and ``rng`` picks names, literals and
    paraphrases from ``seed``. A query's cost then depends on its size and
    position, not on the seed, and the same seed gives the same queries."""

    def __init__(self, seed: int, profile: bool = False):
        self.rng = random.Random(seed)
        self.shape = random.Random(0)
        self.profile = profile
        self.attrs = PROFILE_ATTRS if profile else BUILTIN_ATTRS
        self.aliases = PROFILE_ALIASES if profile else BUILTIN_ALIASES
        self.counter = 0

    def fresh(self, pool) -> str:
        self.counter += 1
        return f"{self.rng.choice(pool)}{self.counter}"

    def method_exp(self, method: str) -> Exp:
        chain = self.shape.choice(METHOD_CHAINS)
        if self.profile and self.shape.random() < 0.3:
            return Exp(method, ("receiver",))
        return Exp(method, chain, self.rng.randint(1, 3) if chain[0] == "argument" else None)

    def value_for(self, exp: Exp):
        word = exp.chain[-1]
        if word == "argument" and self.shape.random() < 0.25:
            return self.rng.randint(0, 9)
        if word == "type":
            return self.rng.choice(tuple(self.aliases))
        return self.rng.choice(LITERALS[word])

    def values_for(self, exp: Exp, n: int) -> list:
        word = exp.chain[-1]
        if word == "argument" and self.shape.random() < 0.25:
            return self.rng.sample(range(100), n)
        if word == "type":
            # Only aliased type names: any other makes the compiler warn.
            pool = tuple(self.aliases)
            n = min(n, len(pool))
        else:
            pool = LITERALS[word]
        if n <= len(pool):
            return self.rng.sample(pool, n)
        return [f"{self.rng.choice(pool)}_{i}" for i in range(n)]

    def basic(self, exp: Exp, kind: str) -> tuple:
        """One basic statement: ``eq``, ``neq`` or ``in``/``nin``."""
        a, al = self.attrs, self.aliases
        if kind == "eq":
            return equality(exp, self.value_for(exp), a, al, swapped=self.rng.random() < 0.3)
        if kind == "neq":
            return equality(exp, self.value_for(exp), a, al, negated=True)
        size = self.shape.randint(1, 4)
        return membership(exp, self.values_for(exp, size), a, al, negated=kind == "nin")

    def subject(self, methods: list, variables: list) -> Exp:
        if variables and self.shape.random() < 0.25:
            return Exp(self.rng.choice(variables), self.shape.choice(VARIABLE_CHAINS))
        return self.method_exp(self.rng.choice(methods))

    def statement(self, kind: str, methods: list, variables: list) -> Sentence:
        shape = self.shape
        if kind in ("eq", "neq", "in", "nin"):
            return Sentence(*self.basic(self.subject(methods, variables), kind))
        if kind == "false":
            p, c = self.basic(self.subject(methods, variables), shape.choice(("eq", "in")))
            return Sentence(words("it is false that") + p, ("not", c))
        if kind in ("and", "or"):
            p1, c1 = self.basic(self.subject(methods, variables), shape.choice(("eq", "neq", "in")))
            p2, c2 = self.basic(self.subject(methods, variables), shape.choice(("eq", "neq", "in")))
            return Sentence(p1 + op(kind) + p2, (kind, (c1, c2)))
        if kind == "if":
            p1, c1 = self.basic(self.subject(methods, variables), shape.choice(("eq", "in")))
            p2, c2 = self.basic(self.subject(methods, variables), shape.choice(("eq", "neq", "in")))
            if shape.random() < 0.4:
                p3, c3 = self.basic(self.subject(methods, variables), "eq")
                p1, c1 = p1 + op("or") + p3, ("or", (c1, c3))
            return Sentence(op("if") + p1 + op("then") + p2, ("or", (("not", c1), c2)))
        if kind == "sig":
            sizes = [shape.randint(1, 3) for _ in range(shape.randint(1, 2))]
            lists = [self.rng.sample(SIGNATURE_TYPES, n) for n in sizes]
            return Sentence(*signature(self.rng.choice(methods), lists, negated=shape.random() < 0.5))
        if kind == "order":
            before, after = self.rng.sample(methods, 2)
            return ordering(before, after, follows=self.rng.random() < 0.5)
        raise ValueError(kind)

    def task_sized(self, n_sentences: int) -> Query:
        """A query of ``n_sentences`` sentences mixing every construct.

        It opens with an invocation, as every golden query does. The golden
        queries' other sentences are invocations (2 of 5) and necessity
        ``if ... then`` statements (3 of 5) over membership, equality, its
        negation, ``and``, ``or`` and signatures; ``TASK_KIND_WEIGHTS`` gives
        those about half the sentences and every other construct the rest."""
        rng, shape = self.rng, self.shape
        methods = [self.fresh(METHODS)]
        variables: list = []
        sentences = [invocation(rng.choice(CLASSES), methods[0])]
        kinds, weights = zip(*TASK_KIND_WEIGHTS.items())
        while len(sentences) < n_sentences:
            kind = shape.choices(kinds, weights)[0]
            if kind == "inv" or (kind == "order" and len(methods) < 2):
                methods.append(self.fresh(METHODS))
                sentences.append(invocation(rng.choice(CLASSES), methods[-1]))
            elif kind == "decl":
                variables.append(self.fresh(VARIABLES))
                sentences.append(assumption(variables[-1], shape.choice(("variable", "class", "method access"))))
            elif kind == "ninv":
                sentences.append(invocation(rng.choice(CLASSES), self.fresh(METHODS), False, shape.random() < 0.5))
            elif kind == "nec":
                inner = self.statement(shape.choice(("if", "if", "if", "eq", "in", "sig", "and")), methods, variables)
                inner.necessity = True
                sentences.append(inner)
            else:
                sentences.append(self.statement(kind, methods, variables))
        return build_query(sentences, self.profile)

    def large(self, n_sentences: int) -> Query:
        """``n_sentences`` sentences in a fixed schedule of blocks, one
        possessive per attribute expression."""
        rng = self.rng
        methods: list = []
        sentences: list = []
        block = ("inv", "eq", "in", "false", "nec-if", "sig", "order", "neq")
        while len(sentences) < n_sentences:
            kind = block[len(sentences) % len(block)]
            if kind == "inv":
                methods.append(self.fresh(METHODS))
                sentences.append(invocation(rng.choice(CLASSES), methods[-1]))
            elif kind == "order":
                sentences.append(ordering(methods[-2] if len(methods) > 1 else methods[-1], methods[-1], rng.random() < 0.5))
            elif kind == "sig":
                types = rng.sample(SIGNATURE_TYPES, 2)
                sentences.append(Sentence(*signature(methods[-1], [types], negated=self.shape.random() < 0.5)))
            elif kind == "nec-if":
                exp1, exp2 = self.method_exp(methods[-1]), self.method_exp(methods[-1])
                p1, c1 = self.basic(exp1, "eq")
                p2, c2 = self.basic(exp2, "in")
                sentences.append(Sentence(op("if") + p1 + op("then") + p2, ("or", (("not", c1), c2)), necessity=True))
            elif kind == "false":
                p, c = self.basic(self.method_exp(methods[-1]), "eq")
                sentences.append(Sentence(words("it is false that") + p, ("not", c)))
            else:
                sentences.append(Sentence(*self.basic(self.method_exp(methods[-1]), kind)))
        return build_query(sentences)


def deep_negation(depth: int, method: str) -> Sentence:
    """``it is false that`` repeated ``depth`` times over one equality."""
    p, c = equality(Exp(method, ("argument",), 1), "Cipher.ENCRYPT_MODE", BUILTIN_ATTRS, BUILTIN_ALIASES)
    for _ in range(depth):
        p, c = words("it is false that") + p, ("not", c)
    return Sentence(p, c)


def recursion_failure() -> Query:
    """``it is false that`` 1000 times: the compiler raises RecursionError
    today; it must return QL or raise a SourceError."""
    return build_query([invocation("Cipher", "init"), deep_negation(1000, "init")])


def receiver_failure() -> tuple:
    """A profile rule spelled ``Receiver`` used as ``The Receiver of m``;
    attribute words are case-folded by the parser but not by the loader."""
    profile = "Receiver = getReceiverType()\n"
    recv = Sentence(
        glue("The") + op("Receiver") + glue("of") + ident("init") + op("is") + literal("Cipher"),
        ("eq", "init.getReceiverType().toString()", quote("Cipher")),
    )
    query = build_query([invocation("Cipher", "init"), recv], profile=True)
    return profile, query


# --- independent token counts and QL Halstead counts -------------------------

_NSRA_TOKEN = re.compile(r"\"[^\"]*\"|\w+n't|'s\b|\w+|[\[\],.]")
_QL_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[A-Za-z_]\w*|\d+|[^\s\w]')
_QL_KEYWORDS = frozenset({"from", "where", "select", "and", "or", "not", "exists", "count"})


def nsra_token_count(text: str) -> int:
    return len(_NSRA_TOKEN.findall(text))


def ql_tokens(text: str) -> list:
    return _QL_TOKEN.findall(text)


def halstead(terms) -> tuple:
    """(distinct operators, distinct operands, total operators, total operands)."""
    ops = [t for t in terms if t[0] == "op"]
    operands = [t for t in terms if t[0] in ("id", "str", "int")]
    return len(set(ops)), len(set(operands)), len(ops), len(operands)


def ql_terms(text: str) -> list:
    """QL Halstead terms: punctuation, keywords and called names are
    operators; other identifiers and literals are operands."""
    toks = ql_tokens(text)
    terms = []
    for i, tok in enumerate(toks):
        if tok.startswith('"'):
            terms.append(("str", tok[1:-1]))
        elif tok.isdigit():
            terms.append(("int", int(tok)))
        elif not (tok[0].isalpha() or tok[0] == "_"):
            terms.append(("op", tok))
        elif tok in _QL_KEYWORDS or (i + 1 < len(toks) and toks[i + 1] == "("):
            terms.append(("op", tok))
        else:
            terms.append(("id", tok))
    return terms
