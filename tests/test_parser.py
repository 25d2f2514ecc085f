"""Expression grammar: parsing straight into templates over Q, their
reduction per field, and the term guard."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieadm.errors import ExprSyntaxError, FieldError, InputError, ResourceError
from lieadm.exprs import (
    BUILTIN_SOURCES,
    MAX_DEPTH,
    MAX_TEMPLATE_TERMS,
    Identity,
    builtin,
    builtin_names,
    is_multilinear,
)
from lieadm.linalg import GF, QQ
from lieadm.terms import (
    Polynomial,
    associator,
    commutator,
    jordan,
    leaf,
    multiply,
    render_polynomial,
)

FIELDS = (QQ, GF(2), GF(3), GF(5))

# (source, offset of the token that crosses MAX_DEPTH): 400 brackets around
# x; 1200 terms x*y*z, where term 200 sits 199 levels down and its second
# '*' crosses; 1200 factors x, where the 201st '*' crosses
TOO_DEEP = [
    ("(" * 400 + "x" + ")" * 400 + "*y*z", MAX_DEPTH),
    (" + ".join(["x*y*z"] * 1200), 8 * (MAX_DEPTH - 1) + 3),
    ("*".join(["x"] * 1200), 2 * MAX_DEPTH + 1),
]


def poly(source, field=QQ):
    return Identity("t", source).template(field)


def nested_commutator(n):
    """[[...[x,y],y]...,y] with n brackets: 2^n terms."""
    return "[" * n + "x" + ",y]" * n


class TestParsing:
    def test_left_associative_products(self):
        assert poly("x*y*z") == poly("(x*y)*z")
        assert poly("x*y*z") != poly("x*(y*z)")

    def test_bracket_sugar_matches_expansion(self):
        x, y, z = (Polynomial.of(QQ, leaf(g)) for g in range(3))
        assert poly("[x,y]") == commutator(x, y)
        assert poly("<x,y,z>") == associator(x, y, z)
        assert poly("{x,y}") == jordan(x, y)

    def test_scalar_coefficients(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        assert poly("2*x*y") == multiply(x, y).scaled(2)
        assert poly("-3/2*x*y") == multiply(x, y).scaled(QQ.from_fraction(Fraction(-3, 2)))

    def test_variables_sorted(self):
        assert Identity("t", "z*y - y*z + x*(y*z)").variables == ("x", "y", "z")

    def test_variable_tokens(self):
        assert Identity("t", "a1*b12").variables == ("a1", "b12")

    @pytest.mark.parametrize(
        "source,offset",
        [
            ("x*", 2),
            ("(x*y", 4),
            ("x + * y", 4),
            ("[x y]", 3),
            ("<x,y>", 4),
            ("1/0*x", 2),
            ("x @ y", 2),
        ],
    )
    def test_syntax_errors_carry_offsets(self, source, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            Identity("t", source)
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "source,offset",
        [("9" * 4400 + "*x", 0), ("x - 2/" + "9" * 4400 + "*y", 6), ("\u00b2*x", 0)],
        ids=["numerator-4400-digits", "denominator-4400-digits", "superscript-two"],
    )
    def test_unreadable_number_literals_are_syntax_errors(self, source, offset):
        # past Python's 4300-digit limit for int(), or a digit int() refuses
        with pytest.raises(ExprSyntaxError) as exc:
            Identity("t", source)
        assert exc.value.offset == offset

    def test_too_deep_is_a_syntax_error_at_the_crossing_token(self):
        for source, offset in TOO_DEEP:
            with pytest.raises(ExprSyntaxError) as exc:
                Identity("t", source)
            assert exc.value.offset == offset
            assert f"deeper than {MAX_DEPTH} levels" in str(exc.value)

    def test_trees_at_the_depth_bound_parse_expand_and_render(self):
        n = MAX_DEPTH
        nested = "(" * n + "x" + ")" * n
        total = " + ".join(["x"] * (n + 1))
        chain = "*".join(["x"] * (n + 1))
        assert poly(nested) == poly("x")
        assert poly(total) == poly("x").scaled(n + 1)
        assert len(poly(chain).terms) == 1
        # a bracket level costs the most frames, but 200 of them would
        # expand to 2^200 terms: the term guard refuses it first
        with pytest.raises(ResourceError):
            Identity("t", nested_commutator(n))

    def test_empty_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            Identity("t", "")
        with pytest.raises(ExprSyntaxError):
            Identity("t", "   ")


class TestTermGuard:
    def test_fifteen_nested_commutators_expand(self):
        # level j forms 2^j terms, 2^16 - 2 in all, within the guard
        assert len(poly(nested_commutator(15)).terms) == MAX_TEMPLATE_TERMS // 2

    def test_sixteen_nested_commutators_are_refused_with_the_count(self):
        # the outermost level would take the total to 2^17 - 2
        with pytest.raises(ResourceError) as exc:
            Identity("t", nested_commutator(16))
        assert "'[' at offset 0 would expand to 65536 terms, 131070 in this expression" in str(
            exc.value
        )
        assert f"guard of {MAX_TEMPLATE_TERMS}" in str(exc.value)

    def test_terms_of_all_products_count_toward_the_guard(self):
        # each product is within the guard, but the first '*' takes the
        # total past it: 2^16 - 2 terms formed, then 2^15 more
        source = nested_commutator(15) + "*x" * 20
        with pytest.raises(ResourceError) as exc:
            Identity("t", source)
        offset = len(nested_commutator(15))
        assert f"'*' at offset {offset} would expand to 32768 terms, 98302 in" in str(exc.value)

    @pytest.mark.parametrize(
        "source,count",
        [
            ("(" + nested_commutator(9) + ")*" + nested_commutator(8), 2**17),
            ("{" + nested_commutator(8) + "," + nested_commutator(8) + "}", 2**17),
            ("<" + nested_commutator(8) + "," + nested_commutator(8) + ",x>", 2**17),
        ],
        ids=["product", "jordan", "associator"],
    )
    def test_each_product_is_counted_before_it_is_formed(self, source, count):
        with pytest.raises(ResourceError, match=f" {count} terms"):
            Identity("t", source)


class TestExpansion:
    def test_commutator_two_terms(self):
        assert len(poly("[x,y]").terms) == 2

    def test_expansion_respects_field(self):
        assert not poly("x*y + x*y", GF(2))

    def test_half_coefficient_rejected_mod_two(self):
        with pytest.raises(FieldError):
            poly("1/2*x*y", GF(2))

    @pytest.mark.parametrize("source", ["5*(1/5*x)", "1/5*x - 1/5*x", "x + 3*(2/15*y - 1/10*y)"])
    def test_literal_denominator_divisible_by_p_is_a_field_error(self, source):
        # the reduction needs every literal, also one that cancels over Q
        poly(source)
        with pytest.raises(FieldError) as exc:
            poly(source, GF(5))
        first = source.index("/") - 1
        assert f"at offset {first} has a denominator not invertible mod 5" in str(exc.value)

    def test_renderer_output_reparses_to_same_polynomial(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        p = (
            commutator(x, y)
            .scaled(2)
            .add(multiply(x, x).scaled(QQ.from_fraction(Fraction(-1, 3))))
        )
        text = render_polynomial(p, key_gens=2)
        assert poly(text) == p


# -- reference route: random expressions expanded through terms -------------

_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _trees():
    """Expression trees as nested tuples, leaves ('var', name)."""
    leaves = st.sampled_from("xyz").map(lambda v: ("var", v))

    def extend(sub):
        pair = st.tuples(sub, sub)
        return st.one_of(
            pair.map(lambda t: ("+",) + t),
            pair.map(lambda t: ("-",) + t),
            pair.map(lambda t: ("*",) + t),
            pair.map(lambda t: ("[",) + t),
            pair.map(lambda t: ("{",) + t),
            st.tuples(sub, sub, sub).map(lambda t: ("<",) + t),
            st.tuples(_rationals, sub).map(lambda t: ("q",) + t),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _text(tree) -> str:
    kind, *args = tree
    if kind == "var":
        return args[0]
    if kind in "+-":
        return f"{_text(args[0])} {kind} ({_text(args[1])})"
    if kind == "*":
        return f"({_text(args[0])})*({_text(args[1])})"
    if kind == "q":
        return f"{args[0]}*({_text(args[1])})"
    close = {"[": "]", "{": "}", "<": ">"}[kind]
    return kind + ",".join(_text(a) for a in args) + close


def _names(tree) -> set:
    if tree[0] == "var":
        return {tree[1]}
    return set().union(*(_names(a) for a in tree[1:] if isinstance(a, tuple)))


def _denominators(tree) -> list:
    if tree[0] == "var":
        return []
    own = [tree[1].denominator] if tree[0] == "q" else []
    return own + [d for a in tree[1:] if isinstance(a, tuple) for d in _denominators(a)]


def _expand(tree, field, index):
    kind, *args = tree
    if kind == "var":
        return Polynomial.of(field, leaf(index[args[0]]))
    if kind == "q":
        return _expand(args[1], field, index).scaled(field.from_fraction(args[0]))
    ops = [_expand(a, field, index) for a in args]
    make = {
        "+": lambda p, q: p.add(q),
        "-": lambda p, q: p.sub(q),
        "*": multiply,
        "[": commutator,
        "{": jordan,
        "<": associator,
    }[kind]
    return make(*ops)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trees())
def test_template_equals_expansion_in_each_field(tree):
    ident = Identity("t", _text(tree))
    index = {name: i for i, name in enumerate(sorted(_names(tree)))}
    assert ident.variables == tuple(index)
    for field in FIELDS:
        p = field.char
        if p and any(d % p == 0 for d in _denominators(tree)):
            with pytest.raises(FieldError):
                ident.template(field)
            with pytest.raises(FieldError):
                _expand(tree, field, index)
        else:
            assert ident.template(field) == _expand(tree, field, index)


class TestBuiltins:
    def test_catalog_is_stable(self):
        assert sorted(BUILTIN_SOURCES) == [
            "alia_left",
            "alia_right",
            "assoc",
            "eq311",
            "eq312",
            "eq313",
            "eq314",
            "f_sym47",
            "f_sym48",
            "fquad",
            "jacobi",
            "leftcom",
            "leftsym",
            "rightcom",
            "rightsym",
            "teichmuller",
        ]
        assert builtin_names() == tuple(sorted(BUILTIN_SOURCES))

    def test_unknown_builtin(self):
        with pytest.raises(InputError):
            builtin("nope")

    def test_jacobi_expands_to_twelve_monomials(self):
        assert len(builtin("jacobi").template(QQ).terms) == 12

    def test_teichmuller_expands_to_zero(self):
        # the five-term associator alternation telescopes away before any
        # variety relation is applied
        assert not builtin("teichmuller").template(QQ).terms

    def test_defining_identities_are_multilinear(self):
        for name in ("leftcom", "rightcom", "leftsym", "rightsym", "assoc"):
            assert builtin(name).multilinear(QQ), name

    def test_non_multilinear_detected(self):
        ident = Identity("sq", "x*x")
        assert not ident.multilinear(QQ)
        assert not is_multilinear(ident.template(QQ), 1)

    def test_left_commutativity_template(self):
        x, y, z = (Polynomial.of(QQ, leaf(g)) for g in range(3))
        want = multiply(x, multiply(y, z)).sub(multiply(y, multiply(x, z)))
        assert builtin("leftcom").template(QQ) == want

    def test_variables_recorded_in_sorted_order(self):
        ident = builtin("eq312")
        assert ident.variables == ("w", "x", "y", "z")

    def test_templates_pinned_over_four_fields(self):
        # the canonical text of every builtin template over Q, F2, F3 and
        # F5, as the per-field expansion of the expression tree gave it
        lines = []
        for name in sorted(BUILTIN_SOURCES):
            ident = builtin(name)
            for field in FIELDS:
                text = render_polynomial(
                    ident.template(field),
                    namer=lambda i: ident.variables[i],
                    key_gens=len(ident.variables),
                )
                lines.append(f"{name} {field.name}: {text}")
        blob = "\n".join(lines).encode()
        assert len(blob) == 6149
        assert hashlib.sha256(blob).hexdigest().startswith("9ca589f26e0abace")
