"""Expression grammar: parsing, rendering, expansion to polynomials."""

from fractions import Fraction

import pytest

from lieadm.errors import ExprSyntaxError, FieldError, InputError
from lieadm.exprs import (
    BUILTIN_SOURCES,
    MAX_DEPTH,
    Identity,
    builtin,
    builtin_names,
    expand,
    is_multilinear,
    parse,
    render,
    variables_of,
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


# (source, offset of the token that crosses MAX_DEPTH): 400 brackets around
# x; 1200 terms x*y*z, where term 200 sits 199 levels down and its second
# '*' crosses; 1200 factors x, where the 201st '*' crosses
TOO_DEEP = [
    ("(" * 400 + "x" + ")" * 400 + "*y*z", MAX_DEPTH),
    (" + ".join(["x*y*z"] * 1200), 8 * (MAX_DEPTH - 1) + 3),
    ("*".join(["x"] * 1200), 2 * MAX_DEPTH + 1),
]


def poly(source, field=QQ, variables=None):
    ast = parse(source)
    return expand(ast, field, variables)


class TestParsing:
    @pytest.mark.parametrize(
        "source",
        [
            "x*y",
            "x*y - y*x",
            "[x,y]",
            "<x,y,z>",
            "{x, y}",
            "(x*y)*z - x*(y*z)",
            "2*x*y",
            "-1*x*y",
            "1/2*(x*y + y*x)",
            "[x*y, z] + <x, y, z*w>",
            "a1*b2 - b2*a1",
        ],
    )
    def test_render_parse_fixed_point(self, source):
        once = render(parse(source))
        assert render(parse(once)) == once

    def test_left_associative_products(self):
        assert poly("x*y*z") == poly("(x*y)*z")
        assert poly("x*y*z") != poly("x*(y*z)")

    def test_bracket_sugar_matches_expansion(self):
        x, y, z = (Polynomial.of(QQ, leaf(g)) for g in range(3))
        assert poly("[x,y]", variables=("x", "y")) == commutator(x, y)
        assert poly("<x,y,z>") == associator(x, y, z)
        assert poly("{x,y}", variables=("x", "y")) == jordan(x, y)

    def test_scalar_coefficients(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        assert poly("2*x*y", variables=("x", "y")) == multiply(x, y).scaled(2)
        assert poly("-3/2*x*y", variables=("x", "y")) == multiply(x, y).scaled(
            QQ.from_fraction(Fraction(-3, 2))
        )

    def test_variables_sorted(self):
        assert variables_of(parse("z*y - y*z + x*(y*z)")) == ("x", "y", "z")

    def test_variable_tokens(self):
        assert variables_of(parse("a1*b12")) == ("a1", "b12")

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
            parse(source)
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "source,offset",
        [("9" * 4400 + "*x", 0), ("x - 2/" + "9" * 4400 + "*y", 6), ("\u00b2*x", 0)],
        ids=["numerator-4400-digits", "denominator-4400-digits", "superscript-two"],
    )
    def test_unreadable_number_literals_are_syntax_errors(self, source, offset):
        # past Python's 4300-digit limit for int(), or a digit int() refuses
        with pytest.raises(ExprSyntaxError) as exc:
            parse(source)
        assert exc.value.offset == offset

    def test_too_deep_is_a_syntax_error_at_the_crossing_token(self):
        for source, offset in TOO_DEEP:
            with pytest.raises(ExprSyntaxError) as exc:
                parse(source)
            assert exc.value.offset == offset
            assert f"deeper than {MAX_DEPTH} levels" in str(exc.value)

    def test_trees_at_the_depth_bound_parse_expand_and_render(self):
        n = MAX_DEPTH
        nested = "(" * n + "x" + ")" * n
        total = " + ".join(["x"] * (n + 1))
        chain = "*".join(["x"] * (n + 1))
        for source in (nested, total, chain):
            ast = parse(source)
            expand(ast, QQ)
            assert parse(render(ast)) == ast
        # a bracket level costs the most frames; its expansion is 2^n terms
        ast = parse("[" * n + "x" + ",y]" * n)
        assert variables_of(ast) == ("x", "y")
        assert render(ast) == "[" * n + "x" + ",y]" * n

    def test_empty_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("")
        with pytest.raises(ExprSyntaxError):
            parse("   ")


class TestExpansion:
    def test_commutator_two_terms(self):
        p = poly("[x,y]", variables=("x", "y"))
        assert len(p.terms) == 2

    def test_expansion_respects_field(self):
        p = poly("x*y + x*y", GF(2), variables=("x", "y"))
        assert not p

    def test_half_coefficient_rejected_mod_two(self):
        with pytest.raises(FieldError):
            poly("1/2*x*y", GF(2), variables=("x", "y"))

    def test_unknown_variable_in_explicit_list(self):
        with pytest.raises(InputError):
            poly("x*q", variables=("x", "y"))

    def test_renderer_output_reparses_to_same_polynomial(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        p = (
            commutator(x, y)
            .scaled(2)
            .add(multiply(x, x).scaled(QQ.parse("-1/3")))
        )
        text = render_polynomial(p, key_gens=2)
        assert poly(text, variables=("x1", "x2")) == p


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
