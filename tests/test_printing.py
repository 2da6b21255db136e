"""Golden strings for the printed form of elements, tensors and the
``--dump rmatrix`` payload.  The printing code is shared by the three
coefficient-dict classes; these strings pin its output byte for byte:
term order, the "-" folding of negative terms, the parentheses around
multi-term coefficients and the brackets around scaled tensor terms."""

from fractions import Fraction

import pytest

from osptwist import build_osp
from osptwist.cli import dump_payload
from osptwist.pbw import UEElement, UETensor
from osptwist.rmatrix import contraction_limit, wedge
from osptwist.scalars import Poly

ALG = build_osp(2)
IX = ALG.generator_index

DUMP_RMATRIX = {
    1: {
        "jordanian": "h1 (x) (+2e1) - (+2e1) (x) h1",
        "super-jordanian": "h1 (x) (+2e1) - (+2e1) (x) h1 - (+e1) (x) (+e1)",
        "extended-super-jordanian": (
            "h1 (x) (+2e1) - (+2e1) (x) h1 - (+e1) (x) (+e1)"
        ),
        "cascade-symbolic": (
            "a1*[h1 (x) (+2e1)] - a1*[(+2e1) (x) h1] - a1*[(+e1) (x) (+e1)]"
        ),
        "full-borel": "h1 (x) (+2e1) - (+2e1) (x) h1 - (+e1) (x) (+e1)",
    },
    2: {
        "jordanian": "h1 (x) (+2e1) - (+2e1) (x) h1",
        "super-jordanian": "h1 (x) (+2e1) - (+2e1) (x) h1 - (+e1) (x) (+e1)",
        "extended-super-jordanian": (
            "h1 (x) (+2e1) + (+e1-e2) (x) (+e1+e2) - (+e1+e2) (x) (+e1-e2)"
            " - (+2e1) (x) h1 - (+e1) (x) (+e1)"
        ),
        "cascade-symbolic": (
            "a1*[h1 (x) (+2e1)] + a2*[h2 (x) (+2e2)]"
            " + a1*[(+e1-e2) (x) (+e1+e2)] - a2*[(+2e2) (x) h2]"
            " - a1*[(+e1+e2) (x) (+e1-e2)] - a1*[(+2e1) (x) h1]"
            " - a2*[(+e2) (x) (+e2)] - a1*[(+e1) (x) (+e1)]"
        ),
        "full-borel": (
            "h1 (x) (+2e1) + h2 (x) (+2e2) + (+e1-e2) (x) (+e1+e2)"
            " - (+2e2) (x) h2 - (+e1+e2) (x) (+e1-e2) - (+2e1) (x) h1"
            " - (+e2) (x) (+e2) - (+e1) (x) (+e1)"
        ),
    },
    3: {
        "jordanian": "h1 (x) (+2e1) - (+2e1) (x) h1",
        "super-jordanian": "h1 (x) (+2e1) - (+2e1) (x) h1 - (+e1) (x) (+e1)",
        "extended-super-jordanian": (
            "h1 (x) (+2e1) + (+e1-e2) (x) (+e1+e2) + (+e1-e3) (x) (+e1+e3)"
            " - (+e1+e3) (x) (+e1-e3) - (+e1+e2) (x) (+e1-e2)"
            " - (+2e1) (x) h1 - (+e1) (x) (+e1)"
        ),
        "cascade-symbolic": (
            "a1*[h1 (x) (+2e1)] + a2*[h2 (x) (+2e2)] + a3*[h3 (x) (+2e3)]"
            " + a1*[(+e1-e2) (x) (+e1+e2)] + a2*[(+e2-e3) (x) (+e2+e3)]"
            " + a1*[(+e1-e3) (x) (+e1+e3)] - a3*[(+2e3) (x) h3]"
            " - a2*[(+e2+e3) (x) (+e2-e3)] - a1*[(+e1+e3) (x) (+e1-e3)]"
            " - a2*[(+2e2) (x) h2] - a1*[(+e1+e2) (x) (+e1-e2)]"
            " - a1*[(+2e1) (x) h1] - a3*[(+e3) (x) (+e3)]"
            " - a2*[(+e2) (x) (+e2)] - a1*[(+e1) (x) (+e1)]"
        ),
        "full-borel": (
            "h1 (x) (+2e1) + h2 (x) (+2e2) + h3 (x) (+2e3)"
            " + (+e1-e2) (x) (+e1+e2) + (+e2-e3) (x) (+e2+e3)"
            " + (+e1-e3) (x) (+e1+e3) - (+2e3) (x) h3"
            " - (+e2+e3) (x) (+e2-e3) - (+e1+e3) (x) (+e1-e3)"
            " - (+2e2) (x) h2 - (+e1+e2) (x) (+e1-e2) - (+2e1) (x) h1"
            " - (+e3) (x) (+e3) - (+e2) (x) (+e2) - (+e1) (x) (+e1)"
        ),
    },
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dump_rmatrix_strings(n):
    assert dump_payload("rmatrix", n) == {"n": n, "tensors": DUMP_RMATRIX[n]}


def test_element_string():
    e = UEElement(
        ALG,
        {
            (): 3,
            (IX("+2e1"),): Poly.var("a") + 1,
            (IX("+e1"), IX("+e2")): -1,
            (IX("h1"), IX("h1")): Fraction(1, 2),
            (IX("-e1"),): Poly.var("b"),
        },
    )
    # (+e1)*(+e2) is out of order: it is -(+e2)*(+e1) + [+e1, +e2]
    assert str(e) == (
        "3 - (+e1+e2) + (a + 1)*(+2e1) + b*(-e1) + 1/2*h1^2 + (+e2)*(+e1)"
    )


def test_two_leg_tensor_string():
    t = UETensor(
        ALG,
        {
            ((), ()): 2,
            ((IX("+2e1"),), ()): -1,
            ((IX("h1"),), (IX("+e1"), IX("+e1"))): Fraction(-3, 4),
            ((), (IX("+2e2"),)): Poly.var("eta") * 2 - 1,
            ((IX("+e2"),), (IX("+e1"),)): 1,
        },
        2,
    )
    # the odd square (+e1)^2 is half its bracket, +2e1
    assert str(t) == (
        "2*[1 (x) 1] + (2*eta - 1)*[1 (x) (+2e2)] - (+2e1) (x) 1"
        " - 3/4*[h1 (x) (+2e1)] + (+e2) (x) (+e1)"
    )


def test_lie_tensor_string_with_a_multi_term_coefficient():
    t = wedge(ALG, "+e1", "+e1", Poly.var("a") - 1) + wedge(
        ALG, "h2", "+2e2", Fraction(-1, 3)
    )
    assert str(t) == (
        "-1/3*[h2 (x) (+2e2)] + 1/3*[(+2e2) (x) h2]"
        " + (2*a - 2)*[(+e1) (x) (+e1)]"
    )


def test_zero_prints_as_zero():
    assert str(UEElement.zero(ALG)) == "0"
    assert str(UETensor.zero(ALG, 2)) == "0"
    assert str(wedge(ALG, "h1", "+2e1", 0)) == "0"


def test_contraction_series_parenthesizes_coefficients_with_an_order():
    """A Laurent-series coefficient that carries an order is printed in
    parentheses, its O-term included, even when it has one term: the
    entry -t + O(eps^8) reads as one coefficient of its key."""
    assert str(contraction_limit(ALG).series) == (
        '(1/2*s^-1 + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + 1/60480*s^5*eps^6 - '
        '1/2419200*s^7*eps^8 + O(eps^9))*[h1 (x) h1]'
        ' + (-t + O(eps^8))*[h1 (x) (+2e1)]'
        ' + (1/2*s^-1 + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[h2 (x) h2]'
        ' + (-t + O(eps^8))*[(+e1-e2) (x) (+e1+e2)]'
        ' + (1/2*s^-1 + 1/4*eps + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[(+e1-e2) (x) '
        '(-e1+e2)]'
        ' + (s^-1 + 1/2*eps + 1/12*s*eps^2 - 1/720*s^3*eps^4 + '
        '1/30240*s^5*eps^6 - 1/1209600*s^7*eps^8 + O(eps^9))*[(+2e2) (x) '
        '(-2e2)]'
        ' + (t + O(eps^8))*[(+e1+e2) (x) (+e1-e2)]'
        ' + (1/2*s^-1 + 1/4*eps + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[(+e1+e2) (x) '
        '(-e1-e2)]'
        ' + (t + O(eps^8))*[(+2e1) (x) h1]'
        ' + (s^-1 + 1/2*eps + 1/12*s*eps^2 - 1/720*s^3*eps^4 + '
        '1/30240*s^5*eps^6 - 1/1209600*s^7*eps^8 + O(eps^9))*[(+2e1) (x) '
        '(-2e1)]'
        ' + (1/2*s^-1 + 1/4*eps + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[(+e2) (x) '
        '(-e2)]'
        ' + (t + O(eps^8))*[(+e1) (x) (+e1)]'
        ' + (1/2*s^-1 + 1/4*eps + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[(+e1) (x) '
        '(-e1)]'
        ' + (1/2*s^-1 - 1/4*eps + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[(-e1+e2) (x) '
        '(+e1-e2)]'
        ' + (s^-1 - 1/2*eps + 1/12*s*eps^2 - 1/720*s^3*eps^4 + '
        '1/30240*s^5*eps^6 - 1/1209600*s^7*eps^8 + O(eps^9))*[(-2e2) (x) '
        '(+2e2)]'
        ' + (1/2*s^-1 - 1/4*eps + 1/24*s*eps^2 - 1/1440*s^3*eps^4 + '
        '1/60480*s^5*eps^6 - 1/2419200*s^7*eps^8 + O(eps^9))*[(-e1-e2) (x) '
        '(+e1+e2)]'
        ' + (s^-1 - 1/2*eps + 1/12*s*eps^2 - 1/720*s^3*eps^4 + '
        '1/30240*s^5*eps^6 - 1/1209600*s^7*eps^8 + O(eps^9))*[(-2e1) (x) '
        '(+2e1)]'
        ' + (-1/2*s^-1 + 1/4*eps - 1/24*s*eps^2 + 1/1440*s^3*eps^4 - '
        '1/60480*s^5*eps^6 + 1/2419200*s^7*eps^8 + O(eps^9))*[(-e2) (x) '
        '(+e2)]'
        ' + (-1/2*s^-1 + 1/4*eps - 1/24*s*eps^2 + 1/1440*s^3*eps^4 - '
        '1/60480*s^5*eps^6 + 1/2419200*s^7*eps^8 + O(eps^9))*[(-e1) (x) '
        '(+e1)]'
    )
