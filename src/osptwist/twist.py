"""Twist chain on osp(1|4): the jordanian, extension, super and coboundary
factors, the second super-jordanian link built on deformed (tilded)
generators, their compositions, cocycle certificates, and twisted
coproducts.

The chain is written once, as one recipe, and evaluated over two rings.

* Ingredients (:class:`_Link`, :class:`_Ingredients`).  A jordanian link
  has a raising element x, and its scalars are power series in x:
  sigma = 1/2 log(1+x), e^(+-sigma) = (1+x)^(+-1/2), f1 = (e^sigma + 1)^(-1)
  and u^(+-1) = (1/2 (e^sigma + 1))^(+-1/2).  They are written once and
  evaluated for the long raising element X+ and for its deformed partner
  Y~.  The deformed generators Y~ and w~ are defined by conjugation with
  exp of the inner element -(Z+ U+ / 2)(sigma/X+); their closed forms are
  kept as an independent route.  An ingredient source supplies only the
  generators, ``gen``; the recipe calls its ring elements directly, which
  follow the :class:`~osptwist.scalars.Ring` protocol: ``one_like()``,
  ``exp()`` and ``series(stream)``, a Taylor stream summed in a nilpotent
  element by the ring's one series entry, which bounds the sum and
  refuses an element that is not nilpotent (a truncated element that is
  not grade-positive, a matrix with A**(dim+1) != 0).
* Factor recipe (:func:`_build`).  Every factor is written against a
  two-slot context: ``slots`` holds the ingredients of the first and of
  the second tensor slot, and the context supplies ``tensor``,
  ``coproduct`` (of an ingredient), factor-by-factor ``conjugate`` and
  the memoized ``factor``.

The two rings:

* The enveloping-algebra level (:class:`_Workshop`): elements of U(g)^(x)k
  truncated by the additive principal grade (:mod:`pbw`).  This certifies
  the identities "mod degree > D" for the chosen bound.  Both slots hold
  the same ingredients, ``tensor`` is the elementary tensor and
  ``coproduct`` the undeformed one.
* The representation level (:class:`RepAssignment`, :class:`_RepPair`):
  every generator is sent to an exact matrix in rho^(x)k, one assignment
  per slot.  Since the undeformed coproduct is an algebra map, the
  ingredients of the summed assignment (each generator sent to its total
  coproduct image) are the coproducts of the ingredients -- which is what
  makes the cocycle sides computable without touching the enveloping
  algebra at all.  The matrix cocycle residual assigns each leg set of
  rho^(x)3 once, so both coproduct sides share the sum over all three
  legs, and its F12 and F23 are the chain on rho^(x)2 embedded in two
  legs.  All matrix series terminate (nilpotency), so those certificates
  are exact.

The two arithmetic engines stay separate, so each is the other's oracle.

A twist keeps the ordered factors of its chain.  Its inverse is the
product of the factor inverses in reverse order, and its twisted coproduct
conjugates by one factor at a time, innermost first; each factor's inverse
is computed once per (rank, degree) and shared by every twist built there.
Every letter of the chain has nonnegative grade, where the grade cut is a
two-sided ideal (see :mod:`pbw`), so the results are exactly those of the
whole element in the truncated algebra whenever the conjugated element's
letters have nonnegative grade too.

Naming: the factor kinds are "jordanian" (exp(h (x) half-log)),
"extension" (the even-root exponential riding on it), "super" (the
odd-root factor in its factorized form), "coboundary" (inner factor
(u (x) u) coproduct(1/u)), and "sj2" (the second super-jordanian link
built from the tilded generators, including its own jordanian part,
"jordanian2").
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, wraps
from itertools import islice

from .algebra import OspAlgebra
from .errors import LegMismatch, MissingAlias
from .pbw import UEElement, UETensor, product_difference, ue_invert
from .repmat import GradedMatrix, embed_legs
from .scalars import taylor_binomial, taylor_geometric, taylor_log1p

FACTOR_KINDS = ("jordanian", "extension", "super", "coboundary", "sj2")
ESJ_KINDS = ("super", "extension", "jordanian")
FULL_CHAIN_KINDS = ("sj2",) + ESJ_KINDS

HALF = Fraction(1, 2)


class TwistFactor:
    """One factor of a twist chain; its inverse is computed on first use
    and kept, so every twist holding this object shares it."""

    __slots__ = ("element", "_inverse")

    def __init__(self, element: UETensor):
        self.element = element
        self._inverse = None

    @property
    def inverse(self) -> UETensor:
        if self._inverse is None:
            self._inverse = ue_invert(self.element)
        return self._inverse


def _product(elements):
    """Product in the listed order, multiplied from the right end (a chain
    lists its large outer factor first)."""
    acc = elements[-1]
    for el in reversed(elements[:-1]):
        acc = el * acc
    return acc


def _conjugate(factors, t: UETensor) -> UETensor:
    """F * t * F^(-1) for F the product of ``factors``, one factor at a
    time, innermost (last) first."""
    for f in reversed(factors):
        t = f.element * t * f.inverse
    return t


class Twist:
    """A twist element of U(g) (x) U(g) with provenance.

    ``factors`` are the TwistFactor objects whose product, in the listed
    order, is ``element``; a twist made from a bare element is its own
    single factor.  ``factorization`` names the factors the element was
    built from."""

    __slots__ = ("factors", "element", "factorization", "_inverse")

    def __init__(self, factors, factorization):
        if isinstance(factors, UETensor):
            factors = (TwistFactor(factors),)
        factors = tuple(factors)
        if not factors:
            raise LegMismatch("a twist needs at least one factor")
        if any(f.element.legs != 2 for f in factors):
            raise LegMismatch("a twist must have exactly 2 tensor legs")
        self.factors = factors
        self.element = _product([f.element for f in factors])
        self.factorization = tuple(factorization)
        self._inverse = None

    @property
    def algebra(self):
        return self.element.algebra

    @property
    def g2cap(self):
        return self.element.g2cap

    @property
    def inverse(self) -> UETensor:
        """F^(-1): the factor inverses multiplied in reverse order."""
        if self._inverse is None:
            self._inverse = _product([f.inverse for f in reversed(self.factors)])
        return self._inverse

    def counit_ok(self) -> bool:
        """(eps (x) id)F = 1 = (id (x) eps)F, where eps kills generators."""
        return self.element.counits_are_one()

    def __repr__(self):
        return "Twist(%s)" % " * ".join(self.factorization)


# --------------------------------------------------------------------------
# Ingredients, over any ring
# --------------------------------------------------------------------------


def _memoized(method):
    """Keep each result of ``method`` in the instance's ``_made`` dict,
    keyed by the method's name and arguments."""
    name = method.__name__

    @wraps(method)
    def get(self, *args):
        key = (name,) + args
        made = self._made
        if key not in made:
            made[key] = method(self, *args)
        return made[key]

    return get


def _binomial(alpha):
    """The Taylor stream of (1 + y)**alpha."""
    return partial(taylor_binomial, Fraction(alpha))


class _Link:
    """The scalars of one jordanian link as functions of its raising
    element x, in x's own ring; ``raising()`` returns x."""

    def __init__(self, x=None):
        self._x = x
        self._made: dict = {}

    def raising(self):
        return self._x

    @_memoized
    def sigma(self):
        # half the logarithm of 1 + x
        return self.raising().series(taylor_log1p).scale(HALF)

    @_memoized
    def exp_sigma(self):
        return self.raising().series(_binomial(HALF))

    @_memoized
    def exp_neg_sigma(self):
        return self.raising().series(_binomial(-HALF))

    @_memoized
    def _half_sum_minus_one(self):
        # y with 1 + y = 1/2 (e^sigma + 1)
        e = self.exp_sigma()
        return (e - e.one_like()).scale(HALF)

    @_memoized
    def f1(self):
        # (e^sigma + 1)^(-1) = 1/2 (1 + y)^(-1)
        return self._half_sum_minus_one().series(taylor_geometric).scale(HALF)

    @_memoized
    def u_elem(self):
        # (1/2 (e^sigma + 1))^(1/2)
        return self._half_sum_minus_one().series(_binomial(HALF))

    @_memoized
    def u_inv(self):
        return self._half_sum_minus_one().series(_binomial(-HALF))


class _Ingredients(_Link):
    """Everything the factor recipe takes from one ring: the generators,
    the link of X+ (this object), the deformed generators and the link of
    Y~ (``tilde``).  Subclasses supply ``gen``; no attribute holds self."""

    def raising(self):
        return self.gen("X+")

    @_memoized
    def tilde(self) -> _Link:
        """The second link, built on Y~."""
        return _Link(self.y_tilde())

    @_memoized
    def _conjugators(self):
        # exp(+-c) for c = -(Z+ U+ / 2)(sigma/X+), where the element
        # sigma/X+ := 1/2 sum_k (-X+)^k/(k+1) has a constant term, which is
        # why it is defined by this series rather than as a quotient;
        # over_x below is twice it
        over_x = self.gen("X+").series(lambda: islice(taylor_log1p(), 1, None))
        c = (self.gen("Z+") * self.gen("U+") * over_x).scale(Fraction(-1, 4))
        return c.exp(), (-c).exp()

    def _conjugate_gen(self, name):
        e, e_inv = self._conjugators()
        return e * self.gen(name) * e_inv

    @_memoized
    def y_tilde(self):
        return self._conjugate_gen("Y+")

    @_memoized
    def w_tilde(self):
        return self._conjugate_gen("w+")

    def y_tilde_closed(self):
        # Y+ - 1/4 U+^2 e^(-2 sigma);  e^(-2 sigma) = (1+X+)^(-1)
        exp_m2 = self.gen("X+").series(taylor_geometric)
        return self.gen("Y+") - (self.gen("U+") ** 2 * exp_m2).scale(
            Fraction(1, 4)
        )

    def w_tilde_closed(self):
        # w+ - 1/2 v+ U+ e^(-sigma) (e^sigma + 1)^(-1)
        return self.gen("w+") - (
            self.gen("v+") * self.gen("U+") * self.exp_neg_sigma() * self.f1()
        ).scale(HALF)


# --------------------------------------------------------------------------
# The factor recipe, over any two-slot context
# --------------------------------------------------------------------------


def _first(ingredients) -> _Link:
    return ingredients


def _second(ingredients) -> _Link:
    return ingredients.tilde()


def _odd_part(ctx, odd, link):
    """1 - g (x) g with g = odd * f1 of the link."""
    a, b = ctx.slots
    ga, gb = odd(a) * link(a).f1(), odd(b) * link(b).f1()
    return ctx.tensor(ga.one_like(), gb.one_like()) - ctx.tensor(ga, gb)


def _coboundary(ctx, link, rides_on):
    """(u (x) u) times the coproduct of 1/u taken in the algebra the
    factor rides on: the undeformed coproduct conjugated by the factors
    ``rides_on``.  (With the plain coproduct the super chain would fail
    the cocycle identity at fourth order in the long raising element.)"""
    a, b = ctx.slots
    du = ctx.conjugate(rides_on, ctx.coproduct(lambda ing: link(ing).u_inv()))
    return ctx.tensor(link(a).u_elem(), link(b).u_elem()) * du


def _build(ctx, kind: str):
    """The factor ``kind`` in the two-slot context ``ctx``."""
    a, b = ctx.slots
    if kind == "jordanian":
        return ctx.tensor(a.gen("H"), b.sigma()).exp()
    if kind == "extension":
        return (
            ctx.tensor(a.gen("Z+"), b.gen("U+") * b.exp_neg_sigma()).scale(HALF)
        ).exp()
    if kind == "coboundary":
        return _coboundary(ctx, _first, ("jordanian",))
    if kind == "super":
        odd = _odd_part(ctx, lambda ing: ing.gen("v+"), _first)
        return odd * ctx.factor("coboundary")
    if kind == "jordanian2":
        return ctx.tensor(a.gen("J"), b.tilde().sigma()).exp()
    if kind == "sj2":
        # the second coboundary rides on the chain-twisted structure,
        # further twisted by the second jordanian factor
        odd = _odd_part(ctx, lambda ing: ing.w_tilde(), _second)
        ctilde = _coboundary(ctx, _second, ("jordanian2",) + ESJ_KINDS)
        return odd * ctilde * ctx.factor("jordanian2")
    raise MissingAlias(
        "unknown twist factor %r; expected one of %s"
        % (kind, ", ".join(FACTOR_KINDS))
    )


# --------------------------------------------------------------------------
# Enveloping-algebra level (memoized per algebra and cap)
# --------------------------------------------------------------------------


class _Workshop(_Ingredients):
    """Lazily builds and caches the chain ingredients and factors at one
    truncation; both slots of its factor context are itself."""

    def __init__(self, algebra: OspAlgebra, g2cap: int):
        self.algebra = algebra
        self.g2cap = g2cap
        super().__init__()

    @property
    def slots(self):
        # made on reading: a stored (self, self) would hold self
        return (self, self)

    @_memoized
    def gen(self, name: str) -> UEElement:
        return UEElement.generator(self.algebra, name, self.g2cap)

    def tensor(self, x: UEElement, y: UEElement) -> UETensor:
        return UETensor.of(x, y, g2cap=self.g2cap)

    def coproduct(self, ingredient) -> UETensor:
        return ingredient(self).coproduct()

    def conjugate(self, kinds, t: UETensor) -> UETensor:
        return _conjugate([self.twist_factor(k) for k in kinds], t)

    @_memoized
    def factor(self, kind: str) -> UETensor:
        return _build(self, kind)

    @_memoized
    def twist_factor(self, kind: str) -> TwistFactor:
        """The named factor with its inverse, shared by every twist built
        at this truncation."""
        return TwistFactor(self.factor(kind))


def workshop(algebra: OspAlgebra, degree: int = 6) -> _Workshop:
    """The ingredient builder for (algebra, degree), memoized on the
    algebra instance itself, so its factors are built on that instance
    and never on another one of the same rank.  ``degree`` is the
    user-facing truncation: all identities are certified for filtration
    degree <= degree (internally the cut is by doubled principal grade
    2*degree, which is a two-sided ideal among the chain's
    grade-nonnegative letters, so every surviving coefficient is exact)."""
    made = algebra.__dict__.setdefault("_workshops", {})
    ws = made.get(degree)
    if ws is None:
        ws = made[degree] = _Workshop(algebra, 2 * degree)
    return ws


# --------------------------------------------------------------------------
# Public constructors and certificates
# --------------------------------------------------------------------------


def _chain(algebra: OspAlgebra, kinds, degree: int) -> Twist:
    ws = workshop(algebra, degree)
    return Twist([ws.twist_factor(k) for k in kinds], kinds)


def build_factor(algebra: OspAlgebra, kind: str, degree: int = 6) -> Twist:
    """One named factor of the chain as a Twist (see module docstring for
    the kind names).  Raises MissingAlias when the algebra lacks the
    worked low-rank labels (the chain is specific to osp(1|4)) or when the
    kind is unknown."""
    return _chain(algebra, (kind,), degree)


def extended_super_jordanian(algebra: OspAlgebra, degree: int = 6) -> Twist:
    """The three-factor chain: super * extension * jordanian."""
    return _chain(algebra, ESJ_KINDS, degree)


def full_chain(algebra: OspAlgebra, degree: int = 6) -> Twist:
    """The complete twist: the second (tilded) super-jordanian link times
    the extended-super-jordanian chain."""
    return _chain(algebra, FULL_CHAIN_KINDS, degree)


def cocycle_residual(f: Twist) -> UETensor:
    """F12 * (cop (x) id)(F)  -  F23 * (id (x) cop)(F), a 3-leg tensor.

    Zero certifies the cocycle identity for the undeformed coproduct at
    the working truncation.  Both products are summed together one grade
    slice at a time (:func:`~osptwist.pbw.product_difference`), so a
    passing residual never holds more than one slice."""
    el = f.element
    f12 = el.embed((1, 2), 3)
    f23 = el.embed((2, 3), 3)
    return product_difference(
        f12, el.coproduct_leg(1), f23, el.coproduct_leg(2)
    )


def twisted_coproduct(f: Twist, x: UEElement) -> UETensor:
    """F * cop0(x) * F^(-1), conjugating by one factor of F at a time."""
    return _conjugate(f.factors, x.coproduct())


def primitive_part(x: UEElement) -> UETensor:
    """cop0-primitive pattern x (x) 1 + 1 (x) x (for comparisons)."""
    one = UEElement.one(x.algebra, x.g2cap)
    return UETensor.of(x, one, g2cap=x.g2cap) + UETensor.of(
        one, x, g2cap=x.g2cap
    )


# --------------------------------------------------------------------------
# Representation level: exact matrices
# --------------------------------------------------------------------------


class RepAssignment(_Ingredients):
    """Sends generator names to exact matrices in some tensor power of the
    defining space; the ingredients are built from these images alone, so
    the same recipe builds the factor, its coproduct images, and their
    chains."""

    def __init__(self, algebra: OspAlgebra, images: dict):
        self.algebra = algebra
        self.images = images
        super().__init__()

    def gen(self, name: str) -> GradedMatrix:
        return self.images[name]

    def __add__(self, other: "RepAssignment") -> "RepAssignment":
        """Pointwise sum: with one summand per leg set this is exactly the
        undeformed-coproduct image of each generator."""
        images = {
            nm: self.images[nm] + other.images[nm] for nm in self.images
        }
        return RepAssignment(self.algebra, images)


_REP_NAMES = ("H", "J", "Z+", "U+", "X+", "Y+", "v+", "w+")


def rep_leg(algebra: OspAlgebra, leg: int, total: int) -> RepAssignment:
    """Generators acting on one leg of rho^(x)total."""
    images = {
        nm: embed_legs(algebra.generator_matrix(nm), algebra.pv, (leg,), total)
        for nm in _REP_NAMES
    }
    return RepAssignment(algebra, images)


class _RepPair:
    """The factor context at the matrix level: the first tensor slot sent
    through assignment ``a``, the second through ``b``; coproducts are the
    ingredients of the summed assignment ``total``, which sends each
    generator to its undeformed-coproduct image (a+b unless the caller
    shares one it holds).  Factors and their inverses are memoized, so a
    chain shares the factors it repeats."""

    def __init__(self, a: RepAssignment, b: RepAssignment, total=None):
        self.slots = (a, b)
        self.total = a + b if total is None else total
        self._made: dict = {}

    def tensor(self, x: GradedMatrix, y: GradedMatrix) -> GradedMatrix:
        return x @ y

    def coproduct(self, ingredient) -> GradedMatrix:
        return ingredient(self.total)

    def conjugate(self, kinds, t: GradedMatrix) -> GradedMatrix:
        for kind in reversed(kinds):
            t = self.factor(kind) @ t @ self.inverse(kind)
        return t

    @_memoized
    def factor(self, kind: str) -> GradedMatrix:
        return _build(self, kind)

    @_memoized
    def inverse(self, kind: str) -> GradedMatrix:
        # every factor is unipotent
        f = self.factor(kind)
        return (f - f.one_like()).series(taylor_geometric)


def rep_factor(
    algebra: OspAlgebra, kind: str, a: RepAssignment, b: RepAssignment
) -> GradedMatrix:
    """The named factor with the first tensor slot of its defining
    expression sent through assignment ``a`` and the second through ``b``;
    the inner coboundary pieces take their coproduct images from a+b."""
    return _RepPair(a, b).factor(kind)


def rep_chain(kinds, a, b, total=None) -> GradedMatrix:
    """Product of factor matrices in the listed order; repeated kinds in
    one call (the second link conjugates by the first chain) are shared.
    ``total`` is the summed assignment a+b, when the caller has it."""
    pair = _RepPair(a, b, total)
    return _product([pair.factor(k) for k in kinds])


def rep_cocycle_residual(algebra: OspAlgebra, kinds) -> GradedMatrix:
    """Exact matrix form of the cocycle residual in rho^(x)3 for the chain
    with the given factor kinds (product in listed order).  F12 and F23
    are the chain on rho^(x)2 (:func:`rep_twist_matrix`) embedded in legs
    (1,2) and (2,3).  The coproduct sides put the summed assignment of two
    legs, their undeformed-coproduct image, in one slot; each leg set is
    assigned once per call, and both sides take their coproducts from the
    one sum over all three legs."""
    l1, l2, l3 = (rep_leg(algebra, leg, 3) for leg in (1, 2, 3))
    l12, l23 = l1 + l2, l2 + l3
    l123 = l12 + l3
    f = rep_twist_matrix(algebra, kinds)
    f12 = embed_legs(f, algebra.pv, (1, 2), 3)
    f23 = embed_legs(f, algebra.pv, (2, 3), 3)
    cop_left = rep_chain(kinds, l12, l3, l123)
    cop_right = rep_chain(kinds, l1, l23, l123)
    return f12 @ cop_left - f23 @ cop_right


def rep_twist_matrix(algebra: OspAlgebra, kinds) -> GradedMatrix:
    """The chain as an exact matrix on two legs (independent of the
    enveloping-algebra construction; the oracle of the truncated chain,
    and the F12 and F23 of :func:`rep_cocycle_residual`)."""
    return rep_chain(kinds, rep_leg(algebra, 1, 2), rep_leg(algebra, 2, 2))
