"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Polynomials are stored canonically: a fixed ordered variable registry and a
mapping from exponent vectors to nonzero integer coefficients.  Values are
immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter, mul


class PolyError(Exception):
    pass


class BudgetExceeded(PolyError):
    """Raised when a search or an enumeration runs out of its configured budget."""


class RegistryMismatch(PolyError):
    pass


class ParseError(PolyError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grlex_key(term):
    """Graded-lex key of an (exponents, coefficient) term, by registry order."""
    expo = term[0]
    return sum(expo), expo


def _mul_terms(t1, t2):
    """Product of two term dicts, zero coefficients dropped."""
    terms = {}
    for e1, v1 in t1.items():
        for e2, v2 in t2.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + v1 * v2
    return {e: v for e, v in terms.items() if v}


class MPoly:
    """Sparse polynomial in Z[registry].

    The public constructor validates and normalizes its input: each
    coefficient and exponent must be an int (a bool is one), and no
    exponent negative.  Results computed from already-valid polynomials
    are built with the private ``MPoly._make(registry, terms)``, which
    checks nothing.  Only code in this module may call it, and the caller
    guarantees the invariant: ``registry`` is a tuple, every key of
    ``terms`` is a tuple of nonnegative ints of length ``len(registry)``,
    every value is a nonzero int, and ``terms`` is a fresh dict that
    nothing else holds.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry, terms):
        registry = tuple(registry)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != len(registry):
                raise PolyError("exponent vector length does not match registry")
            if not isinstance(coeff, int) or not all(isinstance(e, int) and e >= 0 for e in expo):
                raise PolyError(f"term {coeff!r} at {expo!r}: not an int, or not ints >= 0")
            if coeff:
                clean[expo] = int(coeff)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, registry, terms):
        obj = object.__new__(cls)
        object.__setattr__(obj, "registry", registry)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, registry):
        return cls(registry, {})

    @classmethod
    def const(cls, registry, c):
        registry = tuple(registry)
        return cls(registry, {(0,) * len(registry): c})

    @classmethod
    def var(cls, registry, name, power=1):
        registry = tuple(registry)
        if name not in registry:
            raise PolyError(f"unknown variable {name!r}")
        expo = tuple(power if v == name else 0 for v in registry)
        return cls(registry, {expo: 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise PolyError("not a constant polynomial")
        return self.terms.get((0,) * len(self.registry), 0)

    def degree_in(self, name):
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.registry.index(name)
        return max(e[i] for e in self.terms)

    def total_degree(self, names=None):
        """Total degree in the given variables (all by default); -1 if zero."""
        if not self.terms:
            return -1
        if names is None:
            idx = range(len(self.registry))
        else:
            idx = [self.registry.index(n) for n in names]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def variables(self):
        """Registry names actually appearing with positive degree."""
        out = []
        for i, name in enumerate(self.registry):
            if any(e[i] > 0 for e in self.terms):
                out.append(name)
        return out

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=_grlex_key, reverse=True)

    def leading_coefficient(self):
        """Coefficient of the graded-lex leading term (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(self.terms.items(), key=_grlex_key)[1]

    def content(self):
        """gcd of all coefficients; 0 for the zero polynomial."""
        return math.gcd(*self.terms.values()) if self.terms else 0

    def primitive_part(self):
        """self // content; zero stays zero."""
        c = self.content()
        if c <= 1:
            return self
        return MPoly._make(self.registry, {e: v // c for e, v in self.terms.items()})

    def coefficients(self, names):
        """This polynomial as one in `names` with coefficients in the other names.

        Returns {exponent tuple over `names`: coefficient}, ascending by key.
        Each coefficient keeps this registry and has degree 0 in `names`; the
        zero polynomial has no coefficients.
        """
        idx = [self.registry.index(n) for n in names]
        keep = [int(name not in names) for name in self.registry]
        groups = {}
        for expo, coeff in self.terms.items():
            key = tuple(expo[i] for i in idx)
            groups.setdefault(key, {})[tuple(map(mul, expo, keep))] = coeff
        return {key: MPoly._make(self.registry, groups[key]) for key in sorted(groups)}

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.registry, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.registry != self.registry:
            raise RegistryMismatch(
                f"registries differ: {self.registry} vs {other.registry}"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, v in other.terms.items():
            terms[e] = terms.get(e, 0) + v
        return MPoly._make(self.registry, {e: v for e, v in terms.items() if v})

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.registry, {e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return MPoly._make(self.registry, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PolyError("negative power")
        if n == 0:
            return MPoly.const(self.registry, 1)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.registry, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((self.registry, frozenset(self.terms.items())))

    # -- substitution -------------------------------------------------

    def substitute(self, bindings, registry=None):
        """Ring-map image on `registry` (by default this polynomial's own).

        A bound name takes its value: an int, or an MPoly on `registry`.
        Every other occurring name goes to the variable of the same name in
        `registry`; one missing there is a PolyError.  Integer values are
        folded into the coefficients; polynomial values multiply the moved
        monomial.
        """
        src = self.registry
        reg = src if registry is None else tuple(registry)
        ints, polys = [], {}
        for name, val in bindings.items():
            if name not in src:
                raise PolyError(f"unknown variable {name!r} in substitution")
            if isinstance(val, int):
                ints.append((src.index(name), val))
            elif val.registry != reg:
                raise RegistryMismatch("bound polynomial has a different registry")
            else:
                polys[src.index(name)] = val
        bound = {i for i, _ in ints} | polys.keys()
        free = {name: i for i, name in enumerate(src) if i not in bound}
        for name, i in free.items():
            if name not in reg and any(e[i] for e in self.terms):
                raise PolyError(f"variable {name!r} missing from target registry")
        # target slot j reads slot slots[j] of expo + (0,), where index len(src) is 0;
        # a one-index itemgetter returns no tuple
        slots = [free.get(name, len(src)) for name in reg]
        move = itemgetter(*slots) if len(slots) > 1 else lambda e: tuple(e[j] for j in slots)

        # cache powers of each bound polynomial
        powcache = {i: {} for i in polys}

        def power(i, e):
            cache = powcache[i]
            if e not in cache:
                cache[e] = (polys[i] ** e).terms
            return cache[e]

        # one pass, accumulating in place; a sum that cancels is deleted at
        # once, so terms keep the order that adding the parts with `+` gives
        total = {}
        for expo, coeff in self.terms.items():
            for i, v in ints:
                if expo[i]:
                    coeff *= v ** expo[i]
            if not coeff:
                continue
            part = {move(expo + (0,)): coeff}
            for i in polys:
                if expo[i]:
                    part = _mul_terms(part, power(i, expo[i]))
            for e, v in part.items():
                v += total.get(e, 0)
                if v:
                    total[e] = v
                else:
                    del total[e]
        return MPoly._make(reg, total)

    def evaluate(self, point):
        """Integer value at a full integer point {name: int}."""
        for name in point:
            if name not in self.registry:
                raise PolyError(f"unknown variable {name!r}")
        total = 0
        for expo, coeff in self.terms.items():
            v = coeff
            for i, e in enumerate(expo):
                if e:
                    name = self.registry[i]
                    if name not in point:
                        raise PolyError(f"no value for variable {name!r}")
                    v *= point[name] ** e
            total += v
        return total

    def rename(self, registry, mapping=None):
        """Copy onto another registry; mapping renames variables.

        The substitution of `MPoly.var(registry, new)` for each occurring
        mapped name, so every occurring name must land in `registry`.
        """
        registry, mapping = tuple(registry), mapping or {}
        bindings = {}
        for name in self.variables():
            if name in mapping:
                new = mapping[name]
                if new not in registry:
                    raise PolyError(f"variable {new!r} missing from target registry")
                bindings[name] = MPoly.var(registry, new)
        return self.substitute(bindings, registry)

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.registry, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MPoly({self})"


def _names(names):
    """`names` as a tuple; one bare str, which tuple() would split, is a PolyError."""
    if isinstance(names, str):
        raise PolyError(f"names {names!r} must be a tuple of str, not a str")
    return tuple(names)


def _distinct(names):
    """`names` as a tuple (see `_names`); a repeated name is a PolyError."""
    names = _names(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise PolyError(f"repeated name {name!r}")
    return names


@dataclass(frozen=True)
class VarSplit:
    """Ordered partition of a registry into parameters and variables."""

    params: tuple
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", _names(self.params))
        object.__setattr__(self, "variables", _names(self.variables))
        if set(self.params) & set(self.variables):
            raise PolyError("parameter and variable names overlap")
        _distinct(self.params + self.variables)
        if not self.variables:
            raise PolyError("at least one variable is required")

    @property
    def k(self):
        return len(self.params)

    @property
    def n(self):
        return len(self.variables)

    def check_registry(self, registry):
        missing = (set(self.params) | set(self.variables)) - set(registry)
        if missing:
            raise PolyError(f"split names not in registry: {sorted(missing)}")


def dense(P, name):
    """Coefficient list of P in one name, constant term first; [] for zero.

    Terms are summed over the other names, so P should involve no other.
    """
    i = P.registry.index(name)
    out = [0] * (P.degree_in(name) + 1)
    for expo, coeff in P.terms.items():
        out[expo[i]] += coeff
    return out


def coefficient_rows(P, others, main, monos):
    """P compiled for evaluation at many points of `others`: a row per degree in `main`.

    Row k lists (c, j) for each term c * m * main^k of P, where the dict `monos`, which
    this call extends, numbers m by its exponents over `others`.  P has no other name.
    """
    idx, i = [P.registry.index(n) for n in others], P.registry.index(main)
    rows = [[] for _ in range(max(P.degree_in(main), 0) + 1)]
    for expo, c in P.terms.items():
        rows[expo[i]].append((c, monos.setdefault(tuple([expo[k] for k in idx]), len(monos))))
    return rows


def undense(coeffs, registry, name):
    """The MPoly in `name` with coefficient list `coeffs`; the inverse of `dense`."""
    i = tuple(registry).index(name)
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            expo = [0] * len(registry)
            expo[i] = e
            terms[tuple(expo)] = c
    return MPoly(registry, terms)


def reduce_mod(P, m):
    """The MPoly of P's coefficients reduced into [0, m), m >= 2; zero residues drop."""
    if m < 2:
        raise PolyError("modulus must be >= 2")
    return MPoly._make(P.registry, {e: r for e, c in P.terms.items() if (r := c % m)})


# -- parser ----------------------------------------------------------

_WHITESPACE = " \t\r\n"
_DIGITS = "0123456789"  # str.isdigit also accepts "²" and "٣"


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def peek(self):
        self._skip()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_op(self, chars):
        c = self.peek()
        if c is not None and c in chars:
            self.pos += 1
            return c
        return None

    def take_int(self):
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected integer", start)
        return int(self.text[start : self.pos])

    def take_ident(self):
        self._skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
        if self.pos == start:
            raise ParseError("expected identifier", start)
        return self.text[start : self.pos]


def identifiers(text):
    """Names in an expression, in order of appearance, as `parse_poly` reads them."""
    toks = _Tokens(text)
    out = []
    while (c := toks.peek()) is not None:
        if c.isalpha():
            out.append(toks.take_ident())
        else:
            toks.pos += 1
    return out


def parse_poly(text, registry):
    """Parse an expression into canonical MPoly form.

    Grammar: integers, registered identifiers, + - * ^ and parentheses.
    Multiplication is always explicit.  The registry names must be distinct.
    Nesting past the interpreter's recursion limit is a ParseError.
    """
    registry = _distinct(registry)
    toks = _Tokens(text)

    def parse_expr():
        # a run of signs, then a term; a term after the first needs a sign
        result = None
        while True:
            sign = 0  # 0 until the run has a sign
            while c := toks.take_op("+-"):
                sign = -(sign or 1) if c == "-" else sign or 1
            if result is not None and not sign:
                return result
            term = parse_term()
            if sign < 0:
                term = -term
            result = term if result is None else result + term

    def parse_term():
        result = parse_factor()
        while toks.take_op("*"):
            result = result * parse_factor()
        return result

    def parse_factor():
        base = parse_base()
        if toks.take_op("^"):
            e = toks.take_int()
            return base**e
        return base

    def parse_base():
        c = toks.peek()
        if c is None:
            raise ParseError("unexpected end of expression", toks.pos)
        if c == "(":
            toks.take_op("(")
            inner = parse_expr()
            if not toks.take_op(")"):
                raise ParseError("expected ')'", toks.pos)
            return inner
        if c == "-":
            toks.take_op("-")
            return -parse_factor()
        if c in _DIGITS:
            return MPoly.const(registry, toks.take_int())
        if c.isalpha():
            pos = toks.pos
            name = toks.take_ident()
            if name not in registry:
                raise ParseError(f"unknown identifier {name!r}", pos)
            return MPoly.var(registry, name)
        raise ParseError(f"unexpected character {c!r}", toks.pos)

    try:
        result = parse_expr()
    except RecursionError:  # four frames per parenthesis
        raise ParseError("expression nested too deeply", toks.pos) from None
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.peek()!r}", toks.pos)
    return result
