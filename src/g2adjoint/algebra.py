"""Exact arithmetic kernel.

Multivariate Laurent polynomials over the integers, truncated formal
power series, and dense matrices over any exact commutative ring.  All
values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads.

Every coefficient is an `int`, never a `bool` or a `float`.  A unit of the
Laurent ring over the integers is plus or minus a monomial, and nothing is
ever divided.
"""

from __future__ import annotations

from operator import add as _add
from operator import itemgetter


class NonInvertibleError(ArithmeticError):
    """An expression that must be a unit of the coefficient ring is not."""


def _scalar(value):
    """The int coefficient of an integer scalar (a bool becomes an int)."""
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"cannot coerce {value!r} to an integer")


def _as_poly(value):
    """A LaurentPoly as it is, and an integer scalar as a constant one; any
    other value is refused with TypeError."""
    if isinstance(value, LaurentPoly):
        return value
    return LaurentPoly.constant(value)


class LaurentPoly:
    """Multivariate polynomial with integer (possibly negative) exponents.

    Terms are stored as a map from exponent vectors to nonzero int
    coefficients; the exponent vector is aligned with `variables`, which
    is kept sorted and free of repeated and unused names so equality is
    plain structural equality.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable name in {variables}")
        clean = {}
        for exps, coeff in ({} if terms is None else terms).items():
            coeff = _scalar(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError("exponent vector length mismatch")
            _accumulate(clean, exps, coeff)
        order = sorted(range(len(variables)), key=variables.__getitem__)
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        variables, clean = _prune(variables, clean)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_normal(cls, variables, terms):
        """Wrap an already normal `terms` map without re-normalizing it.

        The caller guarantees that `variables` is sorted, that every
        exponent vector is aligned with it, that every coefficient is a
        nonzero int and that every variable is used by some term: a caller
        whose terms can drop a variable (a cancelling sum, x * x^-1) prunes
        first.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = _scalar(value)
        return cls._from_normal((), {(): value} if value else {})

    @classmethod
    def monomial(cls, coeff, exponents):
        names = tuple(exponents)
        return cls(names, {tuple(exponents[n] for n in names): coeff})

    @classmethod
    def zero(cls):
        return cls.constant(0)

    @classmethod
    def one(cls):
        return cls.constant(1)

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        """True unless this is the zero polynomial."""
        return bool(self.terms)

    def is_unit(self):
        """A unit of the Laurent ring: one term with coefficient 1 or -1."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def __int__(self):
        """The value of a constant."""
        if self.variables:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), 0)

    def unit_inverse(self):
        if not self.is_unit():
            raise NonInvertibleError(f"not a Laurent unit: {self}")
        # the coefficient, 1 or -1, is its own inverse
        (exps, coeff), = self.terms.items()
        return LaurentPoly._from_normal(
            self.variables, {tuple(-e for e in exps): coeff}
        )

    def min_exponent(self, name):
        """Smallest exponent of `name` over all terms (0 if absent or zero)."""
        if not self.terms:
            return 0
        try:
            i = self.variables.index(name)
        except ValueError:
            return 0
        return min(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _align(self, other):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        names = tuple(sorted(set(self.variables) | set(other.variables)))
        return names, _remap(self, names), _remap(other, names)

    def _plus_int(self, k):
        """self + k for an int k, added into the constant term: that term
        uses no variable, so every variable keeps the term that used it."""
        if not k:
            return self
        out = dict(self.terms)
        _accumulate(out, (0,) * len(self.variables), int(k))
        return LaurentPoly._from_normal(self.variables, out)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return self._plus_int(other) if isinstance(other, int) else NotImplemented
        names, a, b = self._align(other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for exps, coeff in b.items():
            _accumulate(out, exps, coeff)
        return LaurentPoly._from_normal(*_prune(names, out))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._from_normal(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return self._plus_int(-other) if isinstance(other, int) else NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self)._plus_int(other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            # the integers are a domain: a nonzero k keeps every term
            if not other:
                return LaurentPoly._from_normal((), {})
            k = int(other)
            return LaurentPoly._from_normal(
                self.variables, {e: k * c for e, c in self.terms.items()}
            )
        names, a, b = self._align(other)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a single term shifts the other operand's exponents, so no
            # two keys meet and no coefficient cancels
            (e1, c1), = a.items()
            out = {tuple(map(_add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
        else:
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    key = tuple(map(_add, e1, e2))
                    total = out.get(key)
                    out[key] = c1 * c2 if total is None else total + c1 * c2
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._from_normal(*_prune(names, out))

    __rmul__ = __mul__

    def __pow__(self, power):
        if not isinstance(power, int):
            return NotImplemented
        if power < 0:
            return self.unit_inverse() ** (-power)
        if power == 0:
            return LaurentPoly.one()
        if len(self.terms) == 1:
            (exps, coeff), = self.terms.items()
            return LaurentPoly._from_normal(
                self.variables,
                {tuple(power * e for e in exps): coeff ** power},
            )
        result = LaurentPoly.one()
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, (LaurentPoly, int)):
            return NotImplemented
        other = _as_poly(other)
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it must hash like one
        if not self.variables:
            return hash(int(self))
        return hash((self.variables, frozenset(self.terms.items())))

    # -- substitution ------------------------------------------------------

    def subs(self, mapping):
        """Substitute variables by scalars or polynomials, simultaneously.

        A variable mapped to its own symbol counts as not substituted.  A
        variable appearing with a negative exponent may only be replaced
        by a Laurent unit (single-term polynomial).
        """
        images = {}
        for i, name in enumerate(self.variables):
            if name not in mapping:
                continue
            image = _as_poly(mapping[name])
            if image == sym(name):
                continue
            images[i] = image
        if not images:
            return self
        kept = {n for i, n in enumerate(self.variables) if i not in images}
        names = tuple(sorted(kept.union(
            *(image.variables for image in images.values())
        )))
        places = [(i, names.index(n)) for i, n in enumerate(self.variables)
                  if n in kept]
        # a term expands into its kept factors times the product of the
        # cached powers of its images, all aligned with `names`
        powers = {}
        out = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(names)
            for i, p in places:
                key[p] = exps[i]
            expansion = [(tuple(key), coeff)]
            for i, image in images.items():
                e = exps[i]
                if not e:
                    continue
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = list(_remap(image ** e, names).items())
                expansion = [
                    (tuple(map(_add, k1, k2)), c1 * c2)
                    for k1, c1 in expansion
                    for k2, c2 in power
                ]
            for key, c in expansion:
                _accumulate(out, key, c)
        return LaurentPoly._from_normal(*_prune(names, out))

    # -- display -----------------------------------------------------------

    def _term_str(self, exps, coeff):
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(parts)
        if not body:
            return str(coeff)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = [self._term_str(e, c) for e, c in sorted(self.terms.items())]
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"


def _prune(variables, terms):
    """(variables, terms) without the variables that no term uses."""
    if not terms:
        return (), terms
    used = [any(column) for column in zip(*terms)]
    if all(used):
        return variables, terms
    keep = [i for i, u in enumerate(used) if u]
    return (
        tuple(variables[i] for i in keep),
        {tuple(e[i] for i in keep): c for e, c in terms.items()},
    )


def _remap(poly, names):
    """The terms of `poly` with exponent vectors aligned with `names`, a
    sorted superset of its variables."""
    if poly.variables == names:
        return poly.terms
    pos = [names.index(v) for v in poly.variables]
    out = {}
    for exps, coeff in poly.terms.items():
        key = [0] * len(names)
        for p, e in zip(pos, exps):
            key[p] = e
        out[tuple(key)] = coeff
    return out


def _accumulate(terms, exps, coeff):
    """terms[exps] += coeff, keeping only nonzero coefficients."""
    total = terms.get(exps)
    if total is None:
        terms[exps] = coeff
        return
    total += coeff
    if total:
        terms[exps] = total
    else:
        del terms[exps]


def poly_sum(polys):
    """The sum of an iterable of LaurentPolys and ints (zero when empty),
    with every term added into one map, no partial sum copied per addend."""
    names, out = (), {}
    for p in polys:
        p = _as_poly(p)
        if p.variables != names and not set(names).issuperset(p.variables):
            # a new name: re-align the sum so far with the wider names
            partial = LaurentPoly._from_normal(*_prune(names, out))
            names = tuple(sorted(set(names).union(p.variables)))
            out = _remap(partial, names)
        for exps, coeff in _remap(p, names).items():
            _accumulate(out, exps, coeff)
    return LaurentPoly._from_normal(*_prune(names, out))


def geometric_sum(name, lo, hi):
    """Sum of name^j for lo <= j <= hi, with the reflection convention
    sum_{lo}^{hi} = -sum_{hi+1}^{lo-1} when hi < lo - 1 (and 0 when
    hi == lo - 1), so that (1 - x^(hi+1))/(1 - x) style closed forms hold
    for every integer hi."""
    if hi >= lo:
        return LaurentPoly(
            (name,), {(j,): 1 for j in range(lo, hi + 1)}
        )
    if hi == lo - 1:
        return LaurentPoly.zero()
    return -geometric_sum(name, hi + 1, lo - 1)


def eliminate_formal_inverse(poly, name, value):
    """Clear the formal-inverse variable `name` subject to name = value.

    Multiplies by name^k so all exponents of `name` are nonnegative, then
    substitutes the defining polynomial.  Two expressions of the localized
    ring are equal iff their difference is cleared to the zero polynomial,
    because the base ring is a domain and `value` is nonzero.
    """
    poly = _as_poly(poly)
    k = poly.min_exponent(name)
    if k < 0:
        poly = poly * sym(name, -k)
    return poly.subs({name: value})


def equal_mod_inverses(left, right, relations):
    """Equality in the localization defined by {name: polynomial value}."""
    diff = left - right
    for name, value in relations.items():
        diff = eliminate_formal_inverse(diff, name, value)
    return not diff


class TruncatedSeries:
    """A Laurent polynomial truncated above degree `bound` in the one
    series variable `var`, which has no negative exponent; every other
    variable is carried exactly.

    A series has no arithmetic of its own: compute on `poly` and truncate
    the result again, or expand a quotient with series_expand.
    """

    __slots__ = ("poly", "var", "bound")

    def __init__(self, poly, var, bound):
        poly = _as_poly(poly)
        if not isinstance(var, str):
            raise TypeError(f"the series variable is one name, not {var!r}")
        if bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        if poly.min_exponent(var) < 0:
            raise ValueError(f"negative exponent of the series variable: {poly}")
        degree = _degree_in(poly.variables, var)
        kept = {e: c for e, c in poly.terms.items() if degree(e) <= bound}
        if len(kept) < len(poly.terms):
            poly = LaurentPoly._from_normal(*_prune(poly.variables, kept))
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.var, self.bound, self.poly) == (
                other.var, other.bound, other.poly
            )
        # anything else is compared with the polynomial exactly, so equal
        # values hash equal
        return self.poly == other

    def __hash__(self):
        return hash(self.poly)

    def slices(self):
        """Map from degree in `var` to the slice polynomial of that degree."""
        degree = _degree_in(self.poly.variables, self.var)
        out = {}
        for exps, coeff in self.poly.terms.items():
            out.setdefault(degree(exps), {})[exps] = coeff
        return {
            d: LaurentPoly(self.poly.variables, t) for d, t in sorted(out.items())
        }

    def coefficient(self, degree):
        """The slice of degree `degree` with var^degree divided out."""
        slc = self.slices().get(degree)
        if slc is None:
            return LaurentPoly.zero()
        return slc * sym(self.var, -degree)

    def inverse(self):
        """Multiplicative inverse by the graded convolution recurrence, each
        slice one poly_sum of products within the bound; the degree-0 part
        must be a Laurent unit in the exact variables."""
        parts = self.slices()
        c0 = parts.get(0, LaurentPoly.zero())
        if not c0.is_unit():
            raise NonInvertibleError(
                f"constant term (in {self.var}) is not a unit: {c0}"
            )
        c0inv = c0.unit_inverse()
        norm = {d: c0inv * p for d, p in parts.items() if d > 0}
        inv = {0: LaurentPoly.one()}
        for n in range(1, self.bound + 1):
            inv[n] = -poly_sum(fj * inv[n - j] for j, fj in norm.items() if j <= n)
        return TruncatedSeries(c0inv * poly_sum(inv.values()), self.var, self.bound)

    def __repr__(self):
        return f"TruncatedSeries({self.poly}, {self.var!r}, {self.bound})"


def _degree_in(variables, var):
    """The exponent of `var` in an exponent vector aligned with
    `variables` (0 for every vector when `var` is not among them)."""
    if var in variables:
        return itemgetter(variables.index(var))
    return lambda exps: 0


def series_times(poly, series):
    """poly times `series`, truncated like it: each slice of `poly` of
    degree d meets only `series` truncated above bound - d, and poly_sum
    adds the products, so no term exceeds the bound."""
    var, bound = series.var, series.bound
    return TruncatedSeries(poly_sum(
        part * TruncatedSeries(series.poly, var, bound - d).poly
        for d, part in TruncatedSeries(poly, var, bound).slices().items()
    ), var, bound)


def series_expand(numerator, denominator, var, bound):
    """Power-series expansion of numerator/denominator in `var`, truncated
    above degree `bound`; the denominator's degree-0 part must be a unit."""
    inv = TruncatedSeries(denominator, var, bound).inverse()
    return series_times(numerator, inv)


class RingMatrix:
    """Dense matrix over an exact commutative ring.

    Entries may be ints or LaurentPolys (mixing is fine since LaurentPoly
    coerces ints); no division is ever performed.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data):
        data = [tuple(row) for row in data]
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_square(self):
        return self.rows == self.cols

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return RingMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RingMatrix([[-a for a in row] for row in self.entries])

    def scale(self, scalar):
        # a zero entry stays as it is, without a product
        return RingMatrix(
            [[scalar * a if a else a for a in row] for row in self.entries]
        )

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        # zero-test each entry once; only pairs of nonzero entries multiply
        cols = [_nonzero(col) for col in zip(*other.entries)]
        out = []
        for row in self.entries:
            row = dict(_nonzero(row))
            out.append([_dot(row, col) for col in cols])
        return RingMatrix(out)

    def apply(self, vector):
        """Matrix-vector product; vector is any sequence of scalars."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        vector = _nonzero(vector)
        return [_dot(dict(_nonzero(row)), vector) for row in self.entries]

    def transpose(self):
        return RingMatrix(list(zip(*self.entries)))

    def subs(self, mapping):
        """LaurentPoly.subs on every entry, an int entry taken as a constant."""
        return RingMatrix(
            [[_as_poly(e).subs(mapping) for e in row] for row in self.entries]
        )

    def anti_transpose(self):
        """Reflection across the diagonal from upper right to lower left."""
        n, m = self.rows, self.cols
        return RingMatrix(
            [[self.entries[m - 1 - j][n - 1 - i] for j in range(m)] for i in range(n)]
        )

    def is_diagonal(self):
        return all(
            not self.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def is_upper_unipotent(self):
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j and e - 1:
                    return False
                if i > j and e:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def det(self):
        """Exact determinant by column-subset minor expansion (no division)."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        dp = {0: 1}
        for r in range(n):
            ndp = {}
            row = self.entries[r]
            for mask, val in dp.items():
                # sign of picking column j next is (-1)^(chosen columns above j)
                sign = 1
                for j in range(n - 1, -1, -1):
                    bit = 1 << j
                    if mask & bit:
                        sign = -sign
                        continue
                    e = row[j]
                    if not e:
                        continue
                    key = mask | bit
                    term = (val * e) if sign > 0 else -(val * e)
                    ndp[key] = ndp.get(key, 0) + term
            dp = ndp
        return dp.get((1 << n) - 1, 0)

    def charpoly(self, name):
        """det(name*Id - self) as a LaurentPoly."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        return (RingMatrix.identity(self.rows).scale(sym(name)) - self).det()

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"


def _nonzero(entries):
    """The (index, entry) pairs of the nonzero entries, in order."""
    return [(k, e) for k, e in enumerate(entries) if e]


def _dot(row, col):
    """Sum of row[k] * b over the (k, b) pairs of `col` with k in `row`."""
    acc = None
    for k, b in col:
        a = row.get(k)
        if a is None:
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return 0 if acc is None else acc


def sym(name, power=1):
    """The Laurent monomial name^power."""
    if power == 0:
        return LaurentPoly.one()
    return LaurentPoly._from_normal((name,), {(power,): 1})
