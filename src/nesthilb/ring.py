"""Monomial combinatorics of the polynomial ring in n variables.

Every graded piece R_d carries a fixed graded-lexicographic monomial basis
(exponent tuples sorted lexicographically descending, x1 largest), so all
coordinate vectors produced anywhere in the package are reproducible byte for
byte.  Multiplication and differentiation by variables are index maps between
these bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .linalg import FieldSpec, Mat, mpq, to_field


class RingError(ValueError):
    pass


class RingCtx:
    """The ring C[x_1..x_n] with memoised per-degree monomial bases.

    Immutable once created; its caches only grow and return the same objects.
    """

    def __init__(self, n: int):
        if n < 1:
            raise RingError("need at least one variable")
        self.n = n
        self._monos: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._index: dict[int, dict[tuple[int, ...], int]] = {}
        self._mult_idx: dict[tuple[int, int], list[int]] = {}

    def __repr__(self):
        return f"RingCtx(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, RingCtx) and other.n == self.n

    def __hash__(self):
        return hash(("RingCtx", self.n))

    def dim(self, d: int) -> int:
        """dim R_d = binom(n+d-1, n-1)."""
        if d < 0:
            return 0
        return comb(self.n + d - 1, self.n - 1)

    def monomials(self, d: int) -> tuple[tuple[int, ...], ...]:
        if d < 0:
            return ()
        cached = self._monos.get(d)
        if cached is None:
            cached = tuple(_gen_exponents(self.n, d))
            self._monos[d] = cached
            self._index[d] = {m: i for i, m in enumerate(cached)}
        return cached

    def mono_index(self, expts: tuple[int, ...]) -> int:
        d = sum(expts)
        self.monomials(d)
        return self._index[d][expts]

    def mult_index(self, j: int, d: int) -> list[int]:
        """Index map of multiplication by x_j from R_d to R_{d+1}."""
        key = (j, d)
        cached = self._mult_idx.get(key)
        if cached is None:
            tgt = self._index_for(d + 1)
            cached = []
            for m in self.monomials(d):
                e = list(m)
                e[j] += 1
                cached.append(tgt[tuple(e)])
            self._mult_idx[key] = cached
        return cached

    def _index_for(self, d: int) -> dict[tuple[int, ...], int]:
        if d < 0:
            return {}
        self.monomials(d)
        return self._index[d]

    def diff_entries(self, j: int, d: int) -> list[tuple[int, int, int]]:
        """Entries (src_idx, tgt_idx, coeff) of d/dx_j from R_d to R_{d-1}."""
        out = []
        if d <= 0:
            return out
        tgt = self._index_for(d - 1)
        for i, m in enumerate(self.monomials(d)):
            if m[j]:
                e = list(m)
                e[j] -= 1
                out.append((i, tgt[tuple(e)], m[j]))
        return out

    def mult_entries(self, coeffs: dict[int, object], a: int, d: int):
        """Entries (src_idx, tgt_idx, coeff) of multiplication by the form
        {mono index: coeff} of degree a, from R_d to R_{d+a}."""
        tgt = self._index_for(d + a)
        fmonos = self.monomials(a)
        for i, m in enumerate(self.monomials(d)):
            for k, c in coeffs.items():
                yield i, tgt[tuple(x + y for x, y in zip(m, fmonos[k]))], c

    def mono_str(self, expts: tuple[int, ...]) -> str:
        parts = []
        for j, e in enumerate(expts):
            if e == 1:
                parts.append(f"x{j + 1}")
            elif e > 1:
                parts.append(f"x{j + 1}^{e}")
        return "*".join(parts) if parts else "1"


def _gen_exponents(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _gen_exponents(n - 1, d - first):
            yield (first,) + rest


@dataclass
class HomogeneousElement:
    """A homogeneous form: sparse coefficients over the degree-d monomial basis."""

    ctx: RingCtx
    fld: FieldSpec
    degree: int
    coeffs: dict[int, object] = field(default_factory=dict)  # mono index -> scalar

    @staticmethod
    def from_exponents(ctx: RingCtx, fld: FieldSpec, degree: int,
                       terms: dict[tuple[int, ...], object]) -> "HomogeneousElement":
        coeffs: dict[int, object] = {}
        for expts, c in terms.items():
            if sum(expts) != degree:
                raise RingError(f"term {expts} is not of degree {degree}")
            i = ctx.mono_index(expts)
            v = _scalar(fld, c)
            if v is not None:
                w = coeffs.get(i)
                w = v if w is None else _scalar_add(fld, w, v)
                if w is None:
                    coeffs.pop(i, None)
                else:
                    coeffs[i] = w
        return HomogeneousElement(ctx, fld, degree, coeffs)

    @staticmethod
    def variable(ctx: RingCtx, fld: FieldSpec, j: int) -> "HomogeneousElement":
        e = [0] * ctx.n
        e[j] = 1
        return HomogeneousElement.from_exponents(ctx, fld, 1, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        monos = self.ctx.monomials(self.degree)
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            m = self.ctx.mono_str(monos[i])
            txt = _coeff_str(self.fld, c, m)
            if parts and not txt.startswith("-"):
                parts.append("+ " + txt)
            elif parts:
                parts.append("- " + txt[1:])
            else:
                parts.append(txt)
        return " ".join(parts)


def _scalar(fld: FieldSpec, v) -> object | None:
    """Normalise v into the field (``to_field``); None encodes zero."""
    q = to_field(fld, v)
    if not q:
        return None
    return mpq(q) if fld.is_rational else q


def _scalar_add(fld: FieldSpec, a, b) -> object | None:
    if fld.is_rational:
        t = a + b
        return None if t == 0 else t
    t = (a + b) % fld.p
    return None if t == 0 else t


def _coeff_str(fld: FieldSpec, c, mono: str) -> str:
    if not fld.is_rational:
        half = fld.p // 2
        c = int(c) - fld.p if int(c) > half else int(c)
    if mono == "1":
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


def mult_map(ctx: RingCtx, f: HomogeneousElement, d: int) -> Mat:
    """Matrix of multiplication by f as a map R_d -> R_{d+deg f}.

    Row convention: rows are indexed by the source basis, so the image of the
    i-th monomial is the i-th row.
    """
    if d < 0:
        raise RingError("degree must be nonnegative")
    return Mat.from_entries(f.fld, ctx.dim(d), ctx.dim(d + f.degree),
                            ctx.mult_entries(f.coeffs, f.degree, d))


def variable_action_matrices(ctx: RingCtx, fld: FieldSpec, d: int) -> list[Mat]:
    """The n multiplication maps R_d -> R_{d+1} in the monomial bases."""
    eye = Mat.identity(fld, ctx.dim(d))
    return [scatter_rows(ctx, eye, j, d) for j in range(ctx.n)]


def scatter_rows(ctx: RingCtx, m: Mat, j: int, d: int) -> Mat:
    """Multiply each row of m (coordinates in R_d) by x_j, landing in R_{d+1}."""
    return m.remap_cols(ctx.dim(d + 1), list(enumerate(ctx.mult_index(j, d))))


def diff_matrix(ctx: RingCtx, fld: FieldSpec, j: int, d: int) -> Mat:
    """Matrix of d/dx_j: R_d -> R_{d-1} (row convention)."""
    entries = ctx.diff_entries(j, d)
    return Mat.from_entries(fld, ctx.dim(d), ctx.dim(d - 1), entries)
