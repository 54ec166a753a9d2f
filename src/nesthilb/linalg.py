"""Exact linear algebra over the rationals and over prime fields.

Two backends share one matrix interface:

* rationals -- each row is a sparse dict ``{col: int}`` of integer numerators
  over one positive denominator, kept in the parallel list ``Mat.dens``.  A
  row is stored in lowest terms: the gcd of its denominator and numerators is
  1, and an empty row has denominator 1, so equal matrices store equal data.
  The ideals showing up in practice are monomial or binomial to a large
  extent, so sparse rows stay short.  Every operation works on integers and
  brings each output row to lowest terms once, at its end: a product scales
  row k of its right factor by ``L // den_k``, with L the lcm of the
  denominators of the rows an input row reads, and accumulates integers;
  ``sub``, ``transpose`` and the column selections likewise.  Fractions
  (``mpq``) appear only at the interface: the builders take ints and
  Fractions (``to_field``), and ``row_items`` returns Fractions.
  Elimination runs fraction-free on the primitive parts of the numerator
  rows, in the sense of Bareiss (Math. Comp. 22, 1968): a pivot row clears a
  row by cross-multiplication, and the result is divided by its content
  again.  A finished row of ``rref`` is stored as its numerators
  over its pivot entry; the reduced echelon form is canonical, so it is the
  one fraction arithmetic gives.  Scaling a row does not change the rank, so
  ``rank`` reads the numerators and ignores ``dens``, and settles it mod
  primes where it can (``_modular_rank``).  A minor that vanishes over QQ
  vanishes mod p, so the rank r_p mod p is at most the rank over QQ: if r_p
  is min(nonzero rows, columns), it is the rank.  Otherwise the reduced
  kernel mod p, of the rows or of their transpose, is lifted to QQ by CRT
  over a fixed short list of primes near 2^26.5 and rational
  reconstruction (Wang, SYMSAC 1981), and checked exactly: if the rows
  annihilate the lifted kernel, whose identity block on the free columns
  makes its vectors independent, the rank is at most r_p, so it is r_p.
  The kernels mod p take the dense path, never sparse rows, on which a
  constraint matrix a few percent nonzero fills in.  No step guesses: where
  no kernel lifts and checks, the integer forward pass decides.
* GF(p) -- dense numpy int64 arrays with entries reduced to [0, p).  An
  elimination picks its path by density.  At most 1/20 of the entries
  nonzero (``Mat._on_sparse_rows``), it reads the rows off the array as
  sparse rows and runs the elimination the rationals run, with a monic
  pivot row; the relation matrices of the census are below 0.5 % dense, and
  a dense pass over them spends its time scanning empty columns.  Denser matrices, such
  as the syzygy matrices of the Betti tables, fill in under sparse
  elimination, so they take the dense path: a forward pass (one vectorised
  row update per pivot) and, for reduced forms, a back pass over the pivot
  rows.  There reduction mod p is deferred: a step reduces only its pivot
  row and pivot column, and every other entry takes the update unreduced.
  Each update is below p^2 in magnitude, so the live block is reduced every
  K(p) = (2^63 - 1 - p) // (p - 1)^2 steps to stay inside int64 (K = 1024 at
  the largest accepted prime, about 9e9 at 32003, where it never fires) and
  once at the end.  ``rank`` always takes the dense forward pass, on the
  transpose when that has fewer columns.

Each question is answered by one elimination.  The sparse path has one body
for both fields, ``_rref_rows``: rows wait in buckets by their lead column,
the first row of the lowest bucket is the pivot row, and the back pass runs
bottom-up, each row clearing only the pivot columns it holds.  Over QQ a row
is cleared fraction-free, over GF(p) by r - r[c] * pivot mod p.
``_column_split`` splits the columns into independent and dependent ones,
and writes each dependent column in terms of the independent ones, from the
rref of the matrix with its columns reversed; ``kernel_basis`` reads the
reduced kernel basis off that split (see its docstring), and the relations
among the rows of a matrix are the split of its transpose.
``rref_with_transform`` takes a matrix of full row rank only, so its
transform is square in the rank: the right half of the reduced ``[self |
identity]``.  On sparse rows the split builds no dense intermediate: it keys
column j as n-1-j instead of reversing the matrix.  Each
field multiplies through one routine, ``_sparse_mul`` or ``_matmul_mod``; the
vec-row products are products with ``I ⊗ b`` and ``Tᵀ ⊗ I``.

Everything is deterministic and exact: reduced row echelon forms are canonical
for the row space and kernels are returned in reduced echelon form.  The only
floating point anywhere is the float64 BLAS multiply used as an exact integer
carrier for GF(p) products, chunked so every intermediate stays below 2^53.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction as mpq
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np


class LinalgError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: ``p is None`` means QQ, otherwise GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            # the dense backend multiplies through float64, exact only below 2^53
            if self.p < 2 or self.p * self.p >= (1 << 53):
                raise LinalgError(f"modulus out of range (need 2 <= p, p^2 < 2^53): {self.p}")
            if not _is_prime(self.p):
                raise LinalgError(f"modulus must be prime: {self.p}")

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t in ("rational", "qq", "q"):
            return FieldSpec.rational()
        modulus = t[len("prime:"):] if t.startswith("prime:") else t[1:] if t[:1] == "f" else ""
        try:
            p = int(modulus)
        except ValueError:
            raise LinalgError(f"cannot parse field spec {text!r}") from None
        return FieldSpec.prime(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        return "rational" if self.p is None else f"F{self.p}"


DEFAULT_PRIME = 32003

QQ = FieldSpec.rational()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def to_field(fld: FieldSpec, v):
    """The exact entry v as an element of fld: an int or a Fraction over QQ, a
    residue in [0, p) over GF(p), where a/b is a * b^-1.  Only integers and
    Fractions are exact entries; anything else (a float, say) is refused, as
    is a fraction whose denominator p divides."""
    if type(v) is int:
        return v if fld.p is None else v % fld.p
    if not isinstance(v, mpq):
        try:
            v = operator.index(v)  # numpy integers
        except TypeError:
            raise LinalgError(f"not an exact entry (int or Fraction): {v!r}") from None
        return v if fld.p is None else v % fld.p
    if fld.p is None:
        return v
    if v.denominator % fld.p == 0:
        raise LinalgError(f"{v} has no value mod {fld.p}")
    return v.numerator * pow(v.denominator, -1, fld.p) % fld.p


class Mat:
    """Immutable-by-convention exact matrix over a :class:`FieldSpec`.

    Rational data lives in ``self.rows`` (list of ``{col: int}`` numerators)
    over ``self.dens`` (one denominator per row, lowest terms), prime-field
    data in ``self.arr`` (2-d int64 ndarray).  The storage format is private
    to this module: other code reads entries through ``row_items``.
    Do not mutate after handing a matrix to other code; rows may be shared
    between matrices.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "dens", "arr")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows=None, dens=None,
                 arr=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.dens = dens
        self.arr = arr

    # ---------------------------------------------------------------- builders

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Mat":
        if field.is_rational:
            return Mat(field, nrows, ncols, rows=[{} for _ in range(nrows)], dens=[1] * nrows)
        return Mat(field, nrows, ncols, arr=np.zeros((nrows, ncols), dtype=np.int64))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        if field.is_rational:
            return Mat(field, n, n, rows=[{i: 1} for i in range(n)], dens=[1] * n)
        return Mat(field, n, n, arr=np.eye(n, dtype=np.int64))

    @staticmethod
    def from_rows(field: FieldSpec, data: Sequence[Sequence], ncols: int | None = None) -> "Mat":
        """Build from dense row lists of ints / Fractions, each of length ncols
        (by default the length of the first row)."""
        nrows = len(data)
        if ncols is None:
            ncols = len(data[0]) if nrows else 0
        for i, r in enumerate(data):
            if len(r) != ncols:
                raise LinalgError(f"row {i} has {len(r)} entries, not {ncols}")
        if field.is_rational:
            rows, dens = [], []
            for r in data:
                vals = {}
                for j, v in enumerate(r):
                    if type(v) is not int:
                        v = to_field(field, v)
                    if v:
                        vals[j] = v
                nums, den = _over_one_den(vals)
                rows.append(nums)
                dens.append(den)
            return Mat(field, nrows, ncols, rows=rows, dens=dens)
        p = field.p
        arr = np.zeros((nrows, ncols), dtype=np.int64)
        for i, r in enumerate(data):
            for j, v in enumerate(r):
                arr[i, j] = v % p if type(v) is int else to_field(field, v)
        return Mat(field, nrows, ncols, arr=arr)

    @staticmethod
    def from_entries(field: FieldSpec, nrows: int, ncols: int,
                     entries: Iterable[tuple[int, int, object]]) -> "Mat":
        """Build from (row, col, value) triples; values at one position add up."""
        if field.is_rational:
            acc: list[dict] = [{} for _ in range(nrows)]
            for i, j, v in entries:
                if type(v) is not int:
                    v = to_field(field, v)
                if v:
                    r = acc[i]
                    t = r.get(j, 0) + v
                    if t:
                        r[j] = t
                    else:
                        del r[j]
            rows = [_over_one_den(r) for r in acc]
            return Mat(field, nrows, ncols, rows=[r for r, _ in rows], dens=[d for _, d in rows])
        m = Mat.zeros(field, nrows, ncols)
        p = field.p
        for i, j, v in entries:
            if type(v) is not int:
                v = to_field(field, v)
            m.arr[i, j] = (m.arr[i, j] + v) % p
        return m

    @staticmethod
    def vstack(field: FieldSpec, mats: Sequence["Mat"], ncols: int) -> "Mat":
        if field.is_rational:
            rows, dens = [], []
            for m in mats:
                rows.extend(m.rows)
                dens.extend(m.dens)
            return Mat(field, len(rows), ncols, rows=rows, dens=dens)
        arrs = [m.arr for m in mats if m.nrows]
        if not arrs:
            return Mat.zeros(field, 0, ncols)
        return Mat(field, sum(a.shape[0] for a in arrs), ncols, arr=np.vstack(arrs))

    @staticmethod
    def hstack(field: FieldSpec, mats: Sequence["Mat"]) -> "Mat":
        nrows = mats[0].nrows
        if field.is_rational:
            # each part of row i over the lcm of its parts' denominators: some
            # part has no factor of the lcm left over, so it stays lowest terms
            rows, dens = [], []
            for i in range(nrows):
                den = lcm(*(m.dens[i] for m in mats))
                row = {}
                off = 0
                for m in mats:
                    f = den // m.dens[i]
                    for j, v in m.rows[i].items():
                        row[off + j] = v * f
                    off += m.ncols
                rows.append(row)
                dens.append(den)
            return Mat(field, nrows, sum(m.ncols for m in mats), rows=rows, dens=dens)
        return Mat(field, nrows, sum(m.ncols for m in mats),
                   arr=np.hstack([m.arr for m in mats]))

    # ----------------------------------------------------------------- access

    def take_rows(self, idx: Sequence[int]) -> "Mat":
        if self.field.is_rational:
            return Mat(self.field, len(idx), self.ncols, rows=[self.rows[i] for i in idx],
                       dens=[self.dens[i] for i in idx])
        return Mat(self.field, len(idx), self.ncols, arr=self.arr[list(idx)])

    def take_cols(self, idx: Sequence[int]) -> "Mat":
        if self.field.is_rational:
            return self.remap_cols(len(idx), [(c, k) for k, c in enumerate(idx)])
        return Mat(self.field, self.nrows, len(idx), arr=self.arr[:, list(idx)])

    def transpose(self) -> "Mat":
        if self.field.is_rational:
            rows = [{} for _ in range(self.ncols)]
            dens = [1] * self.ncols
            for i, (r, d) in enumerate(zip(self.rows, self.dens)):
                for j, v in r.items():
                    rows[j][i] = v
                    if d != 1:
                        dens[j] = lcm(dens[j], d)
            for j, den in enumerate(dens):  # bring column j over one denominator
                if den != 1:
                    rows[j], dens[j] = _lowest_terms(
                        {i: v * (den // self.dens[i]) for i, v in rows[j].items()}, den)
            return Mat(self.field, self.ncols, self.nrows, rows=rows, dens=dens)
        return Mat(self.field, self.ncols, self.nrows, arr=self.arr.T.copy())

    def remap_cols(self, dest_width: int, pairs: Sequence[tuple[int, int]]) -> "Mat":
        """New matrix with column src moved to column dest for each pair; other
        destination columns are zero."""
        if self.field.is_rational:
            src2dest = dict(pairs)
            rows, dens = [], []
            for r, d in zip(self.rows, self.dens):
                nums = {src2dest[j]: v for j, v in r.items() if j in src2dest}
                if d != 1:
                    nums, d = _lowest_terms(nums, d)
                rows.append(nums)
                dens.append(d)
            return Mat(self.field, self.nrows, dest_width, rows=rows, dens=dens)
        out = np.zeros((self.nrows, dest_width), dtype=np.int64)
        if pairs:
            src, dest = zip(*pairs)
            out[:, list(dest)] = self.arr[:, list(src)]
        return Mat(self.field, self.nrows, dest_width, arr=out)

    def row_items(self, i: int) -> dict[int, object]:
        """The nonzero entries {col: value} of row i."""
        if self.field.is_rational:
            d = self.dens[i]
            return {j: mpq(v, d) for j, v in self.rows[i].items()}
        return {int(j): int(self.arr[i, j]) for j in np.flatnonzero(self.arr[i])}

    def is_zero(self) -> bool:
        if self.field.is_rational:
            return all(not r for r in self.rows)
        return not self.arr.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or self.field != other.field:
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self.field.is_rational:  # lowest terms make the stored form canonical
            return self.dens == other.dens and self.rows == other.rows
        return bool(np.array_equal(self.arr, other.arr))

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self):
        return f"Mat({self.field.label}, {self.nrows}x{self.ncols})"

    # ------------------------------------------------------------- arithmetic

    def matmul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise LinalgError("matmul shape mismatch")
        if self.field.is_rational:
            rows, dens = _sparse_mul(self.rows, self.dens, other.rows, other.dens)
            return Mat(self.field, self.nrows, other.ncols, rows=rows, dens=dens)
        return Mat(self.field, self.nrows, other.ncols,
                   arr=_matmul_mod(self.arr, other.arr, self.field.p))

    def sub(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinalgError("sub shape mismatch")
        if self.field.is_rational:
            rows, dens = [], []
            for r, d, s, e in zip(self.rows, self.dens, other.rows, other.dens):
                if not s:
                    rows.append(r)
                    dens.append(d)
                    continue
                den = lcm(d, e)
                f, g = den // d, den // e
                out = {j: v * f for j, v in r.items()}
                for j, v in s.items():
                    t = out.get(j, 0) - v * g
                    if t:
                        out[j] = t
                    else:
                        del out[j]
                out, den = _lowest_terms(out, den)
                rows.append(out)
                dens.append(den)
            return Mat(self.field, self.nrows, self.ncols, rows=rows, dens=dens)
        return Mat(self.field, self.nrows, self.ncols,
                   arr=(self.arr - other.arr) % self.field.p)

    # ------------------------------------------------------------ elimination

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form without its zero rows, and its pivots."""
        fld, n = self.field, self.ncols
        if not self._on_sparse_rows():
            arr, piv = _rref_p(self.arr, fld.p)
            return Mat(fld, arr.shape[0], n, arr=arr), piv
        rows, piv = _rref_rows(self._fresh_rows(), True, fld.p)
        if fld.is_rational:
            return Mat(fld, len(rows), n, rows=rows, dens=_over_pivots(rows, piv)), piv
        return Mat(fld, len(rows), n, arr=_to_array(rows, n)), piv

    def rref_with_transform(self) -> tuple["Mat", list[int], "Mat"]:
        """Return (R, pivots, S) for a matrix of full row rank: R is its
        reduced echelon form and S the invertible square matrix with
        S @ self = R, read off the reduced ``[self | identity]``."""
        m, n = self.nrows, self.ncols
        aug, piv = Mat.hstack(self.field, [self, Mat.identity(self.field, m)]).rref()
        if piv and piv[-1] >= n:
            raise LinalgError("rref_with_transform needs a matrix of full row rank")
        return aug.take_cols(range(n)), piv, aug.take_cols(range(n, n + m))

    def rank(self) -> int:
        # forward pass only, in place, with the shorter side as columns
        if not self.field.is_rational:
            a = self.arr.T if self.ncols > self.nrows else self.arr
            return len(_forward_p(np.array(a, order="C"), self.field.p))
        # scaling a row keeps its rank: the numerators stand for the rows
        rows = [r for r in self.rows if r]
        rank = _modular_rank(rows, self.ncols)
        if rank is None:
            rank = len(_rref_rows(self._fresh_rows(), False, None)[1])
        return rank

    def _column_split(self) -> tuple[list[int], list[int], "Mat"]:
        """Split the columns of self into independent columns J, chosen
        greedily from the last, and the others D, both descending.  Returns
        (J, D, C) with column D[k] = sum_i C[k, i] * column J[i].

        One elimination: R' is the rref of self with its columns reversed, so
        column j of self is column n-1-j of R'.  J[i] is the column of self
        under pivot i of R', and D[k] the one under the k-th non-pivot column
        of R'.  Left multiplication keeps the relations among columns, and in
        R' a non-pivot column c is the sum of R'[i, c] times pivot column i,
        so C[k, i] = R'[i, n-1-D[k]].  That entry is zero unless pivot i lies
        left of n-1-D[k] in R', that is unless J[i] > D[k]: the first
        relations are the shortest.  On sparse rows neither the reversed
        matrix nor R' is built: the rows are keyed n-1-j, and C is written
        from the entries of the finished rows past their pivots.
        """
        fld, n = self.field, self.ncols
        if not self._on_sparse_rows():
            red, rpiv = Mat(fld, self.nrows, n, arr=self.arr[:, ::-1]).rref()
            rfree = _non_pivots(n, rpiv)
            c = Mat(fld, len(rfree), len(rpiv), arr=np.ascontiguousarray(red.arr.T[rfree]))
        else:
            rows, rpiv = _rref_rows(self._fresh_rows(reverse=True), True, fld.p)
            rfree = _non_pivots(n, rpiv)
            pos = {c: k for k, c in enumerate(rfree)}
            dens = _over_pivots(rows, rpiv) if fld.is_rational else None  # may negate rows
            # row i of C^T: the entries of row i of R' past its pivot, all in
            # non-pivot columns; over QQ still over the pivot entry
            ct = [{pos[c]: v for c, v in r.items() if c != lead} for r, lead in zip(rows, rpiv)]
            if fld.is_rational:
                c = Mat(fld, len(rpiv), len(rfree), rows=ct, dens=dens).transpose()
            else:
                c = Mat(fld, len(rfree), len(rpiv), arr=_to_array(ct, len(rfree), transposed=True))
        return [n - 1 - j for j in rpiv], [n - 1 - j for j in rfree], c

    def _on_sparse_rows(self) -> bool:
        """Whether an elimination of self runs on sparse rows: always over QQ,
        over GF(p) when at most 1/_SPARSE_RATIO of the entries are nonzero."""
        return self.field.is_rational or \
            np.count_nonzero(self.arr) * _SPARSE_RATIO <= self.arr.size

    def _fresh_rows(self, reverse: bool = False) -> list[dict[int, int]]:
        """One new {col: int} dict per row for ``_rref_rows`` to consume: the
        primitive parts of the numerators over QQ, the nonzero entries over
        GF(p), read off the array with one ``np.flatnonzero``.  With ``reverse``
        column j is keyed n-1-j."""
        last = self.ncols - 1
        if self.field.is_rational:
            prims = (_primitive(r) for r in self.rows)
            if reverse:
                return [{last - j: v for j, v in r.items()} for r in prims]
            return [dict(r) for r in prims]
        flat = self.arr.ravel()
        at = np.flatnonzero(flat)
        ii, jj = np.divmod(at, self.ncols)
        vals = flat[at].tolist()
        cols = (last - jj if reverse else jj).tolist()
        ends = np.cumsum(np.bincount(ii, minlength=self.nrows)).tolist()
        return [dict(zip(cols[s:e], vals[s:e])) for s, e in zip([0] + ends, ends)]

    def kernel_basis(self) -> "Mat":
        """Rows = reduced-echelon basis of the right kernel {v : self @ v = 0}.

        With (J, D, C) from ``_column_split``, each column f = D[k] gives
        v_f = e_f - sum_i C[k, i] e_{J[i]}.  C[k, i] is zero unless J[i] > f,
        so every nonzero entry of v_f besides its leading 1 lies in a column
        of J greater than f.  No column of J is another vector's leading
        column, so the v_f sorted by f (D reversed) are already in reduced
        echelon form: the canonical basis of the kernel, with no second
        elimination.
        """
        n = self.ncols
        cols_j, cols_d, c = self._column_split()
        lead = Mat.identity(self.field, len(cols_d)).remap_cols(n, list(enumerate(cols_d)))
        ker = lead.sub(c.remap_cols(n, list(enumerate(cols_j))))
        return ker.take_rows(range(ker.nrows - 1, -1, -1))


# ------------------------------------------------------------------ QQ kernel


def _sparse_mul(rows: Sequence[dict], dens: Sequence[int], other_rows, other_dens
                ) -> tuple[list[dict], list[int]]:
    """Numerator rows and denominators of the product.  Row i reads the rows k
    of other that its entries name; with L the lcm of their denominators, it
    sums v * (L // other_dens[k]) * other_rows[k] over the entries k: v of
    rows[i] in integers, over the denominator dens[i] * L, and is brought to
    lowest terms once.  other_rows and other_dens may be dicts."""
    out, out_dens = [], []
    for r, d in zip(rows, dens):
        big = lcm(*(other_dens[k] for k in r))
        acc: dict[int, int] = {}
        for k, v in r.items():
            dk = other_dens[k]
            if dk != big:
                v *= big // dk
            for j, w in other_rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        nums, den = _lowest_terms({j: t for j, t in acc.items() if t}, d * big)
        out.append(nums)
        out_dens.append(den)
    return out, out_dens


def _over_one_den(vals: dict) -> tuple[dict[int, int], int]:
    """Nonzero ints and Fractions {col: v} as numerators over their lcm
    denominator.  That is lowest terms: for each prime power q^a of the lcm,
    the entry whose denominator q^a divides keeps a numerator prime to q."""
    den = lcm(*(v.denominator for v in vals.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in vals.items()}, den


def _lowest_terms(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """nums / den divided by the gcd of den and the numerators; an empty row
    gets denominator 1."""
    if den == 1 or not nums:
        return nums, 1
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {j: v // g for j, v in nums.items()}, den // g


def _primitive(r: dict[int, int]) -> dict[int, int]:
    """r divided by its content, the gcd of its entries."""
    g = gcd(*r.values())
    return r if g == 1 else {j: v // g for j, v in r.items()}


def _clear(r: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """The primitive part of a*r - b*pivot, where a/b = pivot[c]/r[c] in
    lowest terms: column c of the result is zero."""
    g = gcd(pivot[c], r[c])
    a, b = pivot[c] // g, r[c] // g
    if a != 1:
        r = {j: a * v for j, v in r.items()}
    for j, v in pivot.items():
        t = r.get(j, 0) - b * v
        if t:
            r[j] = t
        else:
            r.pop(j, None)
    return _primitive(r) if r else r


def _clear_p(r: dict[int, int], pivot: dict[int, int], c: int, p: int) -> dict[int, int]:
    """r - r[c] * pivot mod p, in place, for a monic pivot row: column c of
    the result is zero."""
    f = r[c]
    for j, v in pivot.items():
        t = (r.get(j, 0) - f * v) % p
        if t:
            r[j] = t
        else:
            r.pop(j, None)
    return r


def _rref_rows(rows: Iterable[dict[int, int]], back: bool, p: int | None
               ) -> tuple[list[dict[int, int]], list[int]]:
    """Bucket elimination of sparse integer rows over QQ (p None) or GF(p).
    It consumes the rows: over QQ they must be primitive, over GF(p)
    reduced mod p.

    Each row waits in the bucket of its lead column; the first row of the
    lowest bucket becomes its pivot row and clears the others, which move on
    to the buckets of their new lead columns.  Over QQ a row is cleared by
    cross-multiplication and divided by its content, so its entries stay
    coprime integers (``_clear``); over GF(p) the pivot row is made monic
    and a row is cleared by r - r[c] * pivot (``_clear_p``).  Zero rows are
    dropped and pivots ascend.  With ``back`` each pivot column is also
    cleared above its pivot, bottom row first: a row clears only the pivot
    columns it holds, and since the rows below it are already reduced, no
    clear brings in a pivot column.  Each row is then a multiple of its row
    of the reduced echelon form, that row itself over GF(p).  Without
    ``back`` only the pivots are meaningful."""
    clear = _clear if p is None else (lambda r, pivot, c: _clear_p(r, pivot, c, p))
    done: list[tuple[int, dict]] = []  # (pivot col, row)
    buckets: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    leads = list(buckets)  # a heap of the bucket keys: a cleared row's lead only grows
    heapq.heapify(leads)
    while leads:
        c = heapq.heappop(leads)
        group = buckets.pop(c)
        pivot = group[0]
        if p is not None and pivot[c] != 1:
            inv = pow(pivot[c], -1, p)
            for j, v in pivot.items():
                pivot[j] = v * inv % p
        done.append((c, pivot))
        for r in group[1:]:
            r = clear(r, pivot, c)
            if r:
                lead = min(r)
                if lead in buckets:
                    buckets[lead].append(r)
                else:
                    buckets[lead] = [r]
                    heapq.heappush(leads, lead)
    done.sort(key=lambda t: t[0])
    pivots = [c for c, _ in done]
    out = [r for _, r in done]
    if back:
        row_of = {c: i for i, c in enumerate(pivots)}
        for k in range(len(out) - 2, -1, -1):
            lead = pivots[k]
            for c in [c for c in out[k] if c != lead and c in row_of]:
                out[k] = clear(out[k], out[row_of[c]], c)
    return out, pivots


def _over_pivots(rows: list[dict[int, int]], pivots: list[int]) -> list[int]:
    """Denominators that store the finished primitive rows of ``_rref_rows``
    as reduced rows: each row over its pivot entry, negated in place where
    that entry is negative."""
    dens = []
    for i, c in enumerate(pivots):
        d = rows[i][c]
        if d < 0:
            rows[i] = {j: -v for j, v in rows[i].items()}
            d = -d
        dens.append(d)
    return dens


def _non_pivots(n: int, pivots: list[int]) -> list[int]:
    pivset = set(pivots)
    return [c for c in range(n) if c not in pivset]


# the largest primes FieldSpec accepts (p^2 < 2^53), descending: the QQ rank
# reads its ranks and kernels mod these (_modular_rank)
_LIFT_PRIMES = (94906249, 94906247, 94906219, 94906213, 94906171, 94906169,
                94906153, 94906151, 94906139, 94906127, 94906099, 94906069)


def _modular_rank(rows: list[dict[int, int]], ncols: int) -> int | None:
    """The rank over QQ of the nonzero integer rows, settled mod primes, or
    None if the primes of ``_LIFT_PRIMES`` do not settle it.

    A minor that vanishes over QQ vanishes mod p, so the rank mod p is at
    most the rank over QQ.  A side is the rows, for the right kernel, or
    their transpose, for the left kernel; mod each prime in turn, each side
    is reduced on the dense path, the side with fewer columns first.  Its
    forward pass is the first test: a rank mod p of min(rows, columns) is
    the rank over QQ, which is at most that.  Otherwise, with R the rref and
    P its pivots, the free column f gives the kernel vector v_f = e_f -
    sum_i R[i, f] e_{P[i]}.  The residues of R[:, free] are combined by CRT
    over the primes so far and lifted by rational reconstruction to N / D,
    so that W = D * K is an integer matrix.  If the rows M of the side give
    M @ W = 0 exactly, the rank is len(P): W is D times the identity on the
    free columns, so its columns are independent and the rank over QQ is at
    most len(P), the rank mod p.  A side whose pivots change at a later
    prime is dropped."""
    full = min(len(rows), ncols)
    first = len(rows) < ncols  # the left side has fewer columns
    widths = {left: len(rows) if left else ncols for left in (first, not first)}
    lifts: dict[bool, tuple[list[int], list[list[int]]]] = {}  # pivots, residues
    modulus = 1
    for p in _LIFT_PRIMES:
        for left in list(widths):
            a = _to_array(rows, ncols, left, p)
            piv = _forward_p(a, p)
            if len(piv) == full:
                return full
            if modulus > 1 and lifts[left][0] != piv:
                del widths[left]
                continue
            _back_p(a, p, piv)
            free = _non_pivots(widths[left], piv)
            res = a[:len(piv), free].tolist()
            del a
            if modulus > 1:
                res = _crt(lifts[left][1], modulus, res, p)
            lifts[left] = piv, res
            lifted = _reconstruct(res, modulus * p)
            if lifted is None:
                continue
            side = Mat(QQ, len(rows), ncols, rows=rows, dens=[1] * len(rows))
            if _annihilates((side.transpose() if left else side).rows, piv, free, *lifted):
                return len(piv)
        modulus *= p
    return None


def _crt(res: list[list[int]], m: int, new: list[list[int]], p: int) -> list[list[int]]:
    """The residues mod m * p that are res mod m and new mod p."""
    inv = pow(m, -1, p)
    return [[x + m * ((y - x) * inv % p) for x, y in zip(r, s)] for r, s in zip(res, new)]


def _reconstruct(res: list[list[int]], m: int) -> tuple[list[list[int]], int] | None:
    """Integers N and one denominator D > 0 with N = D * res mod m, or None.

    Each entry must be n / d with |n| and d at most sqrt(m / 2), Wang's
    bound, under which n / d is unique; D is the lcm of the d, built as it
    goes, and must stay within the bound too.  An entry whose residue times
    the D so far is already within it needs no reconstruction."""
    bound = isqrt(m // 2)
    den = 1
    out = []  # (numerator, the denominator it is over)
    for row in res:
        nums = []
        for x in row:
            b = x * den % m
            if b > bound:
                b -= m
                if -b > bound:
                    nd = _ratrecon(x, m, bound)
                    if nd is None:
                        return None
                    b, d = nd
                    den = lcm(den, d)
                    if den > bound:
                        return None
                    b *= den // d
            nums.append((b, den))
        out.append(nums)
    return [[b * (den // d) for b, d in nums] for nums in out], den


def _ratrecon(b: int, m: int, bound: int) -> tuple[int, int] | None:
    """n / d = b mod m with |n| <= bound, 0 < d <= bound and gcd(n, d) = 1,
    from the extended Euclidean remainders of (m, b); None if there is none."""
    r0, r1, t0, t1 = m, b, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _annihilates(rows: list[dict[int, int]], piv: list[int], free: list[int],
                 nums: list[list[int]], den: int) -> bool:
    """Whether rows @ W = 0 exactly, for W the kernel candidate of
    ``_modular_rank``: column k is den at free[k] and -nums[i][k] at piv[i]."""
    w = {c: {k: -v for k, v in enumerate(row) if v} for c, row in zip(piv, nums)}
    w.update((f, {k: den}) for k, f in enumerate(free))
    prod, _ = _sparse_mul(rows, [1] * len(rows), w, dict.fromkeys(w, 1))
    return not any(prod)


# ---------------------------------------------------------------- GF(p) kernel


# a GF(p) elimination runs on sparse rows when at most 1/_SPARSE_RATIO of its
# entries are nonzero (Mat._on_sparse_rows), and on the dense array otherwise
_SPARSE_RATIO = 20


def _to_array(rows: list[dict[int, int]], ncols: int, transposed: bool = False,
              p: int | None = None) -> np.ndarray:
    """The int64 array with the rows {col: v}, or its transpose; with p the
    integer entries are reduced mod p."""
    ii = [i for i, r in enumerate(rows) for _ in range(len(r))]
    jj = [j for r in rows for j in r]
    out = np.zeros((ncols, len(rows)) if transposed else (len(rows), ncols), np.int64)
    vals = [v for r in rows for v in r.values()]
    out[(jj, ii) if transposed else (ii, jj)] = vals if p is None else [v % p for v in vals]
    return out


def _flush_interval(p: int) -> int:
    """Elimination steps after which unreduced int64 entries must be reduced.

    Entries start in [0, p) and each step subtracts a product below p^2, so
    K steps stay in range while p + K (p-1)^2 < 2^63: K = 1024 at the largest
    accepted prime 94906249, about 9e9 at 32003."""
    return ((1 << 63) - 1 - p) // ((p - 1) ** 2)


def _forward_p(a: np.ndarray, p: int) -> list[int]:
    """Forward pass on the int64 array a (entries in [0, p)), in place.

    The pivot of column c is the first row at or below the current one with a
    nonzero entry there, made monic, and it clears the rows below it.  Only
    the pivot column and the pivot row are reduced mod p at each step; the
    other rows take the update unreduced, and the live block is reduced every
    ``_flush_interval(p)`` steps and the whole array once at the end.
    Returns the pivot columns; the rows past them are zero."""
    m, n = a.shape
    flush = _flush_interval(p)
    steps = 0  # elimination steps since the last full reduction
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        col = a[r:, c] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = int(nz[0])
        if i:
            a[[r, r + i]] = a[[r + i, r]]
            col[[0, i]] = col[[i, 0]]
        row = a[r, c:] % p
        inv = pow(int(col[0]), p - 2, p)
        if inv != 1:
            row = row * inv % p
        a[r, c:] = row
        below = np.flatnonzero(col[1:])
        if below.size:
            a[r + 1 + below, c:] -= np.outer(col[1 + below], row)
        pivots.append(c)
        r += 1
        steps += 1
        if steps == flush:
            a[r:, c + 1:] %= p
            steps = 0
    a %= p
    return pivots


def _back_p(a: np.ndarray, p: int, pivots: list[int]) -> None:
    """Back pass on the output of ``_forward_p``, in place: each pivot column
    is cleared above its pivot, bottom pivot first, with the same deferred
    reduction.  The result is the reduced echelon form Gauss-Jordan gives."""
    flush = _flush_interval(p)
    steps = 0
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        f = a[:k, c] % p
        above = np.flatnonzero(f)
        if above.size:
            a[above, c:] -= np.outer(f[above], a[k, c:] % p)
        steps += 1
        if steps == flush:
            a[:k] %= p
            steps = 0
    a %= p


def _rref_p(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    a = np.mod(arr, p)
    pivots = _forward_p(a, p)
    _back_p(a, p, pivots)
    # the rows past the rank are zero; a kept basis must not pin them
    r = len(pivots)
    return (a if r == len(a) else a[:r].copy()), pivots


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p via float64 BLAS in chunks small enough to be exact."""
    # entries < p, products < p^2; float64 is exact up to 2^53, so chunks of
    # the inner dimension up to 2^53 / p^2 accumulate exactly.
    chunk = max(1, (1 << 53) // (p * p))
    k = a.shape[1]
    if k <= chunk:
        out = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return out % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, chunk):
        e = min(k, s + chunk)
        part = np.rint(a[:, s:e].astype(np.float64) @ b[s:e].astype(np.float64)).astype(np.int64)
        acc = (acc + part) % p
    return acc


# ------------------------------------------------- block reshaping helpers


def right_mul_vecrows(p: Mat, rows_inner: int, cols_inner: int, b: Mat) -> Mat:
    """Rows of p are vec(L) for L of shape (rows_inner, cols_inner); return the
    matrix whose rows are vec(L @ b), that is p times I ⊗ b."""
    q = p.nrows
    out_cols = rows_inner * b.ncols
    if p.field.is_rational:
        # row k = a * cols_inner + c of I ⊗ b is row c of b, shifted to block a;
        # only the rows that entries of p select are built
        ks = set().union(*p.rows)
        factor = {k: {k // cols_inner * b.ncols + c2: w
                      for c2, w in b.rows[k % cols_inner].items()} for k in ks}
        rows, dens = _sparse_mul(p.rows, p.dens, factor,
                                 {k: b.dens[k % cols_inner] for k in ks})
        return Mat(p.field, q, out_cols, rows=rows, dens=dens)
    x = p.arr.reshape(q * rows_inner, cols_inner)
    y = _matmul_mod(x, b.arr, p.field.p)
    return Mat(p.field, q, out_cols, arr=y.reshape(q, out_cols))


def left_mul_vecrows(p: Mat, rows_inner: int, cols_inner: int, t: Mat) -> Mat:
    """Rows of p are vec(G) for G of shape (rows_inner, cols_inner); return the
    matrix whose rows are vec(t @ G), that is p times tᵀ ⊗ I."""
    q = p.nrows
    out_cols = t.nrows * cols_inner
    if p.field.is_rational:
        # row k = a * cols_inner + c of tᵀ ⊗ I is column a of t, spread to offset c
        tt = t.transpose()
        ks = set().union(*p.rows)
        factor = {k: {a2 * cols_inner + k % cols_inner: w
                      for a2, w in tt.rows[k // cols_inner].items()} for k in ks}
        rows, dens = _sparse_mul(p.rows, p.dens, factor,
                                 {k: tt.dens[k // cols_inner] for k in ks})
        return Mat(p.field, q, out_cols, rows=rows, dens=dens)
    x = p.arr.reshape(q, rows_inner, cols_inner).transpose(1, 0, 2) \
        .reshape(rows_inner, q * cols_inner)
    y = _matmul_mod(t.arr, x, p.field.p)
    out = y.reshape(t.nrows, q, cols_inner).transpose(1, 0, 2).reshape(q, out_cols)
    return Mat(p.field, q, out_cols, arr=np.ascontiguousarray(out))
