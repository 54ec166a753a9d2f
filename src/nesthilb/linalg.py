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
  Each side, the rows and their transpose, is lifted at each prime until a
  side whose reconstruction gets through fewer entries than the other's at
  two primes in a row is dropped, as the one likely to need more primes;
  each prime costs a side an elimination.  The count is only a guess: a
  leading run of zeros or small integers raises it whatever the size of
  the entries after, and then the side kept may never lift.  The kernels
  mod p take the dense path, never sparse rows, on which a constraint
  matrix a few percent nonzero fills in.  No answer rests on a guess:
  where no kernel lifts and checks, the integer forward pass decides.
* GF(p) -- one storage rule, by density.  A matrix with at most 1/20 of
  its entries nonzero (``_SPARSE_RATIO``) is stored on sparse rows, dicts
  ``{col: int}`` with entries in [1, p), and ``dens`` None; a denser one as
  a numpy int64 array with entries in [0, p).  The constructor applies the
  rule, so the form depends on the entries alone, and every operation
  builds its result in the form the rule picks: the relation matrices of
  the census, below 0.1 % nonzero, stay on rows throughout.  A dict row costs
  about 90 bytes per nonzero against 8 per array cell, so dense matrices,
  such as the parameter tables of the tangent solves, stay arrays.  The
  stored form picks the elimination path.  On rows the elimination is the
  one the rationals run, with a monic pivot row; a dense pass over such a
  matrix would spend its time scanning empty columns.  Arrays, such as the
  syzygy matrices of the Betti tables, would fill in under sparse
  elimination, so they take the dense path: one forward pass (one
  vectorised row update per pivot) and one free-column solve.  In the
  forward pass reduction mod p is deferred: a step reduces only its pivot
  row and pivot column, and every other entry takes the update unreduced.
  Each update is below p^2 in magnitude, so the live block is reduced every
  K(p) = (2^63 - 1 - p) // (p - 1)^2 steps to stay inside int64 (K = 1024 at
  the largest accepted prime, about 9e9 at 32003, where it never fires) and
  once at the end.  The solve (``_free_solve``) is the only
  back-substitution: for the pivot columns A of the monic echelon rows and
  the free ones F it solves Y = A^-1 F alone, a block of rows at a time
  through ``_matmul_mod``.  The rref is the identity on the pivots and Y on
  the free columns; the kernel basis is -Y over an identity block, and a
  short elimination makes it canonical (``_kernel_p``).  Every dense
  elimination reads one matrix: ``rank``, ``rref``, ``kernel_basis`` and
  the rational rank's lift take the forward pass in blocks of rows
  (``_echelon_p``) that are written straight from the stored rows or array
  (``_row_blocks``).  Each pass runs on the pivot rows found so far and the
  next block, so the work array stays near ``_RANK_BLOCK`` cells or three
  times the square of the width, and the passes stop once the rank is the
  width.  ``full_column_rank`` is one such pass, mod the field's prime or a
  lift prime, for the tangent solves' pruning.  A tall matrix, stored on
  rows or as an array, is never written whole into one array.  ``rank``
  transposes a matrix wider than tall, an array as a view.  A tangent
  solve stacks its constraint blocks into one matrix with ``Mat.vstack``,
  which returns a lone full-width part as it is, so that one block is
  never copied.

Each question is answered by one elimination of its matrix.  The sparse
path has one body for both fields, ``_rref_rows``: rows wait in buckets by
their lead column, the first row of the lowest bucket is the pivot row, and
the back pass runs bottom-up, each row clearing only the pivot columns it
holds.  Over QQ a row is cleared fraction-free, over GF(p) by
r - r[c] * pivot mod p.  ``rref_with_transform`` takes any matrix and reads
three answers off the reduced ``[self | identity]``: the reduced form, the
transform T with T @ self equal to it, and the reduced basis of the left
kernel, the right halves of the rows whose pivots lie in the identity.  The
rational ``kernel_basis`` reads the reduced kernel basis off the rref of the
matrix with its columns reversed (see its docstring).  The row bodies of the
structural operations are shared by both fields; over GF(p) the ones that
do arithmetic reduce mod p.  Products run on rows (``_sparse_mul``) over QQ,
and over GF(p) when the left factor is stored on rows and its multiply-adds
are at most 1/20 of the output's entries (``_few_macs``), so the output is
stored on rows too; other GF(p) products run on BLAS (``_matmul_mod``) on
dense work arrays.  The vec-row products are products with ``I ⊗ b`` and
``Tᵀ ⊗ I``.

Everything is deterministic and exact: reduced row echelon forms are canonical
for the row space and kernels are returned in reduced echelon form.  The only
floating point anywhere is the float64 BLAS multiply used as an exact integer
carrier for GF(p) products, chunked so every intermediate stays below 2^53.
"""

from __future__ import annotations

import heapq
import operator
from itertools import chain
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

    Entries live in ``self.rows``, one sparse dict ``{col: int}`` per row.
    Over QQ the values are integer numerators over ``self.dens``, one
    denominator per row in lowest terms; over GF(p) they are residues in
    [1, p) and ``dens`` is None.  A GF(p) matrix with more than
    1/``_SPARSE_RATIO`` of its entries nonzero is stored instead as a 2-d
    int64 array with entries in [0, p), and ``rows`` is None.  The
    constructor applies that rule, so the stored form depends on the entries
    alone and equal matrices store equal data.  ``arr`` reads any GF(p)
    matrix as an array.  The storage format is private to this module: other
    code reads entries through ``row_items``.  Do not mutate after handing a
    matrix to other code; rows may be shared between matrices.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "dens", "_arr")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows=None, dens=None,
                 arr=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.dens = dens
        if field.p is not None:  # the storage rule, applied to rows or to an array
            nnz = sum(map(len, rows)) if arr is None else int(np.count_nonzero(arr))
            if _sparse(nnz, nrows, ncols):
                if arr is not None:
                    rows, arr = _array_rows(arr), None
            elif arr is None:
                rows, arr = None, _to_array(rows, ncols)
        self.rows = rows
        self._arr = arr

    @property
    def arr(self) -> np.ndarray:
        """The GF(p) entries as an int64 array: the stored one, or a new one
        built from the rows."""
        return self._arr if self._arr is not None else _to_array(self.rows, self.ncols)

    # ---------------------------------------------------------------- builders

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Mat":
        return Mat(field, nrows, ncols, rows=[{} for _ in range(nrows)], dens=_ones(field, nrows))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        return Mat(field, n, n, rows=[{i: 1} for i in range(n)], dens=_ones(field, n))

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
        return Mat.from_entries(field, nrows, ncols,
                                ((i, j, v) for i, r in enumerate(data) for j, v in enumerate(r)))

    @staticmethod
    def from_entries(field: FieldSpec, nrows: int, ncols: int,
                     entries: Iterable[tuple[int, int, object]]) -> "Mat":
        """Build from (row, col, value) triples; values at one position add up."""
        p = field.p
        acc: list[dict] = [{} for _ in range(nrows)]
        for i, j, v in entries:
            if type(v) is not int:
                v = to_field(field, v)
            if v:
                r = acc[i]
                t = r.get(j, 0) + v
                if p is not None:
                    t %= p
                if t:
                    r[j] = t
                else:
                    r.pop(j, None)
        if p is not None:
            return Mat(field, nrows, ncols, rows=acc)
        pairs = [_over_one_den(r) for r in acc]
        return Mat(field, nrows, ncols, rows=[r for r, _ in pairs], dens=[d for _, d in pairs])

    @staticmethod
    def vstack(field: FieldSpec, mats: Sequence["Mat"], ncols: int) -> "Mat":
        """The rows of the mats stacked, each of at most ncols columns and
        padded with zero columns on the right.  Parts with no rows are
        dropped, and a lone part of ncols columns is returned as it is."""
        mats = [m for m in mats if m.nrows]
        if len(mats) == 1 and mats[0].ncols == ncols:
            return mats[0]
        nrows = sum(m.nrows for m in mats)
        if field.is_rational or _sparse(sum(m._nnz() for m in mats), nrows, ncols):
            dens = [d for m in mats for d in m.dens] if field.is_rational else None
            return Mat(field, nrows, ncols, rows=[r for m in mats for r in m._rows()], dens=dens)
        out = np.zeros((nrows, ncols), np.int64)
        at = 0
        for m in mats:
            m._fill(out[at:at + m.nrows, :m.ncols])
            at += m.nrows
        return Mat(field, nrows, ncols, arr=out)

    @staticmethod
    def hstack(field: FieldSpec, mats: Sequence["Mat"]) -> "Mat":
        nrows, ncols = mats[0].nrows, sum(m.ncols for m in mats)
        if not field.is_rational and not _sparse(sum(m._nnz() for m in mats), nrows, ncols):
            out = np.zeros((nrows, ncols), np.int64)
            at = 0
            for m in mats:
                m._fill(out[:, at:at + m.ncols])
                at += m.ncols
            return Mat(field, nrows, ncols, arr=out)
        # each part of row i over the lcm of its parts' denominators: some
        # part has no factor of the lcm left over, so it stays lowest terms
        dens = [lcm(*ds) for ds in zip(*(m.dens for m in mats))] if field.is_rational else None
        rows = [{} for _ in range(nrows)]
        off = 0
        for m in mats:
            for i, r in enumerate(m._rows()):
                if r:
                    f = 1 if dens is None else dens[i] // m.dens[i]
                    vals = r.values() if f == 1 else [v * f for v in r.values()]
                    rows[i].update(zip(map(off.__add__, r), vals))  # column j goes to off + j
            off += m.ncols
        return Mat(field, nrows, ncols, rows=rows, dens=dens)

    # ----------------------------------------------------------------- access

    def take_rows(self, idx: Sequence[int]) -> "Mat":
        if self._arr is not None:
            return Mat(self.field, len(idx), self.ncols, arr=self._arr[list(idx)])
        dens = None if self.dens is None else [self.dens[i] for i in idx]
        return Mat(self.field, len(idx), self.ncols, rows=[self.rows[i] for i in idx], dens=dens)

    def take_cols(self, idx: Sequence[int]) -> "Mat":
        if self._arr is not None:
            return Mat(self.field, self.nrows, len(idx), arr=self._arr[:, list(idx)])
        return self.remap_cols(len(idx), [(c, k) for k, c in enumerate(idx)])

    def _with_rows(self, ncols: int, rows: list[dict[int, int]]) -> "Mat":
        """A matrix of these rows, each taken over this matrix's denominator of
        the same row and brought to lowest terms."""
        dens = None if self.dens is None else list(self.dens)
        for i, d in enumerate(dens or ()):
            if d != 1:
                rows[i], dens[i] = _lowest_terms(rows[i], d)
        return Mat(self.field, self.nrows, ncols, rows=rows, dens=dens)

    def transpose(self) -> "Mat":
        if self._arr is not None:
            return Mat(self.field, self.ncols, self.nrows, arr=self._arr.T.copy())
        rows = _transpose_rows(self.rows, self.ncols)
        if self.dens is None:
            return Mat(self.field, self.ncols, self.nrows, rows=rows)
        dens = [1] * self.ncols
        for i, d in enumerate(self.dens):
            if d != 1:
                for j in self.rows[i]:
                    dens[j] = lcm(dens[j], d)
        for j, den in enumerate(dens):  # bring column j over one denominator
            if den != 1:
                rows[j], dens[j] = _lowest_terms(
                    {i: v * (den // self.dens[i]) for i, v in rows[j].items()}, den)
        return Mat(self.field, self.ncols, self.nrows, rows=rows, dens=dens)

    def remap_cols(self, dest_width: int, pairs: Sequence[tuple[int, int]]) -> "Mat":
        """New matrix with column src moved to column dest for each pair; other
        destination columns are zero."""
        if self._arr is not None:
            src, dest = (list(c) for c in zip(*pairs)) if pairs else ([], [])
            part = self._arr[:, src]
            if _sparse(int(np.count_nonzero(part)), self.nrows, dest_width):
                return Mat(self.field, self.nrows, dest_width, rows=_array_rows(part, dest))
            out = np.zeros((self.nrows, dest_width), dtype=np.int64)
            out[:, dest] = part
            return Mat(self.field, self.nrows, dest_width, arr=out)
        dest = [-1] * self.ncols
        for j, d in pairs:
            dest[j] = d
        rows = []
        for r in self.rows:  # a loop, not a comprehension: most rows are short
            row = {}
            for j, v in r.items():
                if (d := dest[j]) >= 0:
                    row[d] = v
            rows.append(row)
        return self._with_rows(dest_width, rows)

    def row_items(self, i: int) -> dict[int, object]:
        """The nonzero entries {col: value} of row i."""
        if self._arr is not None:
            return {int(j): int(self._arr[i, j]) for j in np.flatnonzero(self._arr[i])}
        if self.dens is None:
            return dict(self.rows[i])
        d = self.dens[i]
        return {j: mpq(v, d) for j, v in self.rows[i].items()}

    def is_zero(self) -> bool:
        # a zero matrix is stored on rows over both fields
        return self._arr is None and not any(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or self.field != other.field:
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        # the storage rule and lowest terms make the stored form canonical
        if self._arr is not None or other._arr is not None:
            return other._arr is not None and self._arr is not None and \
                bool(np.array_equal(self._arr, other._arr))
        return self.dens == other.dens and self.rows == other.rows

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self):
        return f"Mat({self.field.label}, {self.nrows}x{self.ncols})"

    def _nnz(self) -> int:
        return sum(map(len, self.rows)) if self._arr is None else int(np.count_nonzero(self._arr))

    def _rows(self) -> list[dict[int, int]]:
        """The stored rows, or rows read off the stored array."""
        return self.rows if self._arr is None else _array_rows(self._arr)

    def _row_lens(self) -> np.ndarray:
        """The number of nonzeros in each row."""
        if self._arr is None:
            return np.fromiter(map(len, self.rows), np.int64, self.nrows)
        return np.count_nonzero(self._arr, axis=1)

    def _fill(self, out: np.ndarray) -> None:
        """Write the GF(p) entries into out, a zero array of this shape."""
        if self._arr is not None:
            out[...] = self._arr
        else:
            ii, jj, vals = _coords(self.rows)
            out[ii, jj] = vals

    # ------------------------------------------------------------- arithmetic

    def matmul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise LinalgError("matmul shape mismatch")
        fld = self.field
        if self.dens is not None or self._arr is None and _few_macs(
                self.rows, other._row_lens(), self.nrows * other.ncols):
            rows, dens = _sparse_mul(self.rows, self.dens, other._rows(), other.dens, fld.p)
            return Mat(fld, self.nrows, other.ncols, rows=rows, dens=dens)
        return Mat(fld, self.nrows, other.ncols, arr=_matmul_mod(self.arr, other.arr, fld.p))

    def sub(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinalgError("sub shape mismatch")
        p = self.field.p
        if self._arr is not None or other._arr is not None:
            out = self.arr if self._arr is None else self._arr.copy()
            if other._arr is not None:
                out -= other._arr
            else:
                ii, jj, vals = _coords(other.rows)
                out[ii, jj] -= vals
            out %= p
            return Mat(self.field, self.nrows, self.ncols, arr=out)
        rows, dens = [], []
        ones = [1] * self.nrows  # the denominators over GF(p)
        for r, d, s, e in zip(self.rows, self.dens or ones, other.rows, other.dens or ones):
            if not s:
                rows.append(r)
                dens.append(d)
                continue
            den = lcm(d, e)
            f, g = den // d, den // e
            out = dict(r) if f == 1 else {j: v * f for j, v in r.items()}
            for j, v in s.items():
                t = out.get(j, 0) - v * g
                if p is not None:
                    t %= p
                if t:
                    out[j] = t
                else:
                    del out[j]
            out, den = _lowest_terms(out, den)
            rows.append(out)
            dens.append(den)
        return Mat(self.field, self.nrows, self.ncols, rows=rows,
                   dens=None if self.dens is None else dens)

    # ------------------------------------------------------------ elimination

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form without its zero rows, and its pivots."""
        fld, n = self.field, self.ncols
        if self._arr is not None:
            arr, piv = _rref_p(self._arr, fld.p)
            return Mat(fld, arr.shape[0], n, arr=arr), piv
        rows, piv = _rref_rows(self._fresh_rows(), True, fld.p)
        dens = _over_pivots(rows, piv) if fld.is_rational else None
        return Mat(fld, len(rows), n, rows=rows, dens=dens), piv

    def rref_with_transform(self) -> tuple["Mat", list[int], "Mat", "Mat"]:
        """Return (R, pivots, T, K) for any matrix, read off the reduced
        ``[self | identity]``: R is the reduced echelon form of self without
        its zero rows, T @ self = R, and the rows of K are the reduced basis
        of the left kernel {v : v @ self = 0}.  The rows past the rank have
        their pivots in the identity and zero left halves: their right
        halves are K."""
        m, n = self.nrows, self.ncols
        aug, piv = Mat.hstack(self.field, [self, Mat.identity(self.field, m)]).rref()
        rank = sum(c < n for c in piv)
        red, right = aug.take_cols(range(n)), aug.take_cols(range(n, n + m))
        return (red.take_rows(range(rank)), piv[:rank], right.take_rows(range(rank)),
                right.take_rows(range(rank, m)))

    def rank(self) -> int:
        # over GF(p) blocked forward passes, with the shorter side as columns
        p = self.field.p
        if p is not None:
            a, n = (self.rows if self._arr is None else self._arr), self.ncols
            if n > self.nrows:  # a transposed array is a view
                a, n = (_transpose_rows(a, n) if self._arr is None else a.T), self.nrows
            return len(_echelon_p(a, n, p)[1])
        # scaling a row keeps its rank: the numerators stand for the rows
        rank = _modular_rank([r for r in self.rows if r], self.ncols)  # zero rows add nothing
        if rank is None:
            rank = len(_rref_rows(self._fresh_rows(), False, None)[1])
        return rank

    def _fresh_rows(self) -> list[dict[int, int]]:
        """One new {col: int} dict per stored row for ``_rref_rows`` to
        consume: the primitive parts of the numerators over QQ, the residues
        over GF(p)."""
        rows = map(_primitive, self.rows) if self.field.is_rational else self.rows
        return [dict(r) for r in rows]

    def kernel_basis(self) -> "Mat":
        """Rows = reduced-echelon basis of the right kernel {v : self @ v = 0}.

        Over GF(p) the rows are read in blocks by the forward passes of
        ``rank``, and the free columns alone are then solved by
        back-substitution (``_kernel_p``).  Over QQ, R' is the rref of self
        with its columns reversed, with pivots P: column c of R' is column
        n-1-c of self.  Its free column f gives the kernel vector e_f -
        sum_i R'[i, f] e_{P[i]}, and R'[i, f] is zero unless P[i] < f.
        Turned back, column c to n-1-c, the vector leads at n-1-f and its
        other entries lie in columns n-1-P[i], right of its lead and no
        vector's lead, so the vectors sorted by n-1-f are already in reduced
        echelon form: the canonical basis of the kernel, with no second
        elimination.  Both fields give that basis.
        """
        fld, n = self.field, self.ncols
        if fld.p is not None:
            ker = _kernel_p(self.rows if self._arr is None else self._arr, n, fld.p)
            return Mat(fld, ker.shape[0], n, arr=ker)
        red, piv = self.take_cols(range(n - 1, -1, -1)).rref()
        free = _non_pivots(n, piv)
        turned = lambda cols: [(k, n - 1 - c) for k, c in enumerate(cols)]  # columns turned back
        lead = Mat.identity(fld, len(free)).remap_cols(n, turned(free))
        ker = lead.sub(red.transpose().take_rows(free).remap_cols(n, turned(piv)))
        return ker.take_rows(range(ker.nrows - 1, -1, -1))


def full_column_rank(m: Mat) -> bool:
    """Whether m has rank m.ncols mod one prime: the field's, or the first
    lift prime over QQ, where the rows are the numerators.  One forward pass
    (``_echelon_p``), which stops once the rank is m.ncols.  A rank mod p is
    at most the rank over QQ, so True holds over both fields; False only
    means not full mod that prime."""
    a = m.rows if m._arr is None else m._arr
    return len(_echelon_p(a, m.ncols, m.field.p or _LIFT_PRIMES[0])[1]) == m.ncols


def _ones(field: FieldSpec, n: int) -> list[int] | None:
    """The denominators of n integer rows: all 1 over QQ, none over GF(p)."""
    return [1] * n if field.is_rational else None


# ------------------------------------------------------------------ QQ kernel


def _sparse_mul(rows: Sequence[dict], dens, other_rows, other_dens, p: int | None = None
                ) -> tuple[list[dict], list[int] | None]:
    """Rows of the product, and over QQ their denominators.  Row i reads the
    rows k of other that its entries name and sums v * other_rows[k] over the
    entries k: v of rows[i].  Over QQ, with L the lcm of the denominators of
    the rows it reads, it sums v * (L // other_dens[k]) * other_rows[k] in
    integers, over the denominator dens[i] * L, and is brought to lowest
    terms once; over GF(p) (p given, no denominators) the sums are reduced
    mod p.  other_rows and other_dens may be dicts."""
    out, out_dens = [], []
    for i, r in enumerate(rows):
        if p is not None and len(r) == 1:  # v * one row: p is prime, so no zeros
            (k, v), = r.items()
            out.append({j: v * w % p for j, w in other_rows[k].items()})
            continue
        big = 1 if p is not None else lcm(*(other_dens[k] for k in r))
        acc: dict[int, int] = {}
        for k, v in r.items():
            if big != 1 and other_dens[k] != big:
                v *= big // other_dens[k]
            for j, w in other_rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        if p is not None:  # the sums mod p, zeros dropped
            out.append({j: t for j, t in zip(acc, map(p.__rmod__, acc.values())) if t})
            continue
        nums, den = _lowest_terms({j: t for j, t in acc.items() if t}, dens[i] * big)
        out.append(nums)
        out_dens.append(den)
    return out, None if p is not None else out_dens


def _few_macs(rows: list[dict[int, int]], lens: np.ndarray, out_cells: int) -> bool:
    """Whether the GF(p) rows times a factor whose row k has lens[k]
    nonzeros take at most 1/_SPARSE_RATIO of out_cells multiply-adds.  They
    bound the nonzeros of the product, which is then stored on rows, and the
    product runs on rows (``_sparse_mul``); otherwise it runs on BLAS."""
    uses = np.bincount(np.fromiter(chain.from_iterable(rows), np.int64), minlength=len(lens))
    return _sparse(int(uses @ lens), 1, out_cells)


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
    takes the dense forward passes (``_echelon_p``, which reduces the rows
    mod p as it writes its blocks), the side with fewer columns first.  They
    are the first test: a rank mod p of min(rows, columns) is the rank over
    QQ, which is at most that.  Otherwise, with P the pivots, the free
    column f gives the kernel vector v_f = e_f - sum_i Y[i, f] e_{P[i]}, for
    the Y of ``_free_solve``.  The residues of Y are combined by CRT over the
    primes so far and lifted by rational reconstruction to N / D, so that
    W = D * K is an integer matrix.  If the rows M of the side give M @ W = 0
    exactly, the rank is len(P): W is D times the identity on the free
    columns, so its columns are independent and the rank over QQ is at most
    len(P), the rank mod p.  A side whose pivots change at a later prime is
    dropped, and so is a side whose reconstruction gets through fewer
    entries than the other side's at two primes in a row, as the one likely
    to need more primes: each prime costs a side one elimination.  The
    count can mislead, as a leading run of small entries raises it, and
    the side kept may then never lift; no answer depends on which side is
    kept."""
    full = min(len(rows), ncols)
    sides = [len(rows) < ncols, len(rows) >= ncols]  # left side first if it is narrower
    lifts: dict[bool, tuple[list[int], list[list[int]]]] = {}  # pivots, residues
    behind = dict.fromkeys(sides, 0)  # primes in a row at which a side fell behind
    cols = None  # the rows transposed, the left side's rows
    modulus = 1
    for p in _LIFT_PRIMES:
        reached = {}  # entries each side reconstructed at this prime
        for left in list(sides):
            if left and cols is None:
                cols = _transpose_rows(rows, ncols)
            side = cols if left else rows
            u, piv = _echelon_p(side, len(rows) if left else ncols, p)
            if len(piv) == full:
                return full
            if modulus > 1 and lifts[left][0] != piv:
                sides.remove(left)
                continue
            free, res = _free_solve(u, piv, p)
            res = res.tolist()
            if modulus > 1:
                res = _crt(lifts[left][1], modulus, res, p)
            lifts[left] = piv, res
            lifted, reached[left] = _reconstruct(res, modulus * p)
            if lifted is not None and _annihilates(side, piv, free, *lifted):
                return len(piv)
        if len(reached) == 2:
            for left in reached:
                behind[left] = behind[left] + 1 if reached[left] < reached[not left] else 0
                if behind[left] == 2:
                    sides.remove(left)
        modulus *= p
    return None


def _crt(res: list[list[int]], m: int, new: list[list[int]], p: int) -> list[list[int]]:
    """The residues mod m * p that are res mod m and new mod p."""
    inv = pow(m, -1, p)
    return [[x + m * ((y - x) * inv % p) for x, y in zip(r, s)] for r, s in zip(res, new)]


def _reconstruct(res: list[list[int]], m: int
                 ) -> tuple[tuple[list[list[int]], int] | None, int]:
    """Integers N and one denominator D > 0 with N = D * res mod m, or None,
    and the number of entries reconstructed, in row order, before it
    stopped.

    Each entry must be n / d with |n| and d at most sqrt(m / 2), Wang's
    bound, under which n / d is unique; D is the lcm of the d, built as it
    goes, and must stay within the bound too.  An entry whose residue times
    the D so far is already within it needs no reconstruction."""
    bound = isqrt(m // 2)
    den = 1
    done = 0
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
                        return None, done
                    b, d = nd
                    den = lcm(den, d)
                    if den > bound:
                        return None, done
                    b *= den // d
            nums.append((b, den))
            done += 1
        out.append(nums)
    return ([[b * (den // d) for b, d in nums] for nums in out], den), done


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


# a GF(p) matrix is stored on sparse rows when at most 1/_SPARSE_RATIO of its
# entries are nonzero, and as an int64 array otherwise (Mat.__init__)
_SPARSE_RATIO = 20
_RANK_BLOCK = 1 << 16  # cells of a block of rows in Mat.rank's dense forward passes


def _sparse(nnz: int, nrows: int, ncols: int) -> bool:
    return nnz * _SPARSE_RATIO <= nrows * ncols


def _coords(rows: list[dict[int, int]], p: int | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of the entries of the rows, as
    int64 arrays in row order; with p the values are reduced mod p."""
    ii = np.repeat(np.arange(len(rows)), np.fromiter(map(len, rows), np.int64, len(rows)))
    jj = np.fromiter(chain.from_iterable(rows), np.int64, len(ii))
    vals = chain.from_iterable(map(dict.values, rows))
    if p is not None:
        vals = (v % p for v in vals)
    return ii, jj, np.fromiter(vals, np.int64, len(ii))


def _to_array(rows: list[dict[int, int]], ncols: int) -> np.ndarray:
    """The int64 array with the rows {col: v}."""
    ii, jj, vals = _coords(rows)
    out = np.zeros((len(rows), ncols), np.int64)
    out[ii, jj] = vals
    return out


def _transpose_rows(rows: list[dict], ncols: int) -> list[dict]:
    """The columns of the rows {col: v}, as ncols rows {row: v}."""
    out: list[dict] = [{} for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[j][i] = v
    return out


def _array_rows(a: np.ndarray, cols: list[int] | None = None) -> list[dict[int, int]]:
    """The rows {col: v} of the nonzero entries of the 2-d array a; with
    cols, column j of a is keyed cols[j]."""
    ii, jj = np.nonzero(a)
    vals = a[ii, jj].tolist()
    rows: list[dict[int, int]] = [{} for _ in range(a.shape[0])]
    for i, j, v in zip(ii.tolist(), (jj if cols is None else np.take(cols, jj)).tolist(), vals):
        rows[i][j] = v
    return rows


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
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        i = nz[0]
        if i:  # the old row r had a zero here, so nz[1:] still names the rows to clear
            a[[r, r + i]] = a[[r + i, r]]
        row = a[r, c:] % p
        inv = pow(int(col[i]), p - 2, p)
        if inv != 1:
            row = row * inv % p
        a[r, c:] = row
        below = nz[1:]
        if below.size:
            a[r + below, c:] -= col[below, None] * row
        pivots.append(c)
        r += 1
        steps += 1
        if steps == flush:
            a[r:, c + 1:] %= p
            steps = 0
    a %= p
    return pivots


def _row_blocks(a, n: int, p: int) -> Iterable[np.ndarray]:
    """The rows of a mod p, as new int64 arrays of up to max(2 n,
    _RANK_BLOCK / n) rows each.  a is an array of n columns with entries in
    [0, p), or a list of rows {col: v} of integers of any size, of n
    columns; zero rows of a list are left out.  a is never written whole
    into one array: a block holds only its own rows."""
    step = max(2 * n, _RANK_BLOCK // max(n, 1))
    if isinstance(a, list):
        a = [r for r in a if r]
    for s in range(0, len(a), step):
        if isinstance(a, list):
            block = np.zeros((min(step, len(a) - s), n), np.int64)
            ii, jj, vals = _coords(a[s:s + step], p)
            block[ii, jj] = vals
        else:
            block = a[s:s + step].copy()
        yield block


def _echelon_p(a, n: int, p: int) -> tuple[np.ndarray, list[int]]:
    """The forward passes of ``rank``, ``_kernel_p``, ``_rref_p`` and
    ``_modular_rank`` over the rows of a, read in blocks by ``_row_blocks``.
    Each pass runs on the pivot rows found so far and the next block, so
    that the work array stays within max(3 n^2, _RANK_BLOCK + n^2) cells
    whatever the height: a matrix of up to 2 n rows is one block, and the
    pivot rows at most a third of a later one.  The passes stop once the
    rank is n.  Returns the monic echelon rows of the row space and their
    pivot columns."""
    basis, pivots = np.zeros((0, n), np.int64), []
    for block in _row_blocks(a, n, p):
        work = np.concatenate([basis, block]) if len(basis) else block
        pivots = _forward_p(work, p)
        basis = work[:len(pivots)]
        if len(pivots) == n:
            break
    return basis, pivots


# rows solved one by one in a back-substitution step of _free_solve: each
# entry sums fewer than _BACK_BLOCK products below p^2 < 2^53, inside int64
_BACK_BLOCK = 64


def _kernel_p(a, n: int, p: int) -> np.ndarray:
    """The canonical kernel basis, an int64 array, of the rows of a (an
    array or a list of rows, as ``_row_blocks`` reads them), from their
    echelon rows U (``_echelon_p``).

    ``_free_solve`` gives a basis with an identity block on the free columns
    of U.  With at most as many free columns as pivots, as in the constraint
    rows of the tangent solves, its reduced echelon form is the canonical
    basis, a small elimination.  Otherwise U, its few rows with the columns
    reversed, is reduced again: there the basis has its other entries in
    pivot columns past each vector's leading 1, as in the rational
    ``kernel_basis``, so with the columns and the vectors reversed back it
    is the canonical basis itself.  The forward passes never run on the
    rows of a reversed: there the tangent constraint rows fill in, which
    made the forward pass of the I2:16 kernel at e = -1 nearly three times
    slower."""
    u, piv = _echelon_p(a, n, p)
    wide = n - len(piv) > len(piv)
    if wide:
        u = np.ascontiguousarray(u[:, ::-1])
        piv = _forward_p(u, p)
    free, y = _free_solve(u, piv, p)
    ker = np.zeros((len(free), n), np.int64)
    ker[np.arange(len(free)), free] = 1
    ker[:, piv] = -y.T % p
    return np.ascontiguousarray(ker[::-1, ::-1]) if wide else _rref_p(ker, p)[0]


def _free_solve(u: np.ndarray, piv: list[int], p: int) -> tuple[list[int], np.ndarray]:
    """The free columns of the echelon rows u (monic at their pivots) and
    Y = A^-1 F, for A = u[:, piv], unit upper triangular, and F = u[:, free].
    The rref A^-1 u of u is the identity on the pivot columns and Y on the
    free ones, and the free column f gives the kernel vector 1 at f and
    -Y[i, f] at piv[i].

    The only dense back-substitution: it solves Y alone, bottom rows first,
    _BACK_BLOCK rows a step.  A step subtracts the rows solved before it in
    one product (``_matmul_mod``, exact at every accepted p), then solves its
    own rows one by one."""
    free = _non_pivots(u.shape[1], piv)
    y = u[:, free]
    for hi in range(len(piv), 0, -_BACK_BLOCK):
        lo = max(hi - _BACK_BLOCK, 0)
        if hi < len(piv):
            y[lo:hi] -= _matmul_mod(u[lo:hi][:, piv[hi:]], y[hi:], p)
            y[lo:hi] %= p
        for i in range(hi - 2, lo - 1, -1):
            y[i] = (y[i] - u[i, piv[i + 1:hi]] @ y[i + 1:hi]) % p
    return free, y


def _rref_p(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced echelon rows of the array, entries in [0, p), without its
    zero rows, and their pivots: the echelon rows of ``_echelon_p`` with the
    identity on the pivot columns and Y (``_free_solve``) on the free ones."""
    u, piv = _echelon_p(arr, arr.shape[1], p)
    free, y = _free_solve(u, piv, p)
    u[:, free] = y
    u[:, piv] = 0
    u[np.arange(len(piv)), piv] = 1
    # the echelon rows are a view of the last pass's work array, whose rows
    # past the rank are zero; a kept basis must not pin them
    return (u.copy() if u.base is not None and len(u) < len(u.base) else u), piv


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p, for entries in [0, p), via float64 BLAS.

    float64 sums integers exactly below 2^53, and a product is below p^2, so
    one call sums the whole inner dimension if it is shorter than
    2^53 / p^2.  Otherwise b is split into the bits past its low s and its
    low s bits, s half the bits of p: each half is below 2^s, so a call sums
    2^53 // (p 2^s) products, at least 4096 at every accepted p, where p^2
    alone allows one near the largest."""
    fa, k = a.astype(np.float64), a.shape[1]
    if k * (p - 1) ** 2 < 1 << 53:
        return np.rint(fa @ b.astype(np.float64)).astype(np.int64) % p
    s = (p.bit_length() + 1) // 2
    chunk = (1 << 53) // (p << s)
    out = np.zeros((a.shape[0], b.shape[1]), np.int64)
    for half in (b >> s, b & ((1 << s) - 1)):
        out <<= s  # the high half's sum times 2^s, before the low half's
        fb = half.astype(np.float64)
        for i in range(0, k, chunk):
            out += np.rint(fa[:, i:i + chunk] @ fb[i:i + chunk]).astype(np.int64) % p
        out %= p
    return out


# ------------------------------------------------- block reshaping helpers


def right_mul_vecrows(p: Mat, rows_inner: int, cols_inner: int, b: Mat) -> Mat:
    """Rows of p are vec(L) for L of shape (rows_inner, cols_inner); return the
    matrix whose rows are vec(L @ b), that is p times I ⊗ b."""
    fld, q = p.field, p.nrows
    out_cols = rows_inner * b.ncols
    if p.dens is not None or p._arr is None and _few_macs(
            p.rows, np.tile(b._row_lens(), rows_inner), q * out_cols):
        # row k = a * cols_inner + c of I ⊗ b is row c of b, shifted to block a;
        # only the rows that entries of p select are built
        b_rows, factor, dens = b._rows(), {}, None if b.dens is None else {}
        for k in set().union(*p.rows):
            a, c = divmod(k, cols_inner)
            row = b_rows[c]
            factor[k] = dict(zip(map((a * b.ncols).__add__, row), row.values()))
            if dens is not None:
                dens[k] = b.dens[c]
        rows, dens = _sparse_mul(p.rows, p.dens, factor, dens, fld.p)
        return Mat(fld, q, out_cols, rows=rows, dens=dens)
    x = p.arr.reshape(q * rows_inner, cols_inner)
    y = _matmul_mod(x, b.arr, fld.p)
    return Mat(fld, q, out_cols, arr=y.reshape(q, out_cols))


def left_mul_vecrows(p: Mat, rows_inner: int, cols_inner: int, t: Mat) -> Mat:
    """Rows of p are vec(G) for G of shape (rows_inner, cols_inner); return the
    matrix whose rows are vec(t @ G), that is p times tᵀ ⊗ I."""
    fld, q = p.field, p.nrows
    out_cols = t.nrows * cols_inner
    tt = t.transpose() if p._arr is None else None
    if tt is not None and (p.dens is not None or _few_macs(
            p.rows, np.repeat(tt._row_lens(), cols_inner), q * out_cols)):
        # row k = a * cols_inner + c of tᵀ ⊗ I is column a of t, spread to
        # offset c: entry (a2, a) of t goes to column a2 * cols_inner + c
        t_rows, factor, dens = tt._rows(), {}, None if tt.dens is None else {}
        for k in set().union(*p.rows):
            a, c = divmod(k, cols_inner)
            row = t_rows[a]
            factor[k] = dict(zip(map(c.__add__, map(cols_inner.__mul__, row)), row.values()))
            if dens is not None:
                dens[k] = tt.dens[a]
        rows, dens = _sparse_mul(p.rows, p.dens, factor, dens, fld.p)
        return Mat(fld, q, out_cols, rows=rows, dens=dens)
    x = p.arr.reshape(q, rows_inner, cols_inner).transpose(1, 0, 2) \
        .reshape(rows_inner, q * cols_inner)
    y = _matmul_mod(t.arr, x, fld.p)
    out = y.reshape(t.nrows, q, cols_inner).transpose(1, 0, 2).reshape(q, out_cols)
    return Mat(fld, q, out_cols, arr=np.ascontiguousarray(out))
