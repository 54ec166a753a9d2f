"""Homogeneous ideals stored degree by degree, graded modules, nestings.

An ideal is a list of reduced-echelon bases, one per degree up to a cutoff.
The cutoff is certified: once some I_D equals the full graded piece R_D the
ideal is known to be primary to the irrelevant maximal ideal with socle degree
D-1, and every higher graded piece is full.  Ideals that never fill up below
the cutoff ceiling are kept as explicitly truncated profiles.

Quotients and subquotients use the canonical complement of a reduced echelon
subspace: the pivot set of the smaller space is always contained in the pivot
set of the larger one, and the rows of the larger reduced basis at the extra
pivots are a canonical section of the quotient.

Each degree is eliminated once, as the ideal is built.  Per degree the ideal
keeps its generator pivots (``gen_pivots``): the pivots of I_d that are not
pivots of R_1 * I_{d-1}.  The basis rows at them are the canonical minimal
generators, so generators and the rank of R_1 * I_{d-1} need no further
elimination.  A stored basis owns exactly its rows, never a view into a
larger elimination buffer.

An ideal keeps, in one dict ``_kept``, whatever is derived from its bases
alone and worth keeping while it lives: here its quotient sections and
actions (``quotient_structure``, ``quotient_action``); the layers above store
their own entries there under their own keys.  Its own x_j actions are built
on demand, never kept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import FieldSpec, Mat
from .ring import HomogeneousElement, RingCtx, scatter_rows

DEFAULT_CEILING = 32
GENERIC_RETRIES = 8  # random draws of a whole ideal before a profile is refused


class IdealError(ValueError):
    pass


class NonHomogeneousGenerator(IdealError):
    pass


class CutoffTooSmall(IdealError):
    pass


class NotMPrimary(IdealError):
    pass


class NotNested(IdealError):
    pass


class InfeasibleHilbertFunction(IdealError):
    pass


@dataclass(frozen=True)
class HilbertFunction:
    """Degreewise dimensions of R/I, as a finite tuple.

    ``truncated`` marks profiles of ideals that were not certified m-primary;
    such a profile only covers degrees up to the construction cutoff.
    """

    entries: tuple[int, ...]
    truncated: bool = False

    @property
    def size(self) -> int:
        if self.truncated:
            raise NotMPrimary("colength of a truncated profile is undefined")
        return sum(self.entries)

    def __call__(self, d: int) -> int:
        if 0 <= d < len(self.entries):
            return self.entries[d]
        if self.truncated and d >= 0:
            raise CutoffTooSmall(f"profile truncated before degree {d}")
        return 0

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        body = ",".join(str(e) for e in self.entries)
        return f"({body}" + (",...)" if self.truncated else ")")


class SubquotientStructure:
    """Canonical presentation of A_d / B_d for echelon subspaces B ⊆ A ⊆ R_d."""

    def __init__(self, a_rref: Mat, a_piv: list[int], b_rref: Mat, b_piv: list[int]):
        bset = set(b_piv)
        if not bset.issubset(set(a_piv)):
            raise NotNested("pivot sets violate containment")
        self.b_piv = list(b_piv)
        self.c_piv = [p for p in a_piv if p not in bset]
        self.b_tail = b_rref.take_cols(self.c_piv)  # B's basis at the quotient pivots
        keep = [i for i, p in enumerate(a_piv) if p not in bset]
        self.lift = a_rref.take_rows(keep)  # (qdim x dim R_d), canonical section
        self.qdim = len(self.c_piv)

    def project_rows(self, m: Mat) -> Mat:
        """Quotient coordinates of rows of m; rows must lie in A_d."""
        if self.qdim == 0:
            return Mat.zeros(m.field, m.nrows, 0)
        head = m.take_cols(self.c_piv)
        if not self.b_piv:
            return head
        return head.sub(m.take_cols(self.b_piv).matmul(self.b_tail))


class HomogeneousIdeal:
    """A homogeneous ideal of C[x_1..x_n] stored as one echelon basis per degree."""

    def __init__(self, ctx: RingCtx, fld: FieldSpec, bases: list[Mat],
                 pivots: list[list[int]], gen_pivots: list[list[int]]):
        self.ctx = ctx
        self.fld = fld
        self.bases = bases
        self.pivots = pivots
        self.gen_pivots = gen_pivots
        self.cutoff = len(bases) - 1
        dims = [b.nrows for b in bases]
        self.order = next((d for d, k in enumerate(dims) if k), None)
        full = [d for d in range(self.cutoff + 1) if dims[d] == ctx.dim(d)]
        self.is_m_primary = bool(full)
        notfull = [d for d in range(self.cutoff + 1) if dims[d] < ctx.dim(d)]
        self.socle_degree = max(notfull) if (self.is_m_primary and notfull) else \
            (-1 if self.is_m_primary else None)
        self._kept: dict = {}  # derived from the bases, filled on first use

    # ------------------------------------------------------------------ sizes

    def dim_at(self, d: int) -> int:
        if d < 0:
            return 0
        if d <= self.cutoff:
            return self.bases[d].nrows
        if self.is_m_primary:
            return self.ctx.dim(d)
        raise CutoffTooSmall(f"degree {d} beyond cutoff {self.cutoff}")

    def basis_at(self, d: int) -> tuple[Mat, list[int]]:
        if d < 0:
            return Mat.zeros(self.fld, 0, 0), []
        if d <= self.cutoff:
            return self.bases[d], self.pivots[d]
        if self.is_m_primary:
            n = self.ctx.dim(d)
            return Mat.identity(self.fld, n), list(range(n))
        raise CutoffTooSmall(f"degree {d} beyond cutoff {self.cutoff}")

    def qdim(self, d: int) -> int:
        return self.ctx.dim(d) - self.dim_at(d)

    def hilbert_function(self) -> HilbertFunction:
        if self.is_m_primary:
            top = self.socle_degree
            return HilbertFunction(tuple(self.qdim(d) for d in range(top + 1)))
        return HilbertFunction(tuple(self.qdim(d) for d in range(self.cutoff + 1)),
                               truncated=True)

    def colength(self) -> int:
        return self.hilbert_function().size

    @property
    def max_gen_degree(self) -> int:
        degs = [d for d, g in enumerate(self.gen_pivots) if g]
        if not degs:
            raise IdealError("zero ideal has no generators")
        return max(degs)

    def generator_degrees(self) -> dict[int, int]:
        return {d: len(g) for d, g in enumerate(self.gen_pivots) if g}

    # ------------------------------------------------------------ containment

    def contains(self, other: "HomogeneousIdeal") -> bool:
        """True iff other ⊆ self, tested degree by degree."""
        if other.ctx != self.ctx or other.fld != self.fld:
            raise IdealError("ideals live over different rings or fields")
        if other.is_m_primary and not self.is_m_primary:
            raise CutoffTooSmall("truncated ideal cannot certify containing an m-primary one")
        top = other.cutoff
        if other.is_m_primary and self.is_m_primary:
            if other.socle_degree < self.socle_degree:
                return False
            top = min(top, max(self.socle_degree, 0) + 1)
        for d in range(top + 1):
            try:
                mine, piv = self.basis_at(d)
            except CutoffTooSmall:
                raise CutoffTooSmall(
                    f"containment needs degree {d} beyond cutoff {self.cutoff}")
            theirs = other.bases[d] if d <= other.cutoff else None
            if theirs is None or theirs.nrows == 0:
                continue
            if not _rows_in_span(theirs, mine, piv):
                return False
        return True

    def contains_element(self, f: HomogeneousElement) -> bool:
        if f.is_zero():
            return True
        d = f.degree
        try:
            basis, piv = self.basis_at(d)
        except CutoffTooSmall:
            raise CutoffTooSmall(f"element degree {d} beyond cutoff {self.cutoff}")
        return _rows_in_span(_rows_matrix(self.ctx, self.fld, [f], d), basis, piv)

    def equals(self, other: "HomogeneousIdeal") -> bool:
        return self.contains(other) and other.contains(self)

    # --------------------------------------------------------------- quotient

    def quotient_structure(self, d: int) -> SubquotientStructure:
        key = ("quotient_structure", d)
        st = self._kept.get(key)
        if st is None:
            n = self.ctx.dim(d)
            st = SubquotientStructure(Mat.identity(self.fld, n), list(range(n)),
                                      *self.basis_at(d))
            self._kept[key] = st
        return st

    def coords(self, rows: Mat, d: int) -> Mat:
        """Coordinates in the stored basis of I_d of rows that lie in I_d:
        their entries at its pivots.  Above the cutoff of an m-primary ideal
        that basis is the identity, so the rows are their own coordinates."""
        if d <= self.cutoff:
            return rows.take_cols(self.basis_at(d)[1])
        self.dim_at(d)  # a truncated ideal raises CutoffTooSmall here
        return rows

    def action(self, j: int, d: int) -> Mat:
        """Multiplication by x_j as a map I_d -> I_{d+1} in the stored bases,
        built on each call."""
        basis, _ = self.basis_at(d)
        return self.coords(scatter_rows(self.ctx, basis, j, d), d + 1)

    def quotient_action(self, j: int, c: int) -> Mat:
        """Multiplication by x_j as a map (R/I)_c -> (R/I)_{c+1} in the
        canonical quotient coordinates."""
        key = ("quotient_action", j, c)
        m = self._kept.get(key)
        if m is None:
            if self.qdim(c) == 0 or self.qdim(c + 1) == 0:
                m = Mat.zeros(self.fld, self.qdim(c), self.qdim(c + 1))
            else:
                st, st1 = self.quotient_structure(c), self.quotient_structure(c + 1)
                m = st1.project_rows(scatter_rows(self.ctx, st.lift, j, c))
            self._kept[key] = m
        return m

    def __repr__(self):
        h = self.hilbert_function()
        return f"HomogeneousIdeal(n={self.ctx.n}, {self.fld.label}, h={h})"


def _rows_in_span(rows: Mat, rref: Mat, piv: list[int]) -> bool:
    if rows.nrows == 0:
        return True
    if rref.nrows == 0:
        return rows.is_zero()
    residual = rows.sub(rows.take_cols(piv).matmul(rref))
    return residual.is_zero()


# -------------------------------------------------------------- construction


def ideal_from_generators(ctx: RingCtx, fld: FieldSpec,
                          gens: list[HomogeneousElement],
                          cutoff: int | None = None,
                          require_m_primary: bool = False) -> HomogeneousIdeal:
    """Span the ideal generated by homogeneous elements, degree by degree.

    With ``cutoff=None`` the construction extends until some graded piece
    fills up (certifying m-primality) or ``DEFAULT_CEILING`` is hit.
    """
    by_deg: dict[int, list] = {}
    for g in gens:
        if g.ctx != ctx:
            raise IdealError("generator from a different ring")
        if g.is_zero():
            continue
        by_deg.setdefault(g.degree, []).append(g)
    max_gen = max(by_deg, default=0)
    if cutoff is not None and max_gen > cutoff:
        raise CutoffTooSmall(f"generator of degree {max_gen} above cutoff {cutoff}")

    bases: list[Mat] = []
    pivots: list[list[int]] = []
    gen_pivots: list[list[int]] = []
    d = 0
    hard_top = cutoff if cutoff is not None else max(DEFAULT_CEILING, max_gen)
    while d <= hard_top:
        basis, step_piv = _degree_step(ctx, fld, bases)
        piv = step_piv
        if d in by_deg:
            g = _rows_matrix(ctx, fld, by_deg[d], d)
            basis, piv = Mat.vstack(fld, [basis, g], basis.ncols).rref()
        bases.append(basis)
        pivots.append(piv)
        gen_pivots.append(_fresh_pivots(piv, step_piv))
        if cutoff is None and basis.nrows == basis.ncols and d >= max_gen:
            break
        d += 1

    ideal = HomogeneousIdeal(ctx, fld, bases, pivots, gen_pivots)
    if require_m_primary and not ideal.is_m_primary:
        raise CutoffTooSmall(
            f"ideal not certified m-primary below degree {ideal.cutoff}")
    return ideal


def _rows_matrix(ctx: RingCtx, fld: FieldSpec,
                 elements: list[HomogeneousElement], d: int) -> Mat:
    return Mat.from_entries(fld, len(elements), ctx.dim(d),
                            ((i, j, v) for i, g in enumerate(elements)
                             for j, v in g.coeffs.items()))


def _degree_step(ctx: RingCtx, fld: FieldSpec,
                 bases: list[Mat]) -> tuple[Mat, list[int]]:
    """(rref, pivots) of R_1 * I_{d-1} in degree d = len(bases), where bases
    holds the reduced bases of I_0..I_{d-1}."""
    d = len(bases)
    if d == 0:
        return Mat.zeros(fld, 0, 1), []
    parts = [scatter_rows(ctx, bases[-1], j, d - 1) for j in range(ctx.n)]
    return Mat.vstack(fld, parts, ctx.dim(d)).rref()


def _fresh_pivots(piv: list[int], step_piv: list[int]) -> list[int]:
    """Pivots of I_d that are not pivots of R_1 * I_{d-1}: its generator pivots."""
    step = set(step_piv)
    return [p for p in piv if p not in step]


def _max_ideal_power(ctx: RingCtx, fld: FieldSpec, k: int,
                     cutoff: int) -> HomogeneousIdeal:
    """m^k stored up to degree cutoff: all of R in degrees >= k, generated by
    R_k.  k = 0 gives R itself and k = cutoff + 1 the zero ideal."""
    dims = [ctx.dim(d) for d in range(cutoff + 1)]
    bases = [Mat.identity(fld, n) if d >= k else Mat.zeros(fld, 0, n)
             for d, n in enumerate(dims)]
    pivots = [list(range(b.nrows)) for b in bases]
    gen_pivots = [piv if d == k else [] for d, piv in enumerate(pivots)]
    return HomogeneousIdeal(ctx, fld, bases, pivots, gen_pivots)


def zero_ideal(ctx: RingCtx, fld: FieldSpec, cutoff: int) -> HomogeneousIdeal:
    return _max_ideal_power(ctx, fld, cutoff + 1, cutoff)


def power_of_max_ideal(ctx: RingCtx, fld: FieldSpec, k: int) -> HomogeneousIdeal:
    """m^k, stored up to its certifying degree k."""
    if k < 0:
        raise IdealError("power must be nonnegative")
    return _max_ideal_power(ctx, fld, k, k)


def generic_ideal_with_hilbert_function(ctx: RingCtx, fld: FieldSpec,
                                        q: tuple[int, ...], seed: int) -> HomogeneousIdeal:
    """Seeded random ideal whose quotient Hilbert function is exactly q.

    Degree by degree, the span of the previous piece is extended by random
    small-integer rows until the prescribed codimension is met.  Computed
    dimensions at such a point are candidate generic values; over the
    rationals they bound the true generic behaviour from the semicontinuous
    side.
    """
    if not q or q[0] != 1:
        raise InfeasibleHilbertFunction("quotient Hilbert function must start with 1")
    if q[-1] == 0:
        raise InfeasibleHilbertFunction("trailing zero entries are not allowed")
    rng = random.Random(seed)
    for _ in range(GENERIC_RETRIES):
        out = _try_generic(ctx, fld, q, rng)
        if out is not None:
            return out
    raise InfeasibleHilbertFunction(
        f"could not realise {q} from random degreewise choices (n={ctx.n})")


def _try_generic(ctx: RingCtx, fld: FieldSpec, q: tuple[int, ...],
                 rng: random.Random) -> HomogeneousIdeal | None:
    bases: list[Mat] = []
    pivots: list[list[int]] = []
    gen_pivots: list[list[int]] = []
    top = len(q)  # last degree built; fills up there
    for d in range(top + 1):
        ndim = ctx.dim(d)
        target = ndim - (q[d] if d < len(q) else 0)
        if target < 0:
            return None
        basis, step_piv = _degree_step(ctx, fld, bases)
        if basis.nrows > target:
            return None
        piv = step_piv
        attempts = 0
        while basis.nrows < target:
            missing = target - basis.nrows
            extra = Mat.from_rows(
                fld, [[rng.randint(-9, 9) for _ in range(ndim)] for _ in range(missing)])
            basis, piv = Mat.vstack(fld, [basis, extra], ndim).rref()
            attempts += 1
            if attempts > 6:
                return None
        bases.append(basis)
        pivots.append(piv)
        gen_pivots.append(_fresh_pivots(piv, step_piv))
    return HomogeneousIdeal(ctx, fld, bases, pivots, gen_pivots)


# ------------------------------------------------------------------- families


def _form(ctx: RingCtx, fld: FieldSpec, *terms: tuple[int, ...]) -> HomogeneousElement:
    """The form sum of c * x_a * x_b * ... over terms (c, a, b, ...), with
    1-based variables; terms on one monomial add up."""
    exps: dict[tuple[int, ...], int] = {}
    for c, *vs in terms:
        e = [0] * ctx.n
        for v in vs:
            e[v - 1] += 1
        key = tuple(e)
        exps[key] = exps.get(key, 0) + c
    return HomogeneousElement.from_exponents(ctx, fld, len(terms[0]) - 1, exps)


def family_delta_generators(ctx: RingCtx, fld: FieldSpec) -> list[HomogeneousElement]:
    """2x2 minors of the 2xn matrix with rows (x1..xn) and (xn, x1..x_{n-1})."""
    n = ctx.n
    if n < 4:
        raise IdealError("the determinantal family needs n >= 4")
    row1 = list(range(1, n + 1))
    row2 = [n] + list(range(1, n))
    return [_form(ctx, fld, (1, row1[a], row2[b]), (-1, row2[a], row1[b]))
            for a in range(n) for b in range(a + 1, n)]


def family_delta(ctx: RingCtx, fld: FieldSpec, cutoff: int) -> HomogeneousIdeal:
    return ideal_from_generators(ctx, fld, family_delta_generators(ctx, fld),
                                 cutoff=cutoff)


def family_j_generators(ctx: RingCtx, fld: FieldSpec) -> list[HomogeneousElement]:
    """x_n * (x_i + x_{n-1}) for i = 1..n-2."""
    n = ctx.n
    if n < 4:
        raise IdealError("the linear-times-variable family needs n >= 4")
    return [_form(ctx, fld, (1, n, i), (1, n, n - 1)) for i in range(1, n - 1)]


def family_J(ctx: RingCtx, fld: FieldSpec, cutoff: int) -> HomogeneousIdeal:
    return ideal_from_generators(ctx, fld, family_j_generators(ctx, fld),
                                 cutoff=cutoff)


def family_I2(ctx: RingCtx, fld: FieldSpec) -> HomogeneousIdeal:
    """The compressed-quotient ideal: determinantal quadrics plus the extra ones."""
    gens = family_delta_generators(ctx, fld) + family_j_generators(ctx, fld)
    return ideal_from_generators(ctx, fld, gens, require_m_primary=True)


def family_I1(ctx: RingCtx, fld: FieldSpec, s: int) -> HomogeneousIdeal:
    """(x_1..x_s)^2 + (x_{s+1}..x_n)."""
    n = ctx.n
    if not 2 <= s <= n - 2:
        raise IdealError(f"s={s} out of range for n={n}")
    gens = ([_form(ctx, fld, (1, a, b)) for a in range(1, s + 1) for b in range(a, s + 1)]
            + [_form(ctx, fld, (1, c)) for c in range(s + 1, n + 1)])
    return ideal_from_generators(ctx, fld, gens, require_m_primary=True)


def family_8points(ctx: RingCtx, fld: FieldSpec) -> HomogeneousIdeal:
    """(x1,x3)^2 + (x2,x4)^2 + (x1 x4 - x2 x3), a length-8 scheme in A^4."""
    if ctx.n != 4:
        raise IdealError("the eight-point family lives in four variables")
    gens = [_form(ctx, fld, (1, a, b))
            for a, b in ((1, 1), (1, 3), (3, 3), (2, 2), (2, 4), (4, 4))]
    gens.append(_form(ctx, fld, (1, 1, 4), (-1, 2, 3)))
    return ideal_from_generators(ctx, fld, gens, require_m_primary=True)


def family_twisted_cubic_cone(ctx: RingCtx, fld: FieldSpec, cutoff: int) -> HomogeneousIdeal:
    """Minors of [[x1,x2,x3],[x2,x3,x4]]: a surface cone, kept as a truncation."""
    if ctx.n != 4:
        raise IdealError("the twisted-cubic cone lives in four variables")
    gens = [_form(ctx, fld, (1, a1, b1), (-1, a2, b2))
            for (a1, b1), (a2, b2) in (((1, 3), (2, 2)), ((1, 4), (2, 3)), ((2, 4), (3, 3)))]
    return ideal_from_generators(ctx, fld, gens, cutoff=cutoff)


# ------------------------------------------------------------ graded modules


@dataclass
class FiniteGradedModule:
    """Finite-length graded module: per-degree dimensions plus variable actions.

    ``actions[k][j]`` maps degree lo+k to lo+k+1 in row convention (a row
    vector v maps to v @ actions[k][j]).
    """

    ctx: RingCtx
    fld: FieldSpec
    lo: int
    hi: int
    dims: list[int]
    actions: list[list[Mat]]

    def dim(self, d: int) -> int:
        if self.lo <= d <= self.hi:
            return self.dims[d - self.lo]
        return 0

    @property
    def bottom(self) -> int:
        """The first nonzero degree, lo for the zero module."""
        return next((d for d in range(self.lo, self.hi + 1) if self.dim(d)), self.lo)

    @property
    def top(self) -> int:
        """The last nonzero degree, lo - 1 for the zero module."""
        return max((d for d in range(self.lo, self.hi + 1) if self.dim(d)),
                   default=self.lo - 1)

    def action(self, j: int, d: int) -> Mat:
        if self.lo <= d < self.hi:
            return self.actions[d - self.lo][j]
        return Mat.zeros(self.fld, self.dim(d), self.dim(d + 1))

    def check_commuting(self) -> bool:
        """x_i then x_j equals x_j then x_i, for all pairs and degrees."""
        for d in range(self.lo, self.hi - 1):
            for i in range(self.ctx.n):
                for j in range(i + 1, self.ctx.n):
                    a = self.action(i, d).matmul(self.action(j, d + 1))
                    b = self.action(j, d).matmul(self.action(i, d + 1))
                    if not a.sub(b).is_zero():
                        return False
        return True


def subquotient_module(a: HomogeneousIdeal, b: HomogeneousIdeal,
                       hi: int | None = None) -> FiniteGradedModule:
    """The module A/B for nested ideals B ⊆ A, with induced variable actions."""
    if a.ctx != b.ctx or a.fld != b.fld:
        raise IdealError("subquotient needs one ring and one field")
    if hi is None:
        if not b.is_m_primary:
            raise CutoffTooSmall("unbounded subquotient: pass an explicit top degree")
        hi = b.socle_degree
    if not a.contains(b):
        raise NotNested("second ideal is not contained in the first")
    ctx, fld = a.ctx, a.fld
    structs = [SubquotientStructure(*a.basis_at(d), *b.basis_at(d))
               for d in range(hi + 1)]
    lo = next((d for d in range(hi + 1) if structs[d].qdim), 0)
    dims = [structs[d].qdim for d in range(lo, hi + 1)]
    actions = [[structs[d + 1].project_rows(scatter_rows(ctx, structs[d].lift, j, d))
                for j in range(ctx.n)] for d in range(lo, hi)]
    return FiniteGradedModule(ctx, fld, lo, hi, dims, actions)


def quotient_module(i: HomogeneousIdeal) -> FiniteGradedModule:
    """R/I in the ideal's canonical quotient coordinates, with its cached
    actions (I must be m-primary)."""
    if not i.is_m_primary:
        raise NotMPrimary("quotient of a truncated ideal has no top degree")
    hi = i.socle_degree
    dims = [i.qdim(d) for d in range(hi + 1)]
    actions = [[i.quotient_action(j, d) for j in range(i.ctx.n)] for d in range(hi)]
    return FiniteGradedModule(i.ctx, i.fld, 0, hi, dims, actions)


# --------------------------------------------------------------------- nesting


class Nesting:
    """A chain I^(1) ⊇ I^(2) ⊇ ... ⊇ I^(r) of m-primary homogeneous ideals."""

    def __init__(self, ideals: list[HomogeneousIdeal], check: bool = True):
        if not ideals:
            raise NotNested("empty nesting")
        self.ideals = list(ideals)
        self.ctx = ideals[0].ctx
        self.fld = ideals[0].fld
        for i in self.ideals:
            if i.ctx != self.ctx or i.fld != self.fld:
                raise NotNested("mixed rings or fields in nesting")
            if not i.is_m_primary:
                raise NotMPrimary("nestings require certified m-primary ideals")
        if check:
            for a, b in zip(self.ideals, self.ideals[1:]):
                if not a.contains(b):
                    raise NotNested("chain is not descending")
        self.hilbert_functions = [i.hilbert_function() for i in self.ideals]
        self.colengths = [h.size for h in self.hilbert_functions]
        for a, b in zip(self.colengths, self.colengths[1:]):
            if a > b:
                raise NotNested("colengths must be non-decreasing")

    @property
    def r(self) -> int:
        return len(self.ideals)

    def __repr__(self):
        hs = " > ".join(str(h) for h in self.hilbert_functions)
        return f"Nesting[{hs}]"
