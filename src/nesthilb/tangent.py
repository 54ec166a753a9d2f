"""Graded tangent spaces to nested Hilbert schemes at homogeneous nestings.

A weight-e tangent vector at a nesting (I^(1) ⊇ ... ⊇ I^(r)) is a tuple of
module homomorphisms I^(i) -> R/I^(i) of degree e, compatible along the chain.
Everything is solved degreewise: the unknown blocks L_d: I_d -> (R/I)_{d+e}
are parametrised degree by degree (values on fresh minimal generators are the
only new unknowns once multiplication relations are eliminated), and the
leftover compatibility conditions form exact linear systems: the constraint
rows of each chain, whose kernel is the chain's own solutions, and the link
rows between consecutive chains.  The graded tangent dimension is the
dimension of their common kernel.  The relations out of each degree come
from one elimination (``e_struct``): their split, a right inverse of the
independent ones, and the kernel of the stacked actions, which gives the
fresh unknowns.

Families of tangent vectors are tables ``{d: (P, s_d, t_d)}``, one per ideal
of the chain: row k of P is vec of the block L_d of the k-th vector, never
generator images.  The solver's parameters and the n derivations d/dx_j of
the theta check share this form and one set of nesting-link equations; the
generator/syzygy route exists separately as a test oracle
(``hom_dim_via_syzygies``).

A carrier is a ``ModuleSource``: a graded module with its x_j actions and
the target of its Hom chains.  An ``IdealSource`` is the same carrier over an
ideal I with target R/I; it only says where its dims, actions and kept state
come from.  The chains of a nesting are linked by position: ``_solve`` links
chain i to chain i + 1, and ``_link_terms`` walks consecutive ideals.

A chain drops its dead parameters as it is built (``_process_chain``).  A
degree's constraint block involves only the parameters introduced so far;
once the blocks so far have full column rank on them, every solution is zero
there, so they leave the chain with their blocks.  The rank is read mod one
prime, which can only lower it, so full mod p is full over both fields.  A
chain left with no parameters and no minimal generator of its carrier above
the current degree (``gen_top``) has no solutions and stops there.  The TNT
verdict needs t(e) = 0 for every e <= -2, and those chains then die after a
block or two, before the later products and relations are built.

Each Hom chain numbers its parameters from 0, so a chain solved for one
nesting serves any other.  Over GF(p) a chain is kept with its own
solutions: a basis X of the kernel of its constraint rows, one matrix
(``_chain_solutions``, through ``Mat.kernel_basis``), and those rows are
then dropped.  A nesting is solved on its link rows alone, each
link term multiplied by the X of its chain, on sum dim X columns
(``_solve``); a single ideal's dimension is dim X.  Over QQ the chain keeps
its constraint rows instead, X stands for the identity, and ``_solve``
ranks them with the link rows, because the rational kernel costs far more
than that rank.  What depends on one ideal alone is kept in the ideal's
``_kept`` dict for as long as it lives: the relations per degree
(``e_struct``), its chain into R/I per weight e (table, own solutions or
constraint rows, and their count), its theta table, and the oracle's
minimal generators and first syzygies.  The census cells of one row share
their I2, and a sandwich shares the ideals of its nesting, so each of these
is solved once.  A ``ModuleSource`` (``graded_hom_dims``) keeps its
relations in its own dict, and no chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import (FiniteGradedModule, HomogeneousIdeal, Nesting, NotMPrimary,
                     power_of_max_ideal, quotient_module, subquotient_module,
                     zero_ideal)
from .linalg import Mat, full_column_rank, left_mul_vecrows, right_mul_vecrows
from .ring import HomogeneousElement, mult_map


class TangentError(RuntimeError):
    pass


class NotStrictlySandwiched(ValueError):
    pass


# ----------------------------------------------------------------- carriers


class ModuleSource:
    """Degreewise carrier of a finite graded module, with the target module
    of its Hom chains.  It keeps its relations in ``_kept``, and solves
    each chain afresh."""

    def __init__(self, mod: FiniteGradedModule, tgt: FiniteGradedModule):
        self.mod = mod
        self.ctx = mod.ctx
        self.fld = mod.fld
        self.lo = mod.bottom
        self.tgt = tgt
        self._kept: dict = {}
        # the top degree of a minimal generator: the last piece that the
        # relations out of the degree below do not fill
        self.gen_top = max((d + 1 for d in range(self.lo, mod.hi)
                            if self.dim(d + 1) and self.dim(d + 1) > len(self.e_struct(d)[0])),
                           default=self.lo)

    def dim(self, d: int) -> int:
        return self.mod.dim(d)

    def act(self, j: int, d: int) -> Mat:
        return self.mod.action(j, d)

    def e_struct(self, d: int) -> tuple[list[int], list[int], Mat, Mat, Mat]:
        """The multiplication relations out of degree d, from one
        elimination.  E stacks the x_j actions, row j * s_d + u for x_j on
        basis vector u.  Its rows split into independent rows J, chosen
        greedily from the last, and the others D, both descending, with
        E_D = C @ E_J.  Returns (J, D, C, W, K): E_J @ W = I, and W is zero
        on the rows at the free columns of rref(E); the rows of K, one per
        free column in ascending order, are the kernel basis of E that is
        the identity on those columns.

        All of it is read off ``rref_with_transform`` of A = P E^T Q, with P
        and Q the reversals of the rows and of the columns.  Q turns row r of
        E into column m-1-r of A, so the rref R' of A, with pivots piv,
        splits the rows of E greedily from the last: J[i] = m-1-piv[i], the
        free column c gives D[k] = m-1-c, and C[k, i] = R'[i, c].  T @ A = R'
        is the identity at the pivots, so (T P) E_J^T = I and W = P T^T.  The
        left kernel of A is the kernel of E reversed by P: its reduced basis,
        turned back, is 1 at one free column of rref(E) with its other entries
        at the pivots, and T is zero at the leading columns of that basis, so
        W is zero at the free columns."""
        key = ("e_struct", d)
        if key not in self._kept:
            n, s = self.ctx.n, self.dim(d + 1)
            rev_d, rev_s = range(self.dim(d) - 1, -1, -1), range(s - 1, -1, -1)
            # A built directly: column c of E^T Q is row m-1-c of E, so its
            # blocks are the actions from the last, each with its rows reversed
            a = Mat.hstack(self.fld, [self.act(j, d).take_rows(rev_d).transpose()
                                      for j in range(n - 1, -1, -1)]).take_rows(rev_s)
            m = a.ncols
            red, piv, t_mat, k_mat = a.rref_with_transform()
            del a  # as large as E: free it before the reads
            pivset = set(piv)
            free = [c for c in range(m) if c not in pivset]
            self._kept[key] = ([m - 1 - c for c in piv], [m - 1 - c for c in free],
                               red.take_cols(free).transpose(),
                               t_mat.transpose().take_rows(rev_s),
                               k_mat.take_rows(range(k_mat.nrows - 1, -1, -1)).take_cols(rev_s))
        return self._kept[key]

    def chain(self, e: int) -> tuple[dict, Mat | None, Mat, int]:
        """The degree-e Hom chain into tgt with its own solutions, solved
        by ``_chain_solutions``."""
        return _chain_solutions(self, e)


class IdealSource(ModuleSource):
    """Carrier of an m-primary ideal I, with target R/I.  Its dims, actions
    and kept state are the ideal's, and it keeps its chains there too."""

    def __init__(self, ideal: HomogeneousIdeal):
        self.ideal = ideal
        self.ctx = ideal.ctx
        self.fld = ideal.fld
        self.lo = ideal.order
        self.tgt = quotient_module(ideal)
        self.gen_top = max(ideal.generator_degrees(), default=-1)  # from its generators
        self._kept = ideal._kept  # shared by every source over this ideal

    def dim(self, d: int) -> int:
        return self.ideal.dim_at(d)

    def act(self, j: int, d: int) -> Mat:
        return self.ideal.action(j, d)

    def chain(self, e: int) -> tuple[dict, Mat | None, Mat, int]:
        """Solved once per e, for every nesting that contains the ideal."""
        key = ("chain", e)
        if key not in self._kept:
            self._kept[key] = _chain_solutions(self, e)
        return self._kept[key]


# ------------------------------------------------------------ chain solving


def _process_chain(src, e: int) -> tuple[dict, Mat, int]:
    """Parametrise all blocks of one Hom chain into src.tgt; returns (table,
    constraint rows, q).  The chain's q parameters are numbered from 0.
    The table maps d to (P, s_d, t_d): the rows of P are parameters, its
    columns vec(L_d).  The constraint rows are one matrix, grown by
    ``Mat.vstack`` as each degree's block arrives.  A row is the residual
    of one relation, which must vanish; a block's columns are the
    parameters introduced up to its degree, the first ones of the q, and
    ``Mat.vstack`` pads an earlier, narrower block with zero columns.

    Dead parameters leave the chain as it is built.  The block of degree d
    involves only the parameters so far, so if the rows up to it have full
    column rank on them, every solution is zero on all of them: they leave,
    the rows are emptied, the earlier tables keep no rows, and the later
    parameters are numbered from 0.  The rank is read mod one prime,
    fld.p or a lift prime over QQ (``full_column_rank``); it is at most the
    rational rank, so full mod p is full over both fields.  The chain's
    last block is not tested: the kernel or rank that reads it decides.  A
    chain with no parameters and no generator above degree d (``gen_top``)
    has no solutions: it stops there, before its relations out of d
    (``e_struct(d)``) are built."""
    fld, tgt = src.fld, src.tgt
    n = src.ctx.n
    table: dict[int, tuple[Mat, int, int]] = {}
    cons = Mat.zeros(fld, 0, 0)
    o = src.lo
    d_top = tgt.top - e
    if d_top < o:
        return table, cons, 0
    s0, t0 = src.dim(o), tgt.dim(o + e)
    table[o] = (Mat.identity(fld, s0 * t0), s0, t0)
    for d in range(o, d_top):
        p, s_d, t_cur = table[d]
        if not p.nrows and src.gen_top <= d:
            return table, cons, 0  # no parameters, so no blocks, and none to come
        s_next, t_next = src.dim(d + 1), tgt.dim(d + 1 + e)
        rows_j, rows_d, c_mat, w_mat, k_mat = src.e_struct(d)
        vec_next = s_next * t_next
        # required values on products: G = vstack_j (L_d @ B_j).  E L_{d+1} = G
        # holds iff G_D = C G_J and L_{d+1} = W G_J + Z with E Z = 0
        if p.nrows and t_cur and t_next and s_d:
            # one product L_d @ [B_0 | ... | B_{n-1}]: row j * s_d + u of E is block u * n + j
            b = Mat.hstack(fld, [tgt.action(j, d + e) for j in range(n)])
            p_g = right_mul_vecrows(p, s_d, t_cur, b)
            first_col = lambda a: (a % s_d * n + a // s_d) * t_next
            p_gj = p_g.take_cols([first_col(a) + c for a in rows_j for c in range(t_next)])
            p_gd = p_g.take_cols([first_col(a) + c for a in rows_d for c in range(t_next)])
            del p_g
            if p_gd.ncols:  # the residuals G_D - C G_J, a row per relation
                block = p_gd.sub(left_mul_vecrows(p_gj, len(rows_j), t_next, c_mat)).transpose()
                cons = Mat.vstack(fld, [cons, block], p.nrows)
            if p_gd.ncols and d + 1 < d_top and full_column_rank(cons):
                # every solution is zero on the parameters so far: they leave
                for k, (pk, sk, tk) in table.items():
                    table[k] = (Mat.zeros(fld, 0, pk.ncols), sk, tk)
                cons, old_part = Mat.zeros(fld, 0, 0), Mat.zeros(fld, 0, vec_next)
            else:
                old_part = left_mul_vecrows(p_gj, len(rows_j), t_next, w_mat)
        else:  # the old parameters carry zero, and their relations are zero
            old_part = Mat.zeros(fld, p.nrows, vec_next)
        # the next block: the old parameters carry W G_J, and Z = K ⊗ I_t
        # brings the fresh ones (values on new minimal generators)
        new_part = Mat.from_entries(fld, k_mat.nrows * t_next, vec_next, (
            (k * t_next + c, u * t_next + c, v) for k in range(k_mat.nrows)
            for u, v in k_mat.row_items(k).items() for c in range(t_next)))
        table[d + 1] = (Mat.vstack(fld, [old_part, new_part], vec_next), s_next, t_next)
    return table, cons, table[d_top][0].nrows


def _inclusion_coords(lower: HomogeneousIdeal, upper: HomogeneousIdeal, d: int) -> Mat:
    """Coordinates of the basis of (lower)_d inside the basis of (upper)_d."""
    return upper.coords(lower.basis_at(d)[0], d)


def _lift_project(lower: HomogeneousIdeal, upper: HomogeneousIdeal, c: int) -> Mat:
    """The induced map (R/lower)_c -> (R/upper)_c for lower ⊆ upper."""
    st_low = lower.quotient_structure(c)
    st_up = upper.quotient_structure(c)
    return st_up.project_rows(st_low.lift)


def _link_terms(ideals: list[HomogeneousIdeal], tables: list[dict], e: int):
    """For each consecutive pair upper = ideals[i] ⊇ lower = ideals[i + 1] and
    each degree d, the two terms of the link equation
    L_low_d @ (R/lower -> R/upper) = incl @ L_up_d, one row per row of
    tables[i + 1] and tables[i]: yields (i, term_low, term_up), a term with
    no table rows as a matrix of no rows."""
    for i, (upper, lower) in enumerate(zip(ideals, ideals[1:])):
        tu, tl = tables[i], tables[i + 1]
        fld = upper.fld
        for d in range(lower.order, upper.socle_degree - e + 1):
            s_low = lower.dim_at(d)
            t_up = upper.qdim(d + e)
            if s_low == 0 or t_up == 0:
                continue
            incl = _inclusion_coords(lower, upper, d)
            pu = tu.get(d)
            if pu is not None:
                term_u = left_mul_vecrows(pu[0], pu[1], pu[2], incl)
            else:
                term_u = Mat.zeros(fld, 0, s_low * t_up)
            pl = tl.get(d)
            if pl is not None and pl[2]:
                lp = _lift_project(lower, upper, d + e)
                term_l = right_mul_vecrows(pl[0], pl[1], pl[2], lp)
            else:
                term_l = Mat.zeros(fld, 0, s_low * t_up)
            yield i, term_l, term_u


def _chain_solutions(src, e: int) -> tuple[dict, Mat | None, Mat, int]:
    """One Hom chain and its own solutions: (table, X, own constraint rows,
    k).  The chain's constraint rows are widened once to its q parameters.
    Over GF(p) the rows of X are the reduced basis of the chain's
    solutions, the kernel of those rows, so its own rows are left empty and
    k = dim X.  Over QQ X is None, which stands for the identity, the rows
    are left for the rank of ``_solve``, and k = q.  The rational kernel
    costs far more than that rank, which lifts from mod p the narrower
    kernel: the e = -1 rows of a generic (1,4,7,2) ideal (74 x 54, rank 32)
    have a right kernel with entries of up to 1659 bits, which did not lift
    within 60 primes, and a left one of at most 131 bits, lifted at the
    tenth prime (``_modular_rank``)."""
    table, cons, q = _process_chain(src, e)
    cons = Mat.vstack(src.fld, [cons], q)  # the rows on all q parameters
    if src.fld.is_rational:
        return table, None, cons, q
    x = cons.kernel_basis()
    return table, x, Mat.zeros(src.fld, 0, x.nrows), x.nrows


def _solve(chains: list[ModuleSource], e: int) -> int:
    """The dimension of the degree-e solutions.  chains: list of sources,
    each with its target; two or more are the ``IdealSource``s of a
    nesting, and chain i is linked to chain i + 1.

    A tuple of solutions of the chains is z_i X_i for each chain i, with
    X_i its own solutions (``_chain_solutions``); the k_i coordinates z_i
    come after those of chains 0..i-1.  What is left to impose is, over
    GF(p), the link rows alone: X_{i+1} term_l = X_i term_u for each link
    term, on sum k_i columns.  Over QQ it is also each chain's own
    constraint rows, one matrix per chain shifted to its columns, with X_i
    the identity.  The answer is sum k_i minus the rank of those rows, and a
    single GF(p) chain needs no rank at all."""
    fld = chains[0].fld
    solved = [src.chain(e) for src in chains]
    offsets, k = [], 0
    for *_, k_i in solved:
        offsets.append(k)
        k += k_i
    blocks = [_shift_cols(own, off, k) for (_, _, own, _), off in zip(solved, offsets)
              if own.nrows]
    if len(chains) > 1:
        xs = [x for _, x, _, _ in solved]
        links = _link_terms([src.ideal for src in chains], [t for t, *_ in solved], e)
        for i, term_l, term_u in links:
            low, up = _in_solutions(xs[i + 1], term_l), _in_solutions(xs[i], term_u)
            if low.nrows or up.nrows:
                blocks.append(_shift_cols(low.transpose(), offsets[i + 1], k)
                              .sub(_shift_cols(up.transpose(), offsets[i], k)))
    del solved  # an uncached chain is freed here; the ideals keep theirs
    cons = Mat.vstack(fld, blocks, k)
    del blocks  # no shifted block stays alive through the rank, the peak
    return k - cons.rank() if cons.nrows else k


def _in_solutions(x: Mat | None, term: Mat) -> Mat:
    """A link term, whose rows are a chain's first parameters, on the
    chain's own solutions X instead: X[:, :rows] @ term, or the term itself
    for X None, the identity."""
    return term if x is None else x.take_cols(range(term.nrows)).matmul(term)


def _shift_cols(m: Mat, offset: int, ncols: int) -> Mat:
    """m with its columns moved right to start at column offset, in ncols
    columns."""
    if m.ncols == ncols:
        return m
    parts = [Mat.zeros(m.field, m.nrows, offset), m,
             Mat.zeros(m.field, m.nrows, ncols - offset - m.ncols)]
    return Mat.hstack(m.field, parts)


# ------------------------------------------------------------- graded homs


def graded_hom_dims(source: FiniteGradedModule, target: FiniteGradedModule
                    ) -> dict[int, int]:
    """All nonzero degrees of Hom_R(source, target), certified by windowing."""
    src = ModuleSource(source, target)
    e_min = target.bottom - src.gen_top
    e_max = target.top - src.lo
    out = {}
    for e in range(e_min, e_max + 1):
        d = _solve([src], e)
        if d:
            out[e] = d
    return out


def tangent_graded(ideal: HomogeneousIdeal, e: int) -> int:
    """dim Hom_R(I, R/I)_e, the weight-e tangent space at a single fat point."""
    if not ideal.is_m_primary:
        raise NotMPrimary("tangent computation needs a certified m-primary ideal")
    return _solve([IdealSource(ideal)], e)


def nested_tangent_graded(nest: Nesting, e: int) -> int:
    """The weight-e tangent dimension at a nesting."""
    return _solve([IdealSource(i) for i in nest.ideals], e)


# ------------------------------------------------------------------- theta


def theta_tables(nest: Nesting) -> list[dict[int, tuple[Mat, int, int]]]:
    """The degree -1 tangent tuples of the n derivations d/dx_j: per ideal, a
    table {d: (P, s_d, t_d)} whose row j is vec of the block I_d -> (R/I)_{d-1}
    of d/dx_j.  Each ideal's table is built once and kept on the ideal; the
    caller gets its own dicts, so its edits never reach that copy."""
    return [dict(_theta_table(ideal)) for ideal in nest.ideals]


def _theta_table(ideal: HomogeneousIdeal) -> dict[int, tuple[Mat, int, int]]:
    if "theta" not in ideal._kept:
        ctx, fld = ideal.ctx, ideal.fld
        table = {}
        for d in range(ideal.order, ideal.socle_degree + 2):
            s, t = ideal.dim_at(d), ideal.qdim(d - 1)
            if not (s and t):
                table[d] = (Mat.zeros(fld, ctx.n, s * t), s, t)
                continue
            # the block of d/dx_j is B D_j Pi: B the basis of I_d, D_j the
            # derivation R_d -> R_{d-1} and Pi the projection to (R/I)_{d-1},
            # so row j is vec(D_j) times (I ⊗ Pi), then times (B^T ⊗ I)
            n_d, n_c = ctx.dim(d), ctx.dim(d - 1)
            diffs = Mat.from_entries(fld, ctx.n, n_d * n_c, (
                (j, a * n_c + b, v) for j in range(ctx.n) for a, b, v in ctx.diff_entries(j, d)))
            pi = ideal.quotient_structure(d - 1).project_rows(Mat.identity(fld, n_c))
            table[d] = (left_mul_vecrows(right_mul_vecrows(diffs, n_d, n_c, pi), n_d, t,
                                         ideal.basis_at(d)[0]), s, t)
        ideal._kept["theta"] = table
    return ideal._kept["theta"]


def check_tangent_blocks(nest: Nesting, tables: list[dict[int, tuple[Mat, int, int]]]
                         ) -> bool:
    """Exact check that every row of the degree -1 tables (one per ideal, as
    theta_tables builds them) is a tangent vector: module homs and nesting."""
    for ideal, table in zip(nest.ideals, tables):
        # at d = socle + 1 the target (R/I)_d of x_j is zero: nothing to check
        for d in range(ideal.order, ideal.socle_degree + 1):
            cur, nxt = table[d], table[d + 1]
            for j in range(nest.ctx.n):
                lhs = left_mul_vecrows(*nxt, ideal.action(j, d))
                rhs = right_mul_vecrows(*cur, ideal.quotient_action(j, d - 1))
                if not lhs.sub(rhs).is_zero():
                    return False
    # row k of every table is the k-th tuple: the two terms must agree row by row
    for _, term_l, term_u in _link_terms(nest.ideals, tables, -1):
        h = max(term_l.nrows, term_u.nrows)
        if _shift_cols(term_l.transpose(), 0, h) != _shift_cols(term_u.transpose(), 0, h):
            return False
    return True


def theta_rank(nest: Nesting) -> int:
    """Rank of the span of the n derivative directions in degree -1."""
    tables = theta_tables(nest)
    if not check_tangent_blocks(nest, tables):
        raise TangentError("theta image violates the tangent constraints")
    theta = Mat.hstack(nest.fld, [table[d][0] for table in tables for d in sorted(table)])
    return theta.rank() if theta.ncols else 0


# ------------------------------------------------------------- TNT reports


TNT_CERTIFIED = "certified"
TNT_FAILED_RATIONAL = "failed_over_rational"
TNT_FAILED_PRIME = "failed_over_prime_needs_rational_confirm"
TNT_NOT_ASSESSED = "not_assessed"


@dataclass
class TangentReport:
    field_label: str
    hilbert_functions: list[str]
    e_min: int
    e_max: int
    degrees: dict[int, int]
    theta_rank: int
    tnt: str

    @property
    def t_neg(self) -> int:
        return sum(v for e, v in self.degrees.items() if e < 0)

    @property
    def t_nonneg(self) -> int:
        return sum(v for e, v in self.degrees.items() if e >= 0)

    @property
    def t_total(self) -> int:
        return self.t_neg + self.t_nonneg

    def t_at(self, e: int) -> int:
        return self.degrees.get(e, 0)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "nesting": self.hilbert_functions,
            "degrees": {str(e): self.degrees[e] for e in sorted(self.degrees)},
            "t_neg": self.t_neg,
            "t_nonneg": self.t_nonneg,
            "t_total": self.t_total,
            "theta_rank": self.theta_rank,
            "tnt": self.tnt,
            "field": self.field_label,
        }


def tangent_window(nest: Nesting) -> tuple[int, int]:
    e_min = -max(i.max_gen_degree for i in nest.ideals)
    e_max = max(i.socle_degree - i.order for i in nest.ideals)
    return e_min, max(e_max, -1)


def tnt_check(nest: Nesting, e_range: tuple[int, int] | None = None) -> TangentReport:
    """Degreewise tangent dimensions plus the trivial-negative-tangents verdict.

    Over a prime field a positive verdict certifies the rational one: kernel
    dimensions of integer systems can only shrink under lifting while the
    theta rank can only grow, so `zero above, full rank at -1` transfers.
    A negative prime-field verdict is only a strong hint.  An ``e_range``
    that misses a degree of ``[tangent_window(nest)[0], -1]`` gives no
    verdict: ``TNT_NOT_ASSESSED``.
    """
    window = tangent_window(nest)
    e_min, e_max = e_range if e_range is not None else window
    degrees = {}
    for e in range(e_min, e_max + 1):
        degrees[e] = nested_tangent_graded(nest, e)
    rk = theta_rank(nest)
    below = sum(v for e, v in degrees.items() if e <= -2)
    positive = below == 0 and rk == degrees.get(-1, 0)
    if e_min > window[0] or e_max < -1:
        verdict = TNT_NOT_ASSESSED
    elif positive:
        verdict = TNT_CERTIFIED
    else:
        verdict = TNT_FAILED_RATIONAL if nest.fld.is_rational else TNT_FAILED_PRIME
    return TangentReport(
        field_label=nest.fld.label,
        hilbert_functions=[str(h) for h in nest.hilbert_functions],
        e_min=e_min, e_max=e_max, degrees=degrees, theta_rank=rk, tnt=verdict)


# ------------------------------------------------------------- sandwiching


def sandwich_insert(nest: Nesting, j: int, k: int) -> Nesting:
    """Insert m^k after the j-th ideal (j = 0 prepends), checking strictness."""
    if not 0 <= j <= nest.r:
        raise NotStrictlySandwiched(f"position {j} out of range")
    mk = power_of_max_ideal(nest.ctx, nest.fld, k)
    if j >= 1:
        upper = nest.ideals[j - 1]
        if not (upper.contains(mk) and not upper.equals(mk)):
            raise NotStrictlySandwiched(f"ideal {j} does not strictly contain m^{k}")
    if j < nest.r:
        lower = nest.ideals[j]
        if not (mk.contains(lower) and not mk.equals(lower)):
            raise NotStrictlySandwiched(f"m^{k} does not strictly contain ideal {j + 1}")
    ideals = nest.ideals[:j] + [mk] + nest.ideals[j:]
    return Nesting(ideals, check=False)


@dataclass
class SandwichReport:
    j: int
    k: int
    hypotheses_met: bool
    base: TangentReport
    enlarged: TangentReport
    hom_dims: dict[int, int]
    hom_total: int
    identity_discrepancy: int
    jump_minus1: int
    jump_formula_k_km1: int
    jump_formula_km1_km1: int
    t_nonneg_unchanged: bool

    def matching_convention(self) -> str:
        if self.jump_minus1 == self.jump_formula_k_km1:
            return "q(k)*i(k-1)"
        if self.jump_minus1 == self.jump_formula_km1_km1:
            return "q(k-1)*i(k-1)"
        return "neither"

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "position": self.j,
            "power": self.k,
            "hypotheses_met": self.hypotheses_met,
            "base": self.base.to_json(),
            "enlarged": self.enlarged.to_json(),
            "hom_dims": {str(e): v for e, v in sorted(self.hom_dims.items())},
            "hom_total": self.hom_total,
            "identity_discrepancy": self.identity_discrepancy,
            "jump_minus1": self.jump_minus1,
            "jump_formula_k_km1": self.jump_formula_k_km1,
            "jump_formula_km1_km1": self.jump_formula_km1_km1,
            "jump_convention": self.matching_convention(),
            "t_nonneg_unchanged": self.t_nonneg_unchanged,
        }


def sandwich_hom_term(nest: Nesting, j: int, k: int) -> dict[int, int]:
    """Degreewise dimensions of Hom_R(m^k / I^(j+1), I^(j) / m^k)."""
    ctx, fld = nest.ctx, nest.fld
    mk = power_of_max_ideal(ctx, fld, k)
    if j >= 1:
        upper = nest.ideals[j - 1]
        target = subquotient_module(upper, mk)
        o_target = upper.order
    else:
        target = quotient_module(mk)
        o_target = 0
    hi = max(2 * k - o_target, k)
    lower = nest.ideals[j] if j < nest.r else zero_ideal(ctx, fld, hi)
    return graded_hom_dims(subquotient_module(mk, lower, hi=hi), target)


def sandwich_identity_check(nest: Nesting, j: int, k: int) -> SandwichReport:
    """Both sides of the negative-tangent sandwich identity, computed independently."""
    enlarged_nest = sandwich_insert(nest, j, k)
    base = tnt_check(nest)
    enlarged = tnt_check(enlarged_nest)
    hom_dims = sandwich_hom_term(nest, j, k)
    hom_total = sum(v for e, v in hom_dims.items() if e < 0)
    lemma_rhs = base.t_neg + hom_total
    identity_discrepancy = enlarged.t_neg - lemma_rhs
    jump = enlarged.t_at(-1) - base.t_at(-1)
    upper_q = nest.ideals[j - 1].hilbert_function() if j >= 1 else None
    if j < nest.r:
        q_low = nest.ideals[j].hilbert_function()
        q_k, q_km1 = q_low(k), q_low(k - 1)
    else:
        q_k, q_km1 = nest.ctx.dim(k), nest.ctx.dim(k - 1)
    i_km1 = (nest.ctx.dim(k - 1) - upper_q(k - 1)) if upper_q is not None \
        else nest.ctx.dim(k - 1)
    hypotheses = (base.tnt == TNT_CERTIFIED and
                  base.t_neg == base.t_at(-1))
    return SandwichReport(
        j=j, k=k, hypotheses_met=hypotheses, base=base, enlarged=enlarged,
        hom_dims=hom_dims, hom_total=hom_total,
        identity_discrepancy=identity_discrepancy, jump_minus1=jump,
        jump_formula_k_km1=q_k * i_km1, jump_formula_km1_km1=q_km1 * i_km1,
        t_nonneg_unchanged=enlarged.t_nonneg == base.t_nonneg)


# ------------------------------------------------------- generator oracle


def hom_dim_via_syzygies(ideal: HomogeneousIdeal, e: int) -> int:
    """Independent oracle for dim Hom_R(I, R/I)_e: prescribe generator images,
    impose the minimal first syzygies, count solutions."""
    from .resolutions import first_syzygies, minimal_generators

    ctx, fld = ideal.ctx, ideal.fld
    if "syzygies" not in ideal._kept:  # once per ideal, for every e
        ideal._kept["syzygies"] = (minimal_generators(ideal), first_syzygies(ideal))
    gens, syz = ideal._kept["syzygies"]
    offsets, total = [], 0
    for d, _ in gens:
        offsets.append(total)
        total += ideal.qdim(d + e)
    width = 0
    entries: list[tuple[int, int, object]] = []
    for sy_deg, comps in zip(syz.degrees, syz.comps):
        t_out = ideal.qdim(sy_deg + e)
        if t_out == 0:
            continue
        for l, (gd, _) in enumerate(gens):
            t_in = ideal.qdim(gd + e)
            if t_in == 0 or not comps[l]:
                continue
            # multiplication by the syzygy coefficient, pushed to the quotient
            coeff = HomogeneousElement(ctx, fld, sy_deg - gd, comps[l])
            lift = ideal.quotient_structure(gd + e).lift
            prod = lift.matmul(mult_map(ctx, coeff, gd + e))
            block = ideal.quotient_structure(sy_deg + e).project_rows(prod)
            for rr in range(t_in):
                for cc, v in block.row_items(rr).items():
                    entries.append((offsets[l] + rr, width + cc, v))
        width += t_out
    cons = Mat.from_entries(fld, total, width, entries)
    return total - cons.rank()
