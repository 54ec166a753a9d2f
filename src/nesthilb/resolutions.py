"""Minimal generators, first syzygies and graded Betti tables.

Everything is certified degreewise linear algebra; no Groebner bases.  Betti
tables are Tor by Koszul homology: R/I is finite, so beta_{i,i+d}(R/I) =
C(n,i) q(d) - rank K_i^d - rank K_{i+1}^{d-1}, with q the Hilbert function
of R/I and K_i^d the Koszul map wedge^i k^n (x) (R/I)_d -> wedge^{i-1} k^n
(x) (R/I)_{d+1}.  The first syzygies, which feed the oracle
``hom_dim_via_syzygies``, are kernels of presentation matrices up to the
regularity bound s+2, where s is the top nonzero degree of R/I.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .ideals import HomogeneousIdeal, NotMPrimary
from .linalg import Mat
from .ring import HomogeneousElement, RingCtx


class NotTwoStep(ValueError):
    pass


def minimal_generators(ideal: HomogeneousIdeal) -> list[tuple[int, HomogeneousElement]]:
    """Canonical minimal generators: per degree, the reduced-basis rows of I_d
    at its generator pivots, which span a complement of R_1 * I_{d-1}."""
    if not ideal.is_m_primary:
        raise NotMPrimary("minimal generators need a certified m-primary ideal")
    ctx, fld = ideal.ctx, ideal.fld
    out = []
    for d, gen_piv in enumerate(ideal.gen_pivots):
        fresh = set(gen_piv)
        basis = ideal.bases[d]
        out += [(d, HomogeneousElement(ctx, fld, d, basis.row_items(i)))
                for i, p in enumerate(ideal.pivots[d]) if p in fresh]
    return out


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} of an m-primary ideal."""

    n: int
    socle_degree: int
    quotient_hilbert: tuple[int, ...]
    betti: dict[tuple[int, int], int]

    def projective_dimension(self) -> int:
        return max((i for (i, _), b in self.betti.items() if b), default=0)

    def quotient_betti(self) -> dict[tuple[int, int], int]:
        out = {(0, 0): 1}
        for (i, j), b in self.betti.items():
            out[(i + 1, j)] = b
        return out

    def euler_polynomial(self) -> dict[int, int]:
        """Coefficients of sum (-1)^i beta_{i,j}(R/I) t^j."""
        out: dict[int, int] = {}
        for (i, j), b in self.quotient_betti().items():
            out[j] = out.get(j, 0) + (-1) ** i * b
        return {j: c for j, c in out.items() if c}

    def euler_identity_holds(self) -> bool:
        """K-polynomial check: the alternating Betti sum equals HS_{R/I}(t)(1-t)^n."""
        rhs: dict[int, int] = {}
        for d, h in enumerate(self.quotient_hilbert):
            for k in range(self.n + 1):
                c = h * (-1) ** k * comb(self.n, k)
                rhs[d + k] = rhs.get(d + k, 0) + c
        rhs = {j: c for j, c in rhs.items() if c}
        return rhs == self.euler_polynomial()

    def staircase(self) -> str:
        cols = sorted({i for (i, _), b in self.betti.items() if b})
        if not cols:
            return "0"
        rows = sorted({j - i for (i, j), b in self.betti.items() if b})
        width = max(len(str(b)) for b in self.betti.values()) + 2
        head = "       " + "".join(f"{i:>{width}}" for i in cols)
        totals = {i: sum(b for (ii, _), b in self.betti.items() if ii == i) for i in cols}
        lines = [head,
                 "total: " + "".join(f"{totals[i]:>{width}}" for i in cols)]
        for r in rows:
            cells = []
            for i in cols:
                b = self.betti.get((i, r + i), 0)
                cells.append(f"{b if b else '.':>{width}}")
            lines.append(f"{r}:     " + "".join(cells))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"schema": 1,
                "betti": {f"{i},{j}": b for (i, j), b in sorted(self.betti.items()) if b},
                "projective_dimension": self.projective_dimension()}


@dataclass
class _FreeGens:
    """Generators of a graded submodule of a free module F = (+) R(-shift_l)."""

    shifts: list[int]  # of the ambient free module
    degrees: list[int]
    comps: list[list[dict[int, object]]]  # per generator, one sparse row per summand


def _free_offsets(ctx: RingCtx, shifts: list[int], c: int) -> list[int]:
    """Offsets of the summands R_{c-shift} in F_c, then dim F_c."""
    offs = [0]
    for s in shifts:
        offs.append(offs[-1] + ctx.dim(c - s))
    return offs


def _presentation_matrix(ctx: RingCtx, fld, gens: _FreeGens, c: int) -> Mat:
    """Degree-c matrix of (+) R(-deg_l) -> F sending the l-th unit to gens[l]."""
    src_offs = _free_offsets(ctx, gens.degrees, c)
    tgt_offs = _free_offsets(ctx, gens.shifts, c)
    entries = ((src_offs[l] + i, tgt_offs[t] + k, v)
               for l, dg in enumerate(gens.degrees)
               for t, comp in enumerate(gens.comps[l])
               for i, k, v in ctx.mult_entries(comp, dg - gens.shifts[t], c - dg))
    return Mat.from_entries(fld, src_offs[-1], tgt_offs[-1], entries)


def _free_scatter(ctx: RingCtx, rows: Mat, shifts: list[int], c: int, j: int) -> Mat:
    """Multiply rows (coordinates in F_c) by x_j, landing in F_{c+1}."""
    src_offs = _free_offsets(ctx, shifts, c)
    tgt_offs = _free_offsets(ctx, shifts, c + 1)
    pairs = [(src_offs[l] + i, tgt_offs[l] + k) for l, s in enumerate(shifts)
             for i, k in enumerate(ctx.mult_index(j, c - s))]
    return rows.remap_cols(tgt_offs[-1], pairs)


def _syzygy_step(ctx: RingCtx, fld, gens: _FreeGens, top: int) -> _FreeGens:
    """Kernel of the presentation of gens, presented by its own minimal generators."""
    new_degrees: list[int] = []
    new_comps: list[list[dict[int, object]]] = []
    lo = min(gens.degrees) + 1
    prev_kernel: Mat | None = None
    for c in range(lo, top + 1):
        offs = _free_offsets(ctx, gens.degrees, c)
        phi = _presentation_matrix(ctx, fld, gens, c)
        kernel = phi.transpose().kernel_basis()
        if prev_kernel is not None and prev_kernel.nrows:
            span = Mat.vstack(
                fld, [_free_scatter(ctx, prev_kernel, gens.degrees, c - 1, j)
                      for j in range(ctx.n)],
                offs[-1])
            _, span_piv = span.rref()
        else:
            span_piv = []
        # kernel rows are reduced, so each row's pivot is its leading column
        rows = [kernel.row_items(i) for i in range(kernel.nrows)]
        prevset = set(span_piv)
        fresh = [flat for flat in rows if min(flat) not in prevset]
        for flat in fresh:
            new_degrees.append(c)
            new_comps.append([{k - a: v for k, v in flat.items() if a <= k < b}
                              for a, b in zip(offs, offs[1:])])
        prev_kernel = kernel
    return _FreeGens(list(gens.degrees), new_degrees, new_comps)


def first_syzygies(ideal: HomogeneousIdeal) -> _FreeGens:
    """Minimal generators of the syzygy module of the canonical generators."""
    gens0 = _ideal_gens_as_free(ideal)
    return _syzygy_step(ideal.ctx, ideal.fld, gens0, ideal.socle_degree + 2)


def _ideal_gens_as_free(ideal: HomogeneousIdeal) -> _FreeGens:
    mf = minimal_generators(ideal)
    return _FreeGens([0], [d for d, _ in mf], [[g.coeffs] for _, g in mf])


def _koszul_map(ideal: HomogeneousIdeal, i: int, d: int) -> Mat:
    """wedge^i k^n (x) (R/I)_d -> wedge^{i-1} k^n (x) (R/I)_{d+1}, one block of
    rows per i-subset S: e_S (x) m -> sum_k (-1)^k e_{S-S[k]} (x) x_{S[k]} m."""
    n, q, q1 = ideal.ctx.n, ideal.qdim(d), ideal.qdim(d + 1)
    acts = [[a.row_items(r) for r in range(q)]
            for a in (ideal.quotient_action(j, d) for j in range(n))]
    faces = {t: b for b, t in enumerate(combinations(range(n), i - 1))}
    entries = ((a * q + r, faces[S[:k] + S[k + 1:]] * q1 + c, -v if k % 2 else v)
               for a, S in enumerate(combinations(range(n), i))
               for k in range(i)
               for r, row in enumerate(acts[S[k]])
               for c, v in row.items())
    return Mat.from_entries(ideal.fld, comb(n, i) * q, comb(n, i - 1) * q1, entries)


def betti_table(ideal: HomogeneousIdeal) -> BettiTable:
    """Graded Betti numbers of the ideal from the ranks of the Koszul maps:
    beta_{i-1,j}(I) = beta_{i,j}(R/I) for i >= 1."""
    if not ideal.is_m_primary:
        raise NotMPrimary("resolutions need a certified m-primary ideal")
    n, s = ideal.ctx.n, ideal.socle_degree
    q = ideal.hilbert_function().entries
    if s == -1:  # the unit ideal R, generated by 1: the formula needs I inside m
        return BettiTable(n, s, q, {(0, 0): 1})
    rank = {(i, d): _koszul_map(ideal, i, d).rank()
            for i in range(1, n + 1) for d in range(s)}
    betti = {}
    for i in range(1, n + 1):
        for d in range(s + 1):
            if b := comb(n, i) * q[d] - rank.get((i, d), 0) - rank.get((i + 1, d - 1), 0):
                betti[(i - 1, i + d)] = b
    return BettiTable(n, s, q, betti)


def has_linear_syzygies(ideal: HomogeneousIdeal) -> bool:
    """Two-step predicate: rank(R_1 * I_k) < n * dim I_k for the order k.

    The rank is dim I_{k+1} minus the generators in degree k+1, whose pivots
    the ideal recorded when it eliminated R_1 * I_k.  Raises NotTwoStep
    unless m^{k+2} ⊆ I ⊆ m^k with I not inside m^{k+1}.
    """
    k = two_step_order(ideal)
    step_rank = ideal.dim_at(k + 1) - ideal.generator_degrees().get(k + 1, 0)
    return step_rank < ideal.ctx.n * ideal.dim_at(k)


def two_step_order(ideal: HomogeneousIdeal) -> int:
    if not ideal.is_m_primary:
        raise NotMPrimary("two-step test needs a certified m-primary ideal")
    k = ideal.order
    if k is None or k == 0:
        raise NotTwoStep("ideal has no order (zero or unit ideal)")
    socle = ideal.socle_degree
    if socle is None or socle > k + 1:
        raise NotTwoStep(f"m^{k + 2} is not inside the ideal (socle degree {socle})")
    return k
