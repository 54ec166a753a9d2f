"""Minimal generators, graded syzygies and minimal free resolutions.

Everything is certified degreewise linear algebra: a finite-colength quotient
R/I with top nonzero degree s has regularity s, so the i-th syzygies of the
ideal live in degrees at most s+i+1 and scanning kernels up to that bound
loses nothing.  No Groebner bases anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import HomogeneousIdeal, NotMPrimary
from .linalg import Mat
from .ring import HomogeneousElement, RingCtx


class NotTwoStep(ValueError):
    pass


class ResolutionError(RuntimeError):
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
        from math import comb

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


def _syzygy_step(ctx: RingCtx, fld, gens: _FreeGens, top: int
                 ) -> tuple[dict[int, int], _FreeGens]:
    """Kernel of the presentation of gens, presented by its own minimal generators."""
    counts: dict[int, int] = {}
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
        if fresh:
            counts[c] = len(fresh)
            for flat in fresh:
                new_degrees.append(c)
                new_comps.append([{k - a: v for k, v in flat.items() if a <= k < b}
                                  for a, b in zip(offs, offs[1:])])
        prev_kernel = kernel
    return counts, _FreeGens(list(gens.degrees), new_degrees, new_comps)


def first_syzygies(ideal: HomogeneousIdeal) -> _FreeGens:
    """Minimal generators of the syzygy module of the canonical generators."""
    gens0 = _ideal_gens_as_free(ideal)
    s = ideal.socle_degree
    _, syz = _syzygy_step(ideal.ctx, ideal.fld, gens0, s + 2)
    return syz


def _ideal_gens_as_free(ideal: HomogeneousIdeal) -> _FreeGens:
    mf = minimal_generators(ideal)
    return _FreeGens([0], [d for d, _ in mf], [[g.coeffs] for _, g in mf])


def betti_table(ideal: HomogeneousIdeal) -> BettiTable:
    """Graded Betti numbers of the ideal via iterated syzygy steps."""
    if not ideal.is_m_primary:
        raise NotMPrimary("resolutions need a certified m-primary ideal")
    ctx, fld = ideal.ctx, ideal.fld
    s = ideal.socle_degree
    betti: dict[tuple[int, int], int] = {}
    gens = _ideal_gens_as_free(ideal)
    for d, k in _degree_multiset(gens.degrees).items():
        betti[(0, d)] = k
    step = 1
    while gens.degrees:
        if step > ctx.n:
            raise ResolutionError("resolution did not terminate at the depth bound")
        counts, gens = _syzygy_step(ctx, fld, gens, s + step + 1)
        for c, k in counts.items():
            betti[(step, c)] = k
        step += 1
    return BettiTable(ctx.n, s, tuple(ideal.hilbert_function().entries), betti)


def _degree_multiset(degrees: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for d in degrees:
        out[d] = out.get(d, 0) + 1
    return out


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
