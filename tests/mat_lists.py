"""Dense reading of a Mat for the tests, which compare whole matrices with
lists of Python numbers."""

from fractions import Fraction


def to_lists(m) -> list[list]:
    """The entries of m as row lists, read through ``row_items``: Fractions
    over QQ, residues in [0, p) over GF(p)."""
    zero = Fraction(0) if m.field.is_rational else 0
    out = []
    for i in range(m.nrows):
        row = [zero] * m.ncols
        for j, v in m.row_items(i).items():
            row[j] = v
        out.append(row)
    return out
