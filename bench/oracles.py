"""Independent oracles the benchmark checks verdicts against.

They use plain integer arithmetic and never call the program, so a wrong
answer from the program cannot also make its expectation wrong.
"""

from __future__ import annotations


def f2_rank(rows):
    """Rank over F2 of a 0/1 matrix given as a list of rows."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _linearize(D, m, n):
    """F2 matrix of D: R^n -> R^m, R = F2[u]/u^3, on the basis (g, u^i)."""
    big = [[0] * (3 * n) for _ in range(3 * m)]
    for t in range(m):
        for s in range(n):
            c = D[t][s]
            for i in range(3):
                for j in range(3 - i):
                    if c[j]:
                        big[3 * t + i + j][3 * s + i] = 1
    return big


def dvr_invariants(D, m, n):
    """(free rank, count of R/u summands, count of R/u^2 summands) of the
    cokernel of D over R = F2[u]/u^3.

    Plain F2 linear algebra on the 3m-dimensional realization: the
    dimensions of M, uM and u^2 M determine the three multiplicities.
    """
    big = _linearize(D, m, n)
    r = f2_rank(big) if m and n else 0
    dims = []
    for power in (0, 1, 2):
        cols = []
        for g in range(m):
            for i in range(3 - power):
                v = [0] * (3 * m)
                v[3 * g + i + power] = 1
                cols.append(v)
        stacked = [[cols[c][rr] for c in range(len(cols))]
                   + [big[rr][c] for c in range(3 * n)]
                   for rr in range(3 * m)]
        dims.append(f2_rank(stacked) - r)
    c0, c1, c2 = dims
    f = c2
    b = c1 - 2 * f
    a = c0 - 3 * f - 2 * b
    return f, a, b


def novikov_text(coeff, power):
    """How the program prints the monomial coeff * q^power (integers)."""
    if coeff == 0:
        return "0"
    sign = "-" if coeff < 0 else ""
    mag = abs(coeff)
    if power == 0:
        return f"{sign}{mag}"
    qpow = "q" if power == 1 else f"q^{power}"
    return f"{sign}{qpow}" if mag == 1 else f"{sign}{mag}*{qpow}"
