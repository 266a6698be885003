"""Reference ranks of dense integer matrices, each a list of row lists.

`fraction_free_rank` is the rational rank by Bareiss's two-step
fraction-free elimination (Math. Comp. 22, 1968): every intermediate entry
is an exact minor of the input, so the divisions are exact integer
divisions.  `dense_gf2_rank` is plain Gaussian elimination mod 2.  The
library reduces sparse rows by lowest-column pivots instead and must
return the same ranks.
"""


def fraction_free_rank(rows) -> int:
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, nr):
            fi = m[i][c]
            mi = m[i]
            mr = m[rank]
            for j in range(c + 1, nc):
                mi[j] = (pivot * mi[j] - fi * mr[j]) // prev
            mi[c] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank


def dense_gf2_rank(rows) -> int:
    m = [[x % 2 for x in row] for row in rows]
    nc = len(m[0]) if m else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank
