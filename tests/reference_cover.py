"""Reference exact cover: every usable part scanned at every remainder.

This is the kernel `monomials._exact_cover_exists` had before it bucketed
the parts by their lowest bit and refused past UNION_LIMIT remainders.  It
has no bound, so it is only run on inputs whose remainders stay under that
limit; there the library must give the same answer.
"""


def reference_exact_cover_exists(target: int, parts) -> bool:
    """Can `target` be written as a disjoint union of some of `parts`?"""
    usable = [p for p in parts if p and p & ~target == 0]
    # exactly one chosen part holds the lowest bit left to cover, and any
    # part of the cover may appear anywhere in the list
    stack, seen = [target], {target}
    while stack:
        rest = stack.pop()
        if not rest:
            return True
        low = rest & -rest
        for p in usable:
            if p & low and p & ~rest == 0 and rest ^ p not in seen:
                seen.add(rest ^ p)
                stack.append(rest ^ p)
    return False
