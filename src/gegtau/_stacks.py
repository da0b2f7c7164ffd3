"""Coefficient stacks: a family of polynomials of one degree as a 2-D
float array, a row per polynomial in ascending powers of mu.

The verify suites build and check their polynomial families here, one
array operation per step for the whole family instead of one Python call
per polynomial.  Every builder takes the same float operations in the same
order as the one-polynomial code of tests/oracles.py (the coefficient-list
sums and products mu_add and mu_mul, np.poly, coefficient-list
composition), so each row is bitwise what that code gives; the
one-polynomial functions of charpoly and verify are the one-row case of
these.  poly_roots_stacks finds the roots of every row of every stack.
The module is internal to the package: charpoly and verify import from it.
"""

from __future__ import annotations

import numpy as np

from .orthopoly import JacobiIndex, as_jacobi, jacobi_derivs_at_one

__all__ = [
    "as_stack",
    "stack_mul",
    "stack_add",
    "poly_from_roots",
    "hb_stack",
    "endpoint_rows",
    "phi_stack",
    "jacobi_char_stacks",
    "mixed_char_stacks",
    "poly_roots_stacks",
]


def as_stack(rows) -> np.ndarray:
    """Equal-length coefficient lists as the rows of one array: float, or
    object (Python arithmetic) when they hold Fractions."""
    stack = np.array(rows)
    return stack if stack.dtype == object else stack.astype(float)


def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of two coefficient stacks, accumulated in the order
    of tests/oracles.mu_mul (the high coefficients of a first), so each row
    is bitwise that product."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1), dtype=np.result_type(a, b))
    for i in range(a.shape[1] - 1, -1, -1):
        out[:, i : i + b.shape[1]] += a[:, i : i + 1] * b
    return out


def stack_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sums of two coefficient stacks as tests/oracles.mu_add forms
    them: the longer stack's extra coefficients are kept as they are."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = a.copy()
    out[:, : b.shape[1]] += b
    return out


def poly_from_roots(roots: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """Ascending coefficients of np.poly(roots[i]) * lead[i] for each row i
    of a stack of real roots.  np.poly convolves with one factor (1, -z) at
    a time; each step here forms every new coefficient a[j] + a[j-1] (-z)
    as numpy's real convolution does, so the rows are bitwise np.poly's."""
    count, n = roots.shape
    ar = np.zeros((count, n + 1))
    ar[:, 0] = 1.0
    for k in range(n):
        ar[:, 1 : k + 2] += ar[:, : k + 1] * -roots[:, k : k + 1]
    return (ar * lead[:, None])[:, ::-1]


def hb_stack(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Row-wise p1(z^2) + z p2(z^2) of two coefficient stacks: each
    coefficient is added to a zero of its row's p1 sign (p1[0] * 0), as
    coefficient lists add them."""
    width = max(2 * c1.shape[1] - 1, 2 * c2.shape[1])
    out = np.repeat((c1[:, :1] * 0).astype(np.result_type(c1, c2)), width, axis=1)
    out[:, 0 : 2 * c1.shape[1] - 1 : 2] += c1
    out[:, 1 : 2 * c2.shape[1] : 2] += c2
    return out


def endpoint_rows(n: int, pairs, memo: dict, step: int = 1) -> np.ndarray:
    """jacobi_derivs_at_one(n, (alpha, beta))[::step] for each (alpha, beta)
    in pairs, as the rows of one stack; memo keeps each list by degree and
    exponents (values and types, since 0 == 0.0 == Fraction(0)), so it is
    computed once."""
    rows = []
    for a, b in pairs:
        key = (n, a, b, type(a), type(b))
        derivs = memo.get(key)
        if derivs is None:
            derivs = memo[key] = jacobi_derivs_at_one(n, JacobiIndex(a, b))
        rows.append(derivs[::step])
    return as_stack(rows)


def phi_stack(n: int, pairs, variant: str, weights, memo: dict) -> np.ndarray:
    """phi_poly(n, (alpha, beta), variant, weight) for each (alpha, beta) of
    pairs with the weight of the same position, as the rows of one
    coefficient stack in the same operations as the polynomial sums; memo
    (see endpoint_rows) keeps the endpoint derivative lists across calls."""
    base = endpoint_rows(n, pairs, memo)
    if variant == "base":
        return base
    if n < 1:
        raise ValueError(f"variant {variant!r} needs n >= 1, got {n}")
    prev = endpoint_rows(n - 1, pairs, memo)
    w = np.array(weights, dtype=prev.dtype)[:, None]
    if variant == "prev":
        return stack_add(base, prev * w)
    if variant == "prev-mu2":
        zero = prev[:, :1] * 0
        return stack_add(base, np.concatenate((zero, zero, prev), axis=1) * w)
    raise ValueError(f"unknown variant {variant!r}")


def jacobi_char_stacks(degrees, idxs, memo=None) -> list:
    """jacobi_char_poly(n, idx) for every n in degrees and idx in idxs, as
    one coefficient stack per n with a row per idx.

    Each row is bitwise that polynomial's coefficients: the products and the
    sum take the same operations in the same order, on float rows or, for
    Fraction exponents, on object rows in exact arithmetic.  Every endpoint
    derivative list is computed once per call, or once across the calls
    that pass the same memo dict (see endpoint_rows).
    """
    pairs = [(j.alpha, j.beta) for j in map(as_jacobi, idxs)]
    swapped = [(b, a) for a, b in pairs]
    memo = {} if memo is None else memo
    out = []
    for n in degrees:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        own = stack_mul(endpoint_rows(n, pairs, memo, 2), endpoint_rows(n - 1, swapped, memo, 2))
        swp = stack_mul(endpoint_rows(n, swapped, memo, 2), endpoint_rows(n - 1, pairs, memo, 2))
        out.append(stack_add(own, swp))
    return out


def mixed_char_stacks(degrees, idxs, memo=None) -> list:
    """mixed_char_poly(n, idx) for every n in degrees and idx in idxs, as
    one coefficient stack per n with a row per idx; bitwise as in
    jacobi_char_stacks."""
    pairs = [(j.alpha, j.beta) for j in map(as_jacobi, idxs)]
    swapped = [(b, a) for a, b in pairs]
    raised = [(a + 1, b + 1) for a, b in pairs]
    alpha = np.array([a for a, _ in pairs])
    beta = np.array([b for _, b in pairs])
    memo = {} if memo is None else memo
    out = []
    for n in degrees:
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        k_prev = (n + alpha + beta) / 2  # (n-1) + a + b + 1
        k_cur = (n + alpha + beta + 1) / 2
        low = stack_mul(endpoint_rows(n, swapped, memo, 2), endpoint_rows(n - 2, raised, memo, 2))
        mid = stack_mul(endpoint_rows(n - 1, swapped, memo, 2), endpoint_rows(n - 1, raised, memo, 2))
        out.append(stack_add(low * k_prev[:, None], mid * k_cur[:, None]))
    return out


def poly_roots_stacks(stacks) -> list:
    """poly_roots of every row of every coefficient stack, one eigensolve
    per companion size.

    A stack is a 2-D array (converted to float) whose row i holds the
    ascending coefficients of one polynomial of degree shape[1] - 1, so its
    last entry must be nonzero.  Returns per stack a complex array whose
    row i holds the roots of row i, bitwise poly_roots of that row: each row
    gets the companion matrix numpy.roots builds for it (its own reversal
    choice, zero roots stripped), and the matrices of one size, from all
    stacks, go to one numpy.linalg.eigvals call.
    """
    plans = []  # per stack: (rows, degree, [(row mask, zero roots, companion size, first slot, rows)])
    blocks = {}  # companion size -> [(descending coefficients, roots inverted)]
    for stack in stacks:
        c = np.asarray(stack, dtype=float)
        if c.ndim != 2 or c.shape[1] == 0:
            raise ValueError(f"a coefficient stack is a 2-D array with at least one column, got shape {c.shape}")
        if not c[:, -1].all():
            raise ValueError("every row of a coefficient stack needs a nonzero leading coefficient")
        degree = c.shape[1] - 1
        parts = []
        nzero = np.argmax(c != 0.0, axis=1)
        for z in np.unique(nzero).tolist() if degree else []:
            rows = nzero == z
            core = c[rows, z:]
            size = degree - z
            slot = 0
            if size:
                ratio = np.abs(core[:, 0]) / np.abs(core[:, -1])
                expo = 1.0 / size
                invert = np.array([r**expo < 1.0 for r in ratio.tolist()])  # geometric mean below one
                sized = blocks.setdefault(size, [])
                slot = sum(len(d) for d, _ in sized)
                sized.append((np.where(invert[:, None], core, core[:, ::-1]), invert))
            parts.append((rows, z, size, slot, len(core)))
        plans.append((len(c), degree, parts))
    solved = {}
    for size, sized in blocks.items():
        desc = np.concatenate([d for d, _ in sized])
        comp = np.zeros((len(desc), size, size))
        comp[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        sub = np.arange(1, size)
        comp[:, sub, sub - 1] = 1.0
        solved[size] = _stack_roots(np.linalg.eigvals(comp), np.concatenate([i for _, i in sized]))
    out = []
    for count, degree, parts in plans:
        roots = np.empty((count, degree), dtype=complex)
        for rows, z, size, slot, k in parts:
            part = solved[size][slot : slot + k] if size else np.empty((k, 0), dtype=complex)
            if z:
                part = np.concatenate((part, np.zeros((k, z), dtype=complex)), axis=1)
                part = np.take_along_axis(part, np.lexsort((part.imag, part.real), axis=-1), axis=-1)
            roots[rows] = part
        out.append(roots)
    return out


def _stack_roots(w: np.ndarray, invert: np.ndarray) -> np.ndarray:
    """Roots from one stack of companion eigenvalues, a row per member.

    Does per stack what a lone numpy.roots call does per member: a member
    whose imaginary parts are all 0 is taken real (numpy.linalg.eigvals
    returns a complex stack when any member is complex), inverted members
    (invert[i]) get 1/w in that type, and each row is sorted by (real, imag).
    """
    roots = np.empty(w.shape, dtype=complex)
    real = ~w.imag.any(axis=1) if np.iscomplexobj(w) else np.ones(len(w), dtype=bool)
    for rows, vals in ((real, w.real), (~real, w)):
        flip = rows & invert
        keep = rows & ~invert
        roots[flip] = 1.0 / vals[flip]
        roots[keep] = vals[keep]
    return np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=-1), axis=-1)
