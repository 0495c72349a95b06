"""Independent brute-force oracles, deliberately free of numpy.linalg.

The distance oracles evaluate each of the five measures one pair at a time
in plain Python. The regression oracle rebuilds the whole estimate path the
same way: scalar weighted-norm distances, dense matrix assembly, Gaussian
elimination with partial pivoting, and the final weighted target sums. None
of it shares code with the production path it checks.
"""

import math


def minkowski_scalar(a, b, m=2.0, w=None):
    if w is None:
        w = [1.0] * len(a)
    total = 0.0
    for ai, bi, wi in zip(a, b, w):
        total += wi * abs(ai - bi) ** m
    return total ** (1.0 / m)


def rbf_scalar(a, b, sigma, squared=False):
    d = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
    if squared:
        d = d * d
    return math.exp(-d / (2.0 * sigma * sigma))


def cosine_scalar(a, b):
    dot = sum(ai * bi for ai, bi in zip(a, b))
    na = math.sqrt(sum(ai * ai for ai in a))
    nb = math.sqrt(sum(bi * bi for bi in b))
    return 1.0 - dot / (na * nb)


def manhattan_scalar(a, b):
    return sum(abs(ai - bi) for ai, bi in zip(a, b))


def canberra_scalar(a, b):
    total = 0.0
    for ai, bi in zip(a, b):
        den = abs(ai) + abs(bi)
        if den != 0.0:
            total += abs(ai - bi) / den
    return total


def gauss_solve(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    n = len(b)
    M = [list(map(float, row)) + [float(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[pivot_row][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            M[col], M[pivot_row] = M[pivot_row], M[col]
        piv = M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] / piv
            if factor != 0.0:
                for c in range(col, n + 1):
                    M[r][c] -= factor * M[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = M[r][n]
        for c in range(r + 1, n):
            s -= M[r][c] * x[c]
        x[r] = s / M[r][r]
    return x


def gpr_oracle(means, targets, frame, eps, m=2.0, w=None):
    """Estimate (ex, ey) via the full brute-force route at jitter eps."""
    P = len(means)
    C = [[minkowski_scalar(means[i], means[j], m, w) for j in range(P)]
         for i in range(P)]
    for i in range(P):
        C[i][i] += eps
    k = [minkowski_scalar(frame, means[p], m, w) for p in range(P)]
    z = gauss_solve(C, k)
    ex = sum(zi * t[0] for zi, t in zip(z, targets))
    ey = sum(zi * t[1] for zi, t in zip(z, targets))
    return ex, ey


def iir_reference(alpha, xs, y0=None):
    """Sequential reference filter: y_t = a x_t + (1-a) y_{t-1}."""
    out = []
    y = y0
    for x in xs:
        y = x if y is None else alpha * x + (1.0 - alpha) * y
        out.append(y)
    return out


def mean_median_std(values):
    """Plain-Python statistics used to cross-check report arithmetic."""
    n = len(values)
    mean = sum(values) / n
    ordered = sorted(values)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, median, math.sqrt(var)
