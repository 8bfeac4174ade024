"""Independent references for every benchmark op.

Nothing here imports the package.  Values come from mpmath at 40 digits:

* discrete: the defining sums;
* exponential families and the special-case reducers: the log-integrand
  p q^(alpha-1) written in a basis (x, x^2, ln x, ln(1-x), |x - mu|) and
  integrated with the Gaussian, Gamma, Beta, Kummer and Laplace integrals;
  existence of those integrals gives the divergence verdict; mixed bases
  without a closed integral fall back to mpmath quadrature;
* zero-mean multivariate Gaussians: the Gaussian integral in mpmath
  matrices;
* Markov rates: own class decomposition, Perron roots of the class blocks
  refined by inverse iteration in mpmath and enclosed by Collatz-Wielandt
  bounds; Shannon rates from stationary laws and absorption
  probabilities; finite-n blocks by exact matrix powers;
* Gaussian-process rates: spectral integrals of log-densities by Jensen's
  formula on the roots of the (rational) spectral densities, polished in
  mpmath; finite-n log-determinants from the untruncated autocovariance
  (tridiagonal inverses for white noise and AR(1), banded LDL for
  moving-average sequences).

An expectation is a dict: ``{"kind": "value", "v", "tol"}``,
``{"kind": "diverge", "sign"}`` (+1 below alpha = 1, -1 above) or
``{"kind": "raise", "error"}``.  ``accept_error`` names a typed refusal the
package documents for that input and that is accepted instead.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mp = mpmath.mp
mp.dps = 40
mpf = mpmath.mpf

# Tolerances.  NEAR_ONE is the conditioning term of the 1/(1 - alpha)
# prefactor: 5e-16 M / |1 - alpha| is the ROADMAP's 5e-8 at alpha = 1 +/- 1e-8
# for log terms of unit size; M is the size of the logs the prefactor divides
# (a double can hold a log of size M only to ~M * 1e-16).
NEAR_ONE = 5e-16
REL_CLOSED = 1e-11      # closed forms, discrete sums, eigenvalue rates
REL_QUAD = 2e-9         # values that pass through adaptive quadrature (rtol 1e-10)
REL_MGF_ONE = 2e-8      # MGF reducers at the marker: central difference, h = 1e-5
REL_GRID2D = 1e-7       # the 1501 x 1501 trapezoid oracle
REL_FINITE_N = 1e-9     # Toeplitz Cholesky and renormalised block products
REL_SPECTRAL = 1e-9     # trapezoid spectral rate, refined to 1e-9


def _is_one(a):
    return a == "1"


def _is_inf(a):
    return a == "inf"


def tolerance(alpha, ref, rel, size=1.0):
    """Absolute tolerance for a value ``ref`` at order ``alpha``; ``size`` is
    the magnitude of the log terms divided by 1 - alpha."""
    tol = rel * max(1.0, abs(ref))
    if not isinstance(alpha, str):
        tol += NEAR_ONE * max(1.0, abs(ref), float(size)) / abs(1.0 - alpha)
    return tol


def value(v, alpha, rel, size=1.0, **extra):
    if mpmath.isinf(v):
        return diverge(1 if v > 0 else -1, **extra)
    v = float(v)
    return {"kind": "value", "v": v, "tol": tolerance(alpha, v, rel, size), **extra}


def diverge(sign, **extra):
    return {"kind": "diverge", "sign": int(sign), **extra}


def diverge_at(alpha, **extra):
    return diverge(1 if (not isinstance(alpha, str) and alpha < 1.0) else -1, **extra)


# ---------------------------------------------------------------------------
# discrete


def _discrete_xent(p, q, alpha):
    on = [(a, b) for a, b in zip(p, q) if a > 0]
    if _is_one(alpha):
        if any(b == 0 for _, b in on):
            return mpmath.inf
        return -mpmath.fsum(a * mpmath.log(b) for a, b in on)
    if _is_inf(alpha):
        top = max(b for _, b in on)
        return mpmath.inf if top == 0 else -mpmath.log(top)
    a_ = mpf(alpha)
    if a_ < 1 and any(b == 0 for _, b in on):
        return mpmath.inf
    s = mpmath.fsum(a * mpmath.exp((a_ - 1) * mpmath.log(b)) for a, b in on if b > 0)
    if s == 0:
        return mpmath.inf
    return mpmath.log(s) / (1 - a_)


def _discrete_div(p, q, alpha):
    on = [(a, b) for a, b in zip(p, q) if a > 0]
    if _is_one(alpha):
        if any(b == 0 for _, b in on):
            return mpmath.inf
        return mpmath.fsum(a * (mpmath.log(a) - mpmath.log(b)) for a, b in on)
    if _is_inf(alpha):
        if any(b == 0 for _, b in on):
            return mpmath.inf
        return max(mpmath.log(a) - mpmath.log(b) for a, b in on)
    a_ = mpf(alpha)
    if a_ > 1 and any(b == 0 for _, b in on):
        return mpmath.inf
    s = mpmath.fsum(mpmath.exp(a_ * mpmath.log(a) + (1 - a_) * mpmath.log(b))
                    for a, b in on if b > 0)
    if s == 0:
        return mpmath.inf
    return mpmath.log(s) / (a_ - 1)


def _discrete_ent(p, alpha):
    on = [a for a in p if a > 0]
    if _is_one(alpha):
        return -mpmath.fsum(a * mpmath.log(a) for a in on)
    if _is_inf(alpha):
        return -mpmath.log(max(on))
    a_ = mpf(alpha)
    return mpmath.log(mpmath.fsum(mpmath.exp(a_ * mpmath.log(a)) for a in on)) / (1 - a_)


def discrete(prob, alpha):
    p = [mpf(x) for x in prob["p"]]
    q = [mpf(x) for x in prob["q"]]
    if prob["definition"] == "standard":
        v = _discrete_xent(p, q, alpha)
    else:
        v = _discrete_div(p, q, alpha) + _discrete_ent(p, alpha)
    return value(v, alpha, REL_CLOSED, size=math.log(len(p)) + 1)


# ---------------------------------------------------------------------------
# densities as log-linear combinations of basis functions


class LogDensity:
    """ln f(x) = const + sum_b coef[b] * basis_b(x) on a support.

    support is "R", "R+" or "(0,1)"; basis names are "x", "x2", "logx",
    "log1mx" and "abs" (|x - anchor|).  ``moments`` gives E_f[basis_b].
    """

    def __init__(self, support, const, coef, moments, anchor=0.0):
        self.support, self.const, self.coef = support, const, coef
        self.moments, self.anchor = moments, mpf(anchor)


def log_density(family, params) -> LogDensity:
    ps = [mpf(x) for x in params]
    if family == "gaussian":
        mu, v = ps
        return LogDensity("R", -mu * mu / (2 * v) - mpmath.log(2 * mpmath.pi * v) / 2,
                          {"x2": -1 / (2 * v), "x": mu / v},
                          {"x": mu, "x2": mu * mu + v})
    if family == "exponential":
        (lam,) = ps
        return LogDensity("R+", mpmath.log(lam), {"x": -lam},
                          {"x": 1 / lam, "x2": 2 / lam ** 2,
                           "logx": -mpmath.euler - mpmath.log(lam)})
    if family == "gamma":
        k, th = ps
        return LogDensity("R+", -mpmath.loggamma(k) - k * mpmath.log(th),
                          {"logx": k - 1, "x": -1 / th},
                          {"x": k * th, "x2": k * (k + 1) * th ** 2,
                           "logx": mpmath.digamma(k) + mpmath.log(th)})
    if family == "chi2":
        (nu,) = ps
        h = nu / 2
        return LogDensity("R+", -h * mpmath.log(2) - mpmath.loggamma(h),
                          {"logx": h - 1, "x": mpf(-0.5)},
                          {"x": nu, "x2": nu * (nu + 2),
                           "logx": mpmath.digamma(h) + mpmath.log(2)})
    if family == "beta":
        a, b = ps
        return LogDensity("(0,1)", -mpmath.log(mpmath.beta(a, b)),
                          {"logx": a - 1, "log1mx": b - 1},
                          {"logx": mpmath.digamma(a) - mpmath.digamma(a + b),
                           "log1mx": mpmath.digamma(b) - mpmath.digamma(a + b),
                           "x": a / (a + b),
                           "x2": a * (a + 1) / ((a + b) * (a + b + 1))})
    if family == "laplace":
        mu, s = ps
        return LogDensity("R", -mpmath.log(2 * s), {"abs": -1 / s},
                          {"abs": s, "x": mu, "x2": mu * mu + 2 * s * s}, anchor=mu)
    if family == "uniform01":
        return LogDensity("(0,1)", mpf(0), {}, {"logx": mpf(-1), "log1mx": mpf(-1),
                                                 "x": mpf(0.5), "x2": mpf(1) / 3})
    if family == "half_normal":
        (v,) = ps
        return LogDensity("R+", mpmath.log(2) - mpmath.log(2 * mpmath.pi * v) / 2,
                          {"x2": -1 / (2 * v)}, {})
    raise ValueError(family)


def _log_integral(support, coef, anchor):
    """ln of the integral of exp(sum coef_b basis_b) over the support, or +inf."""
    c = {k: v for k, v in coef.items() if v != 0}
    keys = set(c)
    x, x2 = c.get("x", mpf(0)), c.get("x2", mpf(0))
    lx, l1 = c.get("logx", mpf(0)), c.get("log1mx", mpf(0))
    if support == "R":
        if keys <= {"x", "x2"}:
            if x2 >= 0:
                return mpmath.inf
            return mpmath.log(mpmath.pi / -x2) / 2 - x * x / (4 * x2)
        if keys == {"abs"}:
            return mpmath.inf if c["abs"] >= 0 else mpmath.log(2 / -c["abs"])
        # |x - mu| mixed with a quadratic: the quadratic decides existence
        if x2 > 0 or (x2 == 0 and c.get("abs", 0) >= 0):
            return mpmath.inf
        f = lambda t: mpmath.exp(c.get("abs", 0) * abs(t - anchor) + x * t + x2 * t * t)
        scale = 1 / mpmath.sqrt(-x2) if x2 < 0 else 1 / -c["abs"]
        return mpmath.log(mpmath.quad(f, [-mpmath.inf, anchor - 4 * scale, anchor,
                                          anchor + 4 * scale, mpmath.inf]))
    if support == "R+":
        if lx <= -1 or x2 > 0 or (x2 == 0 and x >= 0):
            return mpmath.inf
        if x2 == 0:
            return mpmath.loggamma(lx + 1) - (lx + 1) * mpmath.log(-x)
        f = lambda t: mpmath.exp(lx * mpmath.log(t) + x * t + x2 * t * t) if t > 0 else mpf(0)
        scale = 1 / mpmath.sqrt(-x2)
        return mpmath.log(mpmath.quad(f, [0, scale, 4 * scale, mpmath.inf]))
    if support == "(0,1)":
        if lx <= -1 or l1 <= -1:
            return mpmath.inf
        lb = mpmath.log(mpmath.beta(lx + 1, l1 + 1))
        if x2 == 0:
            if x == 0:
                return lb
            return lb + mpmath.log(mpmath.hyp1f1(lx + 1, lx + l1 + 2, x))
        f = lambda t: mpmath.exp(lx * mpmath.log(t) + l1 * mpmath.log1p(-t) + x * t + x2 * t * t)
        return mpmath.log(mpmath.quad(f, [0, 0.5, 1]))
    raise ValueError(support)


def cross_entropy(p: LogDensity, q: LogDensity, alpha):
    """Order-alpha cross-entropy of two log-linear densities on p's support."""
    if _is_one(alpha):
        total = q.const
        for b, c in q.coef.items():
            total += c * p.moments[b]
        return -total
    a = mpf(alpha)
    coef = dict(p.coef)
    for b, c in q.coef.items():
        coef[b] = coef.get(b, mpf(0)) + (a - 1) * c
    li = _log_integral(p.support, coef, p.anchor)
    if mpmath.isinf(li):
        return mpmath.inf if a < 1 else -mpmath.inf
    return (p.const + (a - 1) * q.const + li) / (1 - a)


def _mv(cov1, cov2, alpha):
    c1, c2 = mpmath.matrix(cov1), mpmath.matrix(cov2)
    d = c1.rows
    i1, i2 = mpmath.inverse(c1), mpmath.inverse(c2)
    ld1, ld2 = mpmath.log(mpmath.det(c1)), mpmath.log(mpmath.det(c2))
    l2pi = mpmath.log(2 * mpmath.pi)
    if _is_one(alpha):
        tr = mpmath.fsum((i2 * c1)[i, i] for i in range(d))
        return (d * l2pi + ld2 + tr) / 2
    a = mpf(alpha)
    s = i1 + (a - 1) * i2
    if min(mpmath.eigsy(s)[0]) <= 0:
        return mpmath.inf if a < 1 else -mpmath.inf
    # ln of the Gaussian integral of p q^(a-1)
    li = (-(d * l2pi + ld1) / 2 - (a - 1) * (d * l2pi + ld2) / 2
          + d * l2pi / 2 - mpmath.log(mpmath.det(s)) / 2)
    return li / (1 - a)


def expfam(prob, alpha):
    fam = prob["family"]
    if fam == "mvgauss":
        c1, c2 = np.array(prob["p"]), np.array(prob["q"])
        size = abs(np.linalg.slogdet(c1)[1]) + abs(np.linalg.slogdet(c2)[1]) + c1.shape[0]
        return value(_mv(prob["p"], prob["q"], alpha), alpha, REL_CLOSED, size)
    p, q = log_density(fam, prob["p"]), log_density(fam, prob["q"])
    v = cross_entropy(p, q, alpha)
    # the marker, the natural route for Beta / chi-squared (base-measure
    # expectation) and the natural Beta fallback all integrate numerically
    quad = _is_one(alpha) or (prob["route"] == "natural" and fam in ("beta", "chi2"))
    return value(v, alpha, REL_QUAD if quad else REL_CLOSED, _size(p, q))


def _size(p, q):
    return float(max(abs(p.const), abs(q.const)))


def special(prob, alpha):
    variant = prob["variant"]
    if variant == "q-uniform":
        return value(mpmath.log(mpf(prob["upper"]) - mpf(prob["lower"])), alpha, REL_CLOSED)
    if variant == "p-uniform":
        p, q = log_density("uniform01", []), log_density("beta", prob["q"])
        return value(cross_entropy(p, q, alpha), alpha, REL_CLOSED, _size(p, q))
    p = log_density(prob["p_family"], prob["p"])
    numeric_mgf = False
    if variant == "q-exponential":
        q = log_density("exponential", [prob["rate"]])
    elif variant == "q-gaussian":
        q = log_density("gaussian", [prob["mean"], prob["var"]])
        numeric_mgf = prob["p_family"] != "gaussian"
    else:
        q = log_density("half_normal", [prob["var"]])
        numeric_mgf = True
    v = cross_entropy(p, q, alpha)
    rel = REL_MGF_ONE if _is_one(alpha) else (REL_QUAD if numeric_mgf else REL_CLOSED)
    if mpmath.isinf(v):
        # outside the MGF finiteness interval the reducers document a typed
        # refusal; the divergence verdict is accepted as well
        return diverge_at(alpha, accept_error="MgfDomainError")
    return value(v, alpha, rel, _size(p, q))


# ---------------------------------------------------------------------------
# Markov sources


def _closure(mask):
    reach = mask | np.eye(mask.shape[0], dtype=bool)
    while True:
        nxt = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def classes(mask):
    """Strongly connected classes of a 0/1 pattern, with reachability."""
    reach = _closure(mask)
    k = mask.shape[0]
    label = [-1] * k
    out = []
    for i in range(k):
        if label[i] < 0:
            members = [j for j in range(k) if reach[i, j] and reach[j, i]]
            for j in members:
                label[j] = len(out)
            out.append(members)
    return out, reach


def _lu_solve(a, b):
    """Solve a x = b (mpf lists) by Gaussian elimination with pivoting."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / pv
            if f:
                row, top = m[r], m[c]
                for j in range(c, n + 1):
                    row[j] -= f * top[j]
    x = [mpf(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - mpmath.fsum(m[r][j] * x[j] for j in range(r + 1, n))) / m[r][r]
    return x


def perron_root(block):
    """Perron root of an irreducible nonnegative block (mpf lists)."""
    n = len(block)
    if n == 1:
        return block[0][0]
    w, vecs = np.linalg.eig(np.array([[float(x) for x in row] for row in block]))
    i = int(np.argmax(w.real))
    shift = mpf(float(w[i].real)) * (1 + mpf(10) ** -14)
    v = [mpf(abs(float(x))) + mpf(10) ** -30 for x in vecs[:, i].real]
    shifted = [[block[r][c] - (shift if r == c else 0) for c in range(n)] for r in range(n)]
    for _ in range(8):
        v = _lu_solve(shifted, v)
        top = max(abs(x) for x in v)
        v = [abs(x) / top for x in v]
        av = [mpmath.fsum(block[r][c] * v[c] for c in range(n)) for r in range(n)]
        ratios = [av[r] / v[r] for r in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= hi * mpf(10) ** -32:
            break
    return (lo + hi) / 2


def _weighted(prob, a):
    P = [[mpf(x) for x in row] for row in prob["P"]]
    Q = [[mpf(x) for x in row] for row in prob["Q"]]
    k = len(P)
    p0 = [mpf(x) for x in (prob["p_init"] or [1.0 / k] * k)]
    q0 = [mpf(x) for x in (prob["q_init"] or [1.0 / k] * k)]
    R = [[P[i][j] * mpmath.exp((a - 1) * mpmath.log(Q[i][j])) if Q[i][j] > 0 else mpf(0)
          for j in range(k)] for i in range(k)]
    s = [p0[i] * mpmath.exp((a - 1) * mpmath.log(q0[i])) if q0[i] > 0 else mpf(0)
         for i in range(k)]
    return R, s


def _has_zero_reference(prob):
    return (any(x == 0 for row in prob["Q"] for x in row)
            or any(x == 0 for x in (prob["q_init"] or [1.0])))


def markov_rate(prob, alpha):
    if _is_one(alpha):
        return value(markov_shannon(prob), alpha, REL_CLOSED)
    a = mpf(alpha)
    if a < 1 and _has_zero_reference(prob):
        return {"kind": "raise", "error": "ZeroMassError"}
    R, s = _weighted(prob, a)
    mask = np.array([[x > 0 for x in row] for row in R])
    cls, reach = classes(mask)
    start = [i for i, x in enumerate(s) if x > 0]
    best = mpf(0)
    for members in cls:
        if not any(reach[i, members[0]] for i in start):
            continue
        if len(members) == 1 and not mask[members[0], members[0]]:
            continue
        block = [[R[r][c] for c in members] for r in members]
        best = max(best, perron_root(block))
    return value(mpmath.log(best) / (1 - a), alpha, REL_CLOSED)


def _row_costs(prob):
    costs = []
    for prow, qrow in zip(prob["P"], prob["Q"]):
        if any(p > 0 and q == 0 for p, q in zip(prow, qrow)):
            costs.append(mpmath.inf)
        else:
            costs.append(-mpmath.fsum(mpf(p) * mpmath.log(mpf(q))
                                      for p, q in zip(prow, qrow) if p > 0))
    return costs


def markov_shannon(prob):
    """Shannon rate: stationary row costs of the reachable closed classes,
    weighted by the probability of absorption into each."""
    P = [[mpf(x) for x in row] for row in prob["P"]]
    k = len(P)
    p0 = [mpf(x) for x in (prob["p_init"] or [1.0 / k] * k)]
    mask = np.array(prob["P"]) > 0
    cls, reach = classes(mask)
    costs = _row_costs(prob)
    start = [i for i in range(k) if p0[i] > 0]
    visited = [j for j in range(k) if any(reach[i, j] for i in start)]
    if any(mpmath.isinf(costs[j]) for j in visited):
        return mpmath.inf
    closed = [c for c in cls
              if not any(mask[i, j] for i in c for j in set(range(k)) - set(c))]
    in_closed = {i for c in closed for i in c}
    trans = [i for i in range(k) if i not in in_closed]
    total = mpf(0)
    for c in closed:
        weight = mpmath.fsum(p0[i] for i in c)
        if trans:
            a = [[(1 if r == cc else 0) - P[r][cc] for cc in trans] for r in trans]
            b = [mpmath.fsum(P[r][j] for j in c) for r in trans]
            h = _lu_solve(a, b)
            weight += mpmath.fsum(p0[r] * h[n] for n, r in enumerate(trans))
        if weight == 0:
            continue
        # stationary law of the class: pi (P_cc - I) = 0, sum pi = 1
        m = len(c)
        a = [[P[c[j]][c[i]] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
        a[-1] = [mpf(1)] * m
        pi = _lu_solve(a, [mpf(0)] * (m - 1) + [mpf(1)])
        total += weight * mpmath.fsum(pi[i] * costs[c[i]] for i in range(m))
    return total


def _matpow_vec(s, R, n):
    """s R^n as a row vector, by squaring."""
    k = len(R)
    vec, base = s[:], [row[:] for row in R]
    while n:
        if n & 1:
            vec = [mpmath.fsum(vec[i] * base[i][j] for i in range(k)) for j in range(k)]
        n >>= 1
        if n:
            base = [[mpmath.fsum(base[i][l] * base[l][j] for l in range(k)) for j in range(k)]
                    for i in range(k)]
    return vec


def markov_finite_n(prob, alpha, n):
    a = mpf(alpha)
    if a < 1 and _has_zero_reference(prob):
        return {"kind": "raise", "error": "ZeroMassError"}
    R, s = _weighted(prob, a)
    total = mpmath.fsum(_matpow_vec(s, R, n - 1))
    if total == 0:
        return diverge(1)
    return value(mpmath.log(total) / (n * (1 - a)), alpha, REL_FINITE_N)


def markov_slope(prob, n):
    P = [[mpf(x) for x in row] for row in prob["P"]]
    k = len(P)
    p0 = [mpf(x) for x in (prob["p_init"] or [1.0 / k] * k)]
    if any(p > 0 and q == 0 for pr, qr in zip(prob["P"], prob["Q"]) for p, q in zip(pr, qr)):
        return diverge(1)
    mu = _matpow_vec(p0, P, n - 2)
    return value(mpmath.fsum(m * c for m, c in zip(mu, _row_costs(prob))), "1", REL_FINITE_N)


# ---------------------------------------------------------------------------
# Gaussian processes


def _rational(proc):
    """(N, D): symmetric Laurent coefficients (lags 0..m) with psd = N / D."""
    if proc["kind"] == "white":
        return [mpf(proc["var"])], [mpf(1)]
    if proc["kind"] == "ar1":
        rho, v = mpf(proc["rho"]), mpf(proc["var"])
        return [v * (1 - rho * rho)], [1 + rho * rho, -rho]
    return [mpf(x) for x in proc["r"]], [mpf(1)]


def _full(t):
    return t[:0:-1] + t


def _sym_mul(a, b):
    fa, fb = _full(a), _full(b)
    out = [mpf(0)] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            out[i + j] += x * y
    m = (len(out) - 1) // 2
    return out[m:]


def _sym_add(a, b, cb=1):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + cb * (b[i] if i < len(b) else 0) for i in range(n)]


def jensen(t):
    """(1/2pi) integral of ln T(e^{iw}) for a positive symmetric Laurent polynomial."""
    while len(t) > 1 and t[-1] == 0:
        t = t[:-1]
    if len(t) == 1:
        return mpmath.log(t[0])
    coeffs = _full(t)
    roots = np.roots(np.array([float(c) for c in coeffs]))
    total = mpmath.log(abs(t[-1]))
    for z0 in roots:
        z = mpmath.mpc(z0.real, z0.imag)
        for _ in range(80):
            pz, dz = mpmath.mpc(0), mpmath.mpc(0)
            for c in coeffs:
                dz = dz * z + pz
                pz = pz * z + c
            if dz == 0:
                break
            step = pz / dz
            z -= step
            if abs(step) <= abs(z) * mpf(10) ** -34:
                break
        if abs(z) > 1:
            total += mpmath.log(abs(z))
    return total


def _min_on_circle(t):
    w = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
    tf = [float(x) for x in t]
    vals = tf[0] + 2.0 * sum(c * np.cos(k * w) for k, c in enumerate(tf) if k > 0)
    return float(np.min(vals)), float(np.max(np.abs(vals)))


def _first_lags(proc):
    """Autocovariance at lags 0 and 1."""
    if proc["kind"] == "white":
        return mpf(proc["var"]), mpf(0)
    if proc["kind"] == "ar1":
        return mpf(proc["var"]), mpf(proc["var"]) * mpf(proc["rho"])
    r = [mpf(x) for x in proc["r"]] + [mpf(0)]
    return r[0], r[1]


def gauss_rate(prob, alpha):
    nf, df = _rational(prob["x"])
    ng, dg = _rational(prob["y"])
    half_l2pi = mpmath.log(2 * mpmath.pi) / 2
    mean_ln_g = jensen(ng) - jensen(dg)
    if _is_one(alpha):
        # (1/2) ln 2pi + (1/4pi) integral (ln g + f/g); with g = N/D and a
        # constant N, the mean of f/g is (d0 r0 + 2 d1 r1) / N
        if len(ng) != 1:
            raise NotImplementedError("Shannon reference needs a white or AR(1) reference")
        r0, r1 = _first_lags(prob["x"])
        mean_f_over_g = (dg[0] * r0 + (2 * dg[1] * r1 if len(dg) > 1 else 0)) / ng[0]
        return value(half_l2pi + (mean_ln_g + mean_f_over_g) / 2, alpha, REL_SPECTRAL)
    a = mpf(alpha)
    th = _sym_add(_sym_mul(ng, df), _sym_mul(nf, dg), a - 1)
    lo, scale = _min_on_circle(th)
    if a < 1 and lo < -1e-13 * scale:
        return diverge(1)
    mean_ln_h = jensen(th) - jensen(dg) - jensen(df)
    v = half_l2pi + ((2 - a) * mean_ln_g - mean_ln_h) / (2 * (1 - a))
    return value(v, alpha, REL_SPECTRAL, abs(mean_ln_g) + abs(mean_ln_h))


def _tridiag_logdet(diag, off):
    """ln det and positive-definiteness of a symmetric tridiagonal matrix."""
    d = diag[0]
    if d <= 0:
        return None
    total = mpmath.log(d)
    for k in range(1, len(diag)):
        d = diag[k] - off[k - 1] ** 2 / d
        if d <= 0:
            return None
        total += mpmath.log(d)
    return total


def _inverse_tridiag(proc, n):
    """Tridiagonal inverse covariance and ln det of white noise / AR(1)."""
    v = mpf(proc["var"])
    if proc["kind"] == "white":
        return [1 / v] * n, [mpf(0)] * (n - 1), n * mpmath.log(v)
    rho = mpf(proc["rho"])
    c0 = 1 / (v * (1 - rho * rho))
    diag = [c0] + [c0 * (1 + rho * rho)] * (n - 2) + [c0] if n > 1 else [1 / v]
    return diag, [-c0 * rho] * (n - 1), n * mpmath.log(v) + (n - 1) * mpmath.log(1 - rho * rho)


def _banded_logdet(r, n):
    """ln det of the n x n symmetric banded Toeplitz matrix with first row r
    (zero beyond len(r)), by banded LDL; None if not positive definite."""
    m = len(r) - 1
    L, d = [], []
    total = mpf(0)
    for i in range(n):
        lo = max(0, i - m)
        li = {}
        for j in range(lo, i):
            s, lj = r[i - j], L[j]
            for k in range(max(lo, j - m), j):
                s -= li[k] * lj[k] * d[k]
            li[j] = s / d[j]
        di = r[0] - mpmath.fsum(li[j] ** 2 * d[j] for j in li)
        if di <= 0:
            return None
        L.append(li)
        d.append(di)
        total += mpmath.log(di)
    return total


def gauss_finite_n(prob, alpha, n):
    """Finite-n oracle value from the untruncated autocovariance."""
    a = mpf(alpha)
    x, y = prob["x"], prob["y"]
    if x["kind"] != "acov" and y["kind"] != "acov":
        dx, ox, ldx = _inverse_tridiag(x, n)
        dy, oy, ldy = _inverse_tridiag(y, n)
        m = _tridiag_logdet([p + (a - 1) * q for p, q in zip(dx, dy)],
                            [p + (a - 1) * q for p, q in zip(ox, oy)])
        if m is None:
            return diverge(1)
        ldb = ldx + ldy + m
    else:
        ry = _rational(y)[0] if y["kind"] != "ar1" else None
        rx = _rational(x)[0] if x["kind"] != "ar1" else None
        if rx is None or ry is None:
            raise NotImplementedError("finite-n reference pairs an AR(1) only with white/AR(1)")
        ldy = _banded_logdet(ry, n)
        ldb = _banded_logdet(_sym_add(ry, rx, a - 1), n)
        if ldb is None:
            return diverge(1)
    v = mpmath.log(2 * mpmath.pi) / 2 + ((2 - a) * ldy - ldb) / (2 * n * (1 - a))
    return value(v, alpha, REL_FINITE_N)


# ---------------------------------------------------------------------------
# dispatch

_VALUE = {"discrete": discrete, "expfam": expfam, "special": special,
          "markov": markov_rate, "gauss": gauss_rate}


def expect_value(prob, alpha):
    """Expected outcome of evaluating ``prob`` at ``alpha``."""
    return _VALUE[prob["target"]](prob, alpha)


def expect_oracle(prob, alpha, finite_n):
    """Expected oracle value printed by the CLI's --oracle for ``prob``."""
    t = prob["target"]
    if t == "markov":
        n = finite_n or 4000
        if _is_one(alpha):
            return markov_slope(prob, max(2, n))
        return markov_finite_n(prob, alpha, n)
    if t == "gauss":
        return gauss_finite_n(prob, alpha, finite_n or 2048)
    exp = expect_value(prob, alpha)
    if exp["kind"] != "value":
        return exp
    rel = REL_GRID2D if prob.get("family") == "mvgauss" else REL_QUAD
    if t == "discrete":
        rel = REL_CLOSED
    return {**exp, "tol": tolerance(alpha, exp["v"], rel)}
