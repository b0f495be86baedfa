"""Independent oracles that the tests compare the library against.

They compute the same objects as the library by other means: free
energies by dense eigenvalues and finite-chain transfer sums over the
states 0..128, state sums over a truncated grid, order-statistic product
moments as exact rationals over the full exponent vector, exact field
means summed window by window from those moments, the coefficients of
h, h' and V of a polynomial g as exact rationals, and duality
polynomials and their expectations from a sparse dual configuration,
polynomial local functions by Horner's rule written out of place, and
annealed free energies by Monte Carlo over the library's own sampler.
None of them is reached by the program itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from geomix.core import BoundaryParams, LocalFunction, RandomSeed
from geomix.fields import phi_one
from geomix.harness import _field_chunk, _map_chunks
from geomix.moments import theta_product_moment

# the free-energy oracles drop the states n > 128; at theta <= 2 the
# dropped mass (theta/(1+theta))**129 is below 1e-22
M_STATE = 128
_MAX_DUAL_MASS = 20


def geometric_tables(thetas, m: int) -> tuple[np.ndarray, np.ndarray]:
    """nu_theta(n) and its theta-derivative on n = 0..m, one row per theta,
    with the tail n > m dropped.

    d nu_theta(n)/d theta = (1-p)^2 (n p^{n-1} - (n+1) p^n), written as
    (1-p) (n nu(n-1) - (n+1) nu(n)) so that it stays finite at theta = 0.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    p = thetas / (1.0 + thetas)
    n = np.arange(m + 1)
    w = p[:, None] ** n[None, :] * (1.0 - p)[:, None]
    prev = np.zeros_like(w)
    prev[:, 1:] = w[:, :-1]
    return w, (1.0 - p)[:, None] * (n * prev - (n + 1) * w)


def truncated_grid(g: LocalFunction, m: int) -> np.ndarray:
    """g on the state grid [0, m]^k."""
    axes = np.meshgrid(*([np.arange(m + 1)] * g.k), indexing="ij")
    return np.broadcast_to(np.asarray(g(*axes), dtype=float), axes[0].shape)


def horner_polynomial(monomials: Mapping[tuple[int, ...], float], *window) -> np.ndarray:
    """sum_m c_m * prod_j eta_j^{m_j} by Horner's rule one site at a time,
    out of place: a polynomial in its first site that occurs, from the top
    degree down, acc = acc * eta + (coefficient of the next degree), each
    coefficient a polynomial in the later sites taken the same way, and a
    zero coefficient adding nothing."""
    window = [np.asarray(x, dtype=float) for x in window]
    terms = {e: c for e, c in monomials.items() if c != 0.0}
    sites = [j for j in range(len(window)) if any(e[j] for e in terms)]
    if not sites:
        return np.broadcast_to(sum(terms.values(), 0.0), np.broadcast(*window).shape).copy()
    j = sites[0]

    def coefficient(d: int) -> dict:
        return {e[:j] + (0,) + e[j + 1 :]: c for e, c in terms.items() if e[j] == d}

    top = max(e[j] for e in terms)
    acc = horner_polynomial(coefficient(top), *window)
    for d in range(top - 1, -1, -1):
        acc = acc * window[j]
        if coefficient(d):
            acc = acc + horner_polynomial(coefficient(d), *window)
    return acc


def annealed_mc_estimate(
    g: LocalFunction,
    lam: float,
    n_sites: int,
    bounds: BoundaryParams,
    replicas: int,
    seed: RandomSeed,
    workers: int = 1,
) -> tuple[float, float]:
    """(1/N) log E[exp(lam * N * field with phi = 1)] over steady-state
    replicas, with a delta-method standard error for the (1/N) log.

    Equal reservoirs, BoundaryParams(theta, theta), give the homogeneous
    geometric product at theta.  The replicas are the field runs' own, drawn
    in the library's chunks and row blocks."""

    def fn(streams, count):
        return lam * n_sites * _field_chunk(streams, count, n_sites, bounds, g, phi_one())

    exponents = np.concatenate(_map_chunks([(fn, n_sites)], replicas, seed, workers)[0])
    shift = float(exponents.max())
    scaled = np.exp(exponents - shift)
    mean = float(scaled.mean())
    se_log = float(scaled.std(ddof=1) / (mean * math.sqrt(scaled.size)))
    return (shift + math.log(mean)) / n_sites, se_log / n_sites


def free_energy_transfer(theta: float, lam: float, g: LocalFunction) -> float:
    """Free energy of g with k <= 2 as the log of the largest eigenvalue of
    the dense transfer matrix K(a, b) = nu_theta(b) exp(lam g(a, b)) on the
    states 0..128; a single-site g is lifted to g(a)."""
    if g.k > 2:
        raise ValueError("the dense transfer oracle covers k <= 2")
    grid = truncated_grid(g, M_STATE)
    if g.k == 1:
        grid = np.broadcast_to(grid[:, None], (M_STATE + 1,) * 2)
    kernel = np.exp(lam * grid) * geometric_tables(theta, M_STATE)[0]
    return math.log(float(np.max(np.linalg.eigvals(kernel).real)))


def free_energy_finite_chain(theta: float, lam: float, g: LocalFunction, n_sites: int) -> float:
    """Exact (1/N) log E[exp(lam * sum of shifted g)] on a chain of N sites,
    for k >= 2, over the states 0..128.

    Repeated application of the transfer kernel (with running
    renormalization) against the window marginal; its large-N limit is
    the free energy.
    """
    k = g.k
    if k < 2 or n_sites < k:
        raise ValueError(f"need 2 <= k <= N, got k={k}, N={n_sites}")
    w = geometric_tables(theta, M_STATE)[0][0]
    t = np.exp(lam * truncated_grid(g, M_STATE)) * w
    letters = string.ascii_lowercase[:k]
    sub = f"{letters},{letters[1:]}->{letters[:-1]}"
    v = np.ones((M_STATE + 1,) * (k - 1))
    log_total = 0.0
    for _ in range(n_sites - k + 1):
        v = np.einsum(sub, t, v)
        norm = float(v.sum())
        log_total += math.log(norm)
        v /= norm
    marginal = w
    for _ in range(k - 2):
        marginal = np.multiply.outer(marginal, w)
    return (log_total + math.log(float(np.sum(marginal * v)))) / n_sites


def uniform_orderstat_product_moment_exact(n: int, exps: Sequence[int]) -> Fraction:
    """E[ prod_j U_{j:N}^{alpha_j} ] for the order statistics of n uniforms,
    as the exact rational N! * prod_j 1/(S_j + j), with S_j the partial
    sums of the n exponents ``exps``."""
    if len(exps) != n:
        raise ValueError(f"exponent vector has length {len(exps)}, expected {n}")
    value = Fraction(math.factorial(n))
    s = 0
    for j, a in enumerate(exps, start=1):
        s += int(a)
        value /= s + j
    return value


def field_mean_exact(
    g: LocalFunction, phi_coefficients: Sequence[float], n: int, bounds: BoundaryParams
) -> Fraction:
    """(1/N) sum_s phi((s-1)/(N+1)) E[g(window s)] over the starts
    s = 1..N-k+1 as an exact rational, window by window: each monomial's
    E[eta^p | theta] expanded over its raw-moment coefficients, each
    Theta = theta_left + width * U expanded binomially with the bounds as
    the exact rationals of their doubles, and each uniform exponent vector
    taken over all N sites by the exact product-moment identity."""
    lo = Fraction(bounds.theta_left)
    width = Fraction(bounds.theta_right) - lo
    total = Fraction(0)
    for start in range(1, n - g.k + 2):
        x = Fraction(start - 1, n + 1)
        weight = sum(Fraction(c) * x**d for d, c in enumerate(phi_coefficients))
        mean = Fraction(0)
        for exps, coef in g.monomials.items():
            per_site = [[math.factorial(j) * _stirling2(e, j) for j in range(e + 1)] for e in exps]
            for qs in itertools.product(*(range(e + 1) for e in exps)):
                c = Fraction(coef) * math.prod(row[q] for row, q in zip(per_site, qs))
                for ls in itertools.product(*(range(q + 1) for q in qs)):
                    term = c
                    for q, l in zip(qs, ls):
                        term *= math.comb(q, l) * lo ** (q - l) * width**l
                    if term:
                        mean += term * _uniform_window_moment(n, start, ls)
        total += weight * mean
    return total / n


def homogeneous_layer_exact(g: LocalFunction) -> tuple[list[Fraction], ...]:
    """Coefficients in rho, lowest degree first, of h, h' and V of a
    polynomial g as exact rationals: each monomial's mean is the product
    over its sites of E[eta^e] = sum_j S(e, j) j! rho^j, multiplied out as
    polynomials, and V sums over the 2k-1 shifts m the covariance of g on
    the reference window k..2k-1 with g on m..m+k-1, whose shared sites
    add their exponents."""

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            out[i + j] += x * y
        return out

    def mean(monomials):
        out = [Fraction(0)]
        for exps, coef in monomials:
            term = [Fraction(coef)]
            for e in exps:
                term = mul(term, [math.factorial(j) * _stirling2(e, j) for j in range(e + 1)])
            out = [a + b for a, b in itertools.zip_longest(out, term, fillvalue=0)]
        return out

    k, monomials = g.k, [(exps, Fraction(c)) for exps, c in g.monomials.items()]
    h = mean(monomials)
    v = [Fraction(0)]
    for m in range(1, 2 * k):
        pairs = []
        for (ref, a), (mov, b) in itertools.product(monomials, repeat=2):
            exps = [0] * (3 * k - 2)
            for j in range(k):
                exps[k - 1 + j] += ref[j]
                exps[m - 1 + j] += mov[j]
            pairs.append((exps, a * b))
        cov = [a - b for a, b in itertools.zip_longest(mean(pairs), mul(h, h), fillvalue=0)]
        v = [a + b for a, b in itertools.zip_longest(v, cov, fillvalue=0)]
    return h, [j * c for j, c in enumerate(h)][1:] or [Fraction(0)], v


@functools.lru_cache(maxsize=2**16)
def _uniform_window_moment(n: int, start: int, exps: tuple[int, ...]) -> Fraction:
    full = [0] * n
    full[start - 1 : start - 1 + len(exps)] = exps
    return uniform_orderstat_product_moment_exact(n, full)


def _stirling2(p: int, j: int) -> int:
    """S(p, j) from the explicit alternating sum."""
    return sum((-1) ** i * math.comb(j, i) * (j - i) ** p for i in range(j + 1)) // math.factorial(j)


@dataclass(frozen=True)
class DualConfiguration:
    """Sparse dual configuration: 1-based site -> particle multiplicity."""

    multiplicities: Mapping[int, int]

    def __post_init__(self) -> None:
        cleaned = {
            int(site): int(mult)
            for site, mult in self.multiplicities.items()
            if int(mult) != 0
        }
        object.__setattr__(self, "multiplicities", cleaned)
        for site, mult in cleaned.items():
            if site < 1:
                raise ValueError(f"dual sites are 1-based, got {site}")
            if mult < 0:
                raise ValueError(f"multiplicities must be >= 0, got {mult}")
        if self.total_mass > _MAX_DUAL_MASS:
            raise ValueError(
                f"dual mass {self.total_mass} exceeds the supported cap {_MAX_DUAL_MASS}"
            )

    @property
    def total_mass(self) -> int:
        return sum(self.multiplicities.values())

    @property
    def max_site(self) -> int:
        return max(self.multiplicities, default=0)


def duality_polynomial_batch(occupations: np.ndarray, xi: DualConfiguration) -> np.ndarray:
    """Duality polynomial prod_i C(eta_i, xi_i) over the support of xi, per
    row of a (replicas, N) occupation batch; 0 where any eta_i < xi_i."""
    occ = np.asarray(occupations)
    if xi.max_site > occ.shape[-1]:
        raise ValueError("dual support exceeds the configuration length")
    out = np.ones(occ.shape[0])
    for site, mult in xi.multiplicities.items():
        n = occ[:, site - 1].astype(float)
        term = np.ones_like(n)
        for j in range(mult):
            term *= n - j
        out *= np.maximum(term, 0.0) / math.factorial(mult)
    return out


def duality_expectation(xi: DualConfiguration, n_sites: int, bounds: BoundaryParams) -> float:
    """Exact steady-state expectation of the duality polynomial:
    E[prod_i Theta_i^{xi_i}], an order-statistic product moment."""
    if xi.max_site > n_sites:
        raise ValueError("dual support exceeds the chain length")
    if not xi.multiplicities:
        return 1.0
    start = min(xi.multiplicities)
    exps = [xi.multiplicities.get(site, 0) for site in range(start, xi.max_site + 1)]
    return theta_product_moment(start, exps, n_sites, bounds)
