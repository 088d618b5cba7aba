"""Closed forms beyond the statevector cap against 50-digit mpmath references.

`verify` checks the closed forms against the oracle for n <= 10 only; here
each fast closed form is compared, at sampled n up to the float-safe bound,
with the measure evaluated in mpmath on the search state itself: a on each
solution (over sqrt j), b elsewhere. The working precision is 50 digits plus
the 2 n log10(2) digits that the references' own cancellations can cost
(1 - Tr rho^2 and the Wootters eigenvalues when the values are ~ 2^-n).
The phi sweep's closed forms are compared the same way, with the family's
average-amplitude dynamics evaluated in mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp

from groverlab.bruteforce import MEASURES
from groverlab.gga import PhiFamily, phi_family_delta_coherence, phi_family_optimal_time
from groverlab.grover import GroverConfig, state_at

R_VALUES = (0, 1, 2, 100)
# |closed - reference| <= RTOL |reference| + ATOL[measure]. The largest
# relative error measured over these cases is 8.7e-16 (cl1); the absolute
# floors cover the cases a relative bound cannot:
# - p: 1.2e-18 at n = 13, j = 2, r = 100, where sin^2 of the accumulated
#   angle is 7e-7 and the double angle's rounding is 1.6e-12 of it;
# - en: the reference takes the square root of its own rounding where the
#   value is 0 (r = 0); 9.6e-35 was seen at n = 13;
# dn has none: its closed form takes the small eigenvalue of rho_1 without
# cancellation, and its reference is exactly 0 at r = 0 (see `reference`).
# d2 has none either, as its values reach 1e-307 (n = 1022, r = 1), but one
# case gets its own floor: at n = 13, j = 2, r = 100 it is off by 1.55e-17
# (8.3e-14 of the value). There alpha_r lies 8.4e-4 below pi and carries a
# rounding of 6.9e-16, so a = sin(alpha_r) keeps 8.2e-13 relative error and
# c = a - sqrt(2) b 4.2e-14, which d2 ~ c^2 doubles: the state's error, as in
# p's floor, not the closed form's.
RTOL = 1e-14
ATOL = {"p": 1e-17, "cr": 0.0, "cl1": 0.0, "e2": 0.0, "en": 1e-30, "dn": 0.0, "m": 0.0, "d2": 0.0}
CASE_ATOL = {("d2", 13, 2, 100): 3e-17}
PAIR_MEASURES = ("p", "cr", "cl1", "e2", "en", "dn", "m")
# the solution counts whose d2 closed form is checked here: j = 2^k
D2_SOLUTIONS = (1, 2)

_YY = [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
_PAULIS = (
    mpmath.matrix([[0, 1], [1, 0]]),
    mpmath.matrix([[0, -1j], [1j, 0]]),
    mpmath.matrix([[1, 0], [0, -1]]),
)


def _xlog2(x, y):
    return x * mp.log(y, 2) if x else mp.mpf(0)


def _kron(p, q):
    return mpmath.matrix(
        [[p[i // 2, k // 2] * q[i % 2, k % 2] for k in range(4)] for i in range(4)]
    )


def _reduced_entries(n, b, c, k, j=1):
    """(rho[0,0], rho[0,y != 0], rho[x != 0, y != 0]) of the reduction to k of the first n - log2 j qubits.

    rho[x, y] = sum_z psi(xz) psi(yz) with psi = b + (c / sqrt j) [index < j]:
    for x = 0 the j solutions are the rest z whose first n - log2 j - k bits are 0.
    """
    d = mp.mpf(2) ** (n - k)
    return d * b**2 + 2 * mp.sqrt(j) * b * c + c**2, d * b**2 + mp.sqrt(j) * b * c, d * b**2


def _reduced(n, b, c, k, j=1):
    corner, edge, bulk = _reduced_entries(n, b, c, k, j)
    size = 1 << k
    m = mpmath.matrix(size, size)
    for x in range(size):
        for y in range(size):
            m[x, y] = corner if x == y == 0 else edge if x == 0 or y == 0 else bulk
    return m


def _entropy(m):
    """Von Neumann entropy of a symmetric mpmath matrix of unit trace.

    eigsy leaves its rounding, about mp.eps, on every eigenvalue: the ones
    below 1024 eps are taken as 0, and the largest as 1 less the others, so
    a pure state's entropy is exactly 0. The smallest nonzero eigenvalue
    sampled here is about 1e-308 (n = 1022, r = 1), at a working precision
    of 666 digits.
    """
    rest = [x for x in sorted(mp.eigsy(m, eigvals_only=True))[:-1] if x > 1024 * mp.eps]
    return -sum(_xlog2(x, x) for x in rest) - _xlog2(1 - sum(rest), 1 - sum(rest))


def _concurrence(rho2):
    """Wootters' concurrence of a real two-qubit state, from the spectrum of rho (yy rho yy)."""
    yy = mpmath.matrix(_YY)
    spin_flip = mp.eig(rho2 * (yy * rho2 * yy), left=False, right=False)
    lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in spin_flip), reverse=True)
    return max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


def _pairwise_discord(n, j, b, c):
    """D(A|B) of qubits 0 and 1 for j = 2^k: S(B) - S(AB) + E_F(rho_AR) (Koashi and Winter).

    The first z = n - k qubits hold beta |+>^z + c |0>^z, beta = sqrt(N) b.
    R, the other z - 2 of them, is spanned by its two states, which overlap
    by o = 2^(-(z-2)/2): in the basis |0>^(z-2) and its orthogonal partner it
    is one qubit, so rho_AR is a two-qubit state whose entanglement of
    formation comes from Wootters' concurrence.
    """
    z = n - (j.bit_length() - 1)
    beta, o = mp.sqrt(mp.mpf(2) ** n) * b, mp.mpf(2) ** (-mp.mpf(z - 2) / 2)
    plus, zero = mpmath.matrix([1, 1]) / mp.sqrt(2), mpmath.matrix([1, 0])
    psi = mpmath.matrix(8, 1)  # A, B, R, R as the last bit
    for i in range(8):
        a_, b_, r_ = i >> 2, (i >> 1) & 1, i & 1
        psi[i] = beta * plus[a_] * plus[b_] * (o, mp.sqrt(1 - o**2))[r_] + c * zero[a_] * zero[b_] * (1, 0)[r_]
    rho_ar = mpmath.matrix(4, 4)
    for x in range(4):
        for y in range(4):
            # B, the middle bit of psi's index, traced out
            rho_ar[x, y] = sum(
                psi[(x >> 1) * 4 + k * 2 + (x & 1)] * psi[(y >> 1) * 4 + k * 2 + (y & 1)] for k in (0, 1)
            )
    small = (1 - mp.sqrt(1 - _concurrence(rho_ar) ** 2)) / 2
    e_f = -_xlog2(small, small) - _xlog2(1 - small, 1 - small)
    return _entropy(_reduced(n, b, c, 1, j)) - _entropy(_reduced(n, b, c, 2, j)) + e_f


def reference(n, j, r):
    """Each measure of the j-solution search state after r steps, in mpmath.

    The gap c = a - sqrt(j) b is taken as sqrt(N/(N-j)) sin(r alpha), not as
    the difference, so the product state at r = 0 has c = 0 exactly.
    """
    N = mp.mpf(2) ** n
    alpha = 2 * mp.atan(mp.sqrt(j / (N - j)))
    alpha_r = (r + mp.mpf(1) / 2) * alpha
    a, b = mp.sin(alpha_r), mp.cos(alpha_r) / mp.sqrt(N - j)
    p = a**2
    out = {
        "p": p,
        "cr": -_xlog2(p, p / j) - _xlog2(1 - p, (1 - p) / (N - j)),
        # sum_{x != y} |psi_x| |psi_y| = (sum |psi_x|)^2 - 1
        "cl1": (math.sqrt(j) * abs(a) + (N - j) * abs(b)) ** 2 - 1,
    }
    c = mp.sqrt(N / (N - j)) * mp.sin(r * alpha)
    if j in D2_SOLUTIONS:
        out["d2"] = _pairwise_discord(n, j, b, c)
    if j != 1:
        return out
    rho2 = _reduced(n, b, c, 2)
    out["e2"] = _concurrence(rho2)
    deficits = 0
    for k in range(1, n):
        corner, edge, bulk = _reduced_entries(n, b, c, k)
        rest = mp.mpf(2) ** k - 1
        deficits += mp.binomial(n, k) * (1 - corner**2 - 2 * rest * edge**2 - rest**2 * bulk**2)
    out["en"] = 2 / mp.sqrt(N) * mp.sqrt(deficits)
    # the 2 x 2 spectrum of rho_1 as det/big and big, so the small eigenvalue
    # keeps its relative digits, over the trace, which is 1 up to rounding
    corner, edge, bulk = _reduced_entries(n, b, c, 1)
    trace, det = corner + bulk, corner * bulk - edge**2
    big = (trace + mp.sqrt((corner - bulk) ** 2 + 4 * edge**2)) / 2
    out["dn"] = -sum(_xlog2(x, x) for x in (det / big / trace, big / trace))
    t = mpmath.matrix(3, 3)
    for i, s in enumerate(_PAULIS):
        for k, q in enumerate(_PAULIS):
            prod = rho2 * _kron(s, q)
            t[i, k] = mp.re(sum(prod[d, d] for d in range(4)))
    top = sorted(mp.eigsy(t.T * t, eigvals_only=True))
    out["m"] = top[-1] + top[-2]
    return out


@pytest.mark.parametrize("n", (13, 64, 300, 1022))
@pytest.mark.parametrize("j", (1, 2, 3))
def test_closed_forms_match_high_precision_reference(n, j):
    cfg = GroverConfig(n=n, j=j)
    st = state_at(cfg, np.array(R_VALUES))
    keys = (PAIR_MEASURES if j == 1 else ("p", "cr", "cl1")) + (("d2",) if j in D2_SOLUTIONS else ())
    closed = {k: np.asarray(MEASURES[k].closed_form(cfg, st, None), dtype=float) for k in keys}
    with mp.workdps(50 + 2 * math.ceil(n * math.log10(2))):
        for i, r in enumerate(R_VALUES):
            ref = reference(n, j, r)
            for k in keys:
                error = abs(mp.mpf(closed[k][i]) - ref[k])
                bound = RTOL * abs(ref[k]) + CASE_ATOL.get((k, n, j, r), ATOL[k])
                assert error <= bound, f"{k} at n={n}, j={j}, r={r}: {closed[k][i]!r} vs {ref[k]}"


def phi_reference(n, phi0):
    """(r_opt, delta_cr) of the phi family at phi0, from the average dynamics in mpmath.

    The start has the averages kbar = (phi0 + phi1)/2 over the two solutions
    and lbar = 1/sqrt(N) elsewhere, with phi1 = sqrt(2/N - phi0^2). They turn
    at omega = 2 asin sqrt(2/N) per step from the phase beta; at the peak
    t = (pi/2 - beta)/omega, lbar is 0, kbar is C/sqrt(2) with
    C^2 = 2 kbar^2 + (N - 2) lbar^2, and each solution keeps its deviation
    from kbar. delta_cr is the start's Shannon entropy minus the peak's.
    """
    N = mp.mpf(2) ** n
    phi = (mp.mpf(phi0), mp.sqrt(2 / N - mp.mpf(phi0) ** 2))
    kbar, lbar = (phi[0] + phi[1]) / 2, 1 / mp.sqrt(N)
    omega = 2 * mp.asin(mp.sqrt(2 / N))
    beta = mp.atan2(mp.sqrt(2) * kbar, mp.sqrt(N - 2) * lbar)
    peak = mp.sqrt(2 * kbar**2 + (N - 2) * lbar**2) / mp.sqrt(2)
    start = -sum(_xlog2(x**2, x**2) for x in phi) - (N - 2) * _xlog2(lbar**2, lbar**2)
    end = -sum(_xlog2((peak + x - kbar) ** 2, (peak + x - kbar) ** 2) for x in phi)
    return (mp.pi / 2 - beta) / omega, start - end


@pytest.mark.parametrize("n", (64, 300, 1022))
def test_phi_sweep_matches_high_precision_reference(n):
    # at n = 1022 every phi0^2 below 2^-1022 is subnormal. The largest relative
    # errors measured here: 2.6e-16 (r_opt, n = 64) and 7.6e-22 (delta_cr)
    N = 1 << n
    points = np.linspace(0.0, 1.0 / math.sqrt(N), 50)
    fam = PhiFamily.from_phi0(N, points)  # the array call the sweep makes
    got = zip(phi_family_optimal_time(fam).tolist(), phi_family_delta_coherence(fam).tolist())
    with mp.workdps(50):
        for phi0, values in zip(points.tolist(), got):
            ref = phi_reference(n, phi0)
            for name, value, want in zip(("r_opt", "delta_cr"), values, ref):
                error = abs(mp.mpf(value) - want)
                assert error <= RTOL * abs(want), f"{name} at n={n}, phi0={phi0!r}: {value!r} vs {want}"
