"""The Bethe channels' full-line integrals by exact residue algebra.

The closed route of the delta-well Bethe rule integrates the two parity
channels along the real axis,

    odd:  k^2 (k^2 + 1) / D(k)^2        even:  k^2 / D(k)^2

with D(k) = ((k+q)^2 + 1)((k-q)^2 + 1), by closing the contour through
the upper half plane; each numerator is at least four degrees below
D^2, so the arc vanishes.  D^2 has double poles at z_j = +-q +- i, and
at z_1 = q + i the residue of N / D^2 is

    Res = (N'(z_1) - N(z_1) sum_j 2/(z_1 - z_j)) / prod_j (z_1 - z_j)^2,

j over the other three poles.  z_1 - z_j runs over 2q, 2i and 2q + 2i,
so the sum is 1/q - i + 1/z_1 and the product is -64 q^2 z_1^2.
Mirror rule: both integrands satisfy f(-conj z) = conj f(z), so the
residue at -q + i is -conj(Res), and the full-line integral is
2 pi i (Res - conj(Res)) = -4 pi Im(Res), real by construction.

The algebra runs over exact Gaussian rationals held as plain ints
(every float is a dyadic rational, taken in exactly by
float.as_integer_ratio), so each integral is rounded once, by the int
true division at the end.
"""

from __future__ import annotations

import math

# Exact complex number: (a, b, d) stands for (a + b i) / d, with int
# parts and d > 0.  Sums and products leave it unreduced; a gcd
# reduction runs only where a value is inverted.
_QC = tuple[int, int, int]


def _qc_reduce(x: _QC) -> _QC:
    g = math.gcd(*x)
    return (x[0] // g, x[1] // g, x[2] // g)


def _qc_add(x: _QC, y: _QC) -> _QC:
    if x[2] == y[2]:
        return (x[0] + y[0], x[1] + y[1], x[2])
    return (x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2])


def _qc_mul(x: _QC, y: _QC) -> _QC:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0], x[2] * y[2])


def _qc_inv(x: _QC) -> _QC:
    # d / (a + b i) = d (a - b i) / (a^2 + b^2)
    a, b, d = x
    return _qc_reduce((d * a, -d * b, a * a + b * b))


def _residues(q: float) -> tuple[_QC, _QC]:
    """Exact residues of the (odd, even) integrands at q + i, q > 0."""
    m, n = q.as_integer_ratio()  # q = m/n exactly, n a power of two
    z = (m, n, n)  # q + i
    z2 = _qc_mul(z, z)
    w = _qc_add(z2, (1, 0, 1))  # z^2 + 1
    two_z = (2 * m, 2 * n, n)
    # even: N = z^2, N' = 2z; odd: N = z^2 w, N' = 2z (z^2 + w).  Each
    # N times the sum 1/q - i + 1/z goes over the product -64 q^2 z^2.
    zs = _qc_mul(z2, _qc_add((n, -m, m), _qc_inv(z)))
    wzs = _qc_mul(w, zs)
    inv_p = _qc_inv(_qc_mul((-64 * m * m, 0, n * n), z2))
    odd = _qc_add(_qc_mul(two_z, _qc_add(z2, w)), (-wzs[0], -wzs[1], wzs[2]))
    even = _qc_add(two_z, (-zs[0], -zs[1], zs[2]))
    return _qc_mul(odd, inv_p), _qc_mul(even, inv_p)


def contour_integral_uhp(q: float) -> tuple[float, float]:
    """Full-line integrals of the (odd, even) Bethe channel integrands
    at q, finite and > 0 (the caller checks it): -4 pi Im(Res) each,
    one rounding from the exact value."""
    return tuple(-2.0 * math.pi * (2 * b / d) for _, b, d in _residues(q))
