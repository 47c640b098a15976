"""Search dynamics in the two-dimensional invariant subspace.

Every generalized iteration preserves the plane spanned by the normalized
unmarked projection |r> and marked projection |t> of the initial state, so
the whole search reduces to products of 2x2 matrices.  With x the unmarked
overlap of the initial state the final unmarked amplitude is the
quasi-Chebyshev value a_L(x), giving the closed-form success amplitude

    P(lambda) = sqrt(1 - T_L^2(sqrt(1-lambda^2)/gamma) / T_L^2(1/gamma)),

with gamma = sqrt(1 - w^2) and lambda = sqrt(1 - x^2).  Each of gamma, x
(from lambda) and s below is ``complexpoly.complement``, the one spelling of
sqrt(1 - v^2).

With s = sqrt(1 - x^2) and the real involution R(x) = [[x, s], [s, -x]],
which sends |r> to the initial state R(x)|r> = (x, s), iteration k is

    e^{i beta_k} R(x) diag(1, e^{-i beta_k}) R(x) diag(1, e^{i alpha_k}),

the marked-state phase shift by alpha_k followed by the initial-state phase
shift by beta_k.  Global phases are kept (the e^{i beta} factor is not
dropped), so the simulation matches this operator expression exactly; tests
compare magnitudes only.

``run_search`` takes a scalar x or an array of x, on Python complex numbers
for a scalar and on numpy vectors for an array, so a whole lambda grid is one
call.  It does not multiply these 2x2 factors: since R|t> = psi = (s, -x),

    R diag(1, e^{-i beta}) R = I + (e^{-i beta} - 1) psi psi^T,

so after the marked phase e^{i alpha} on t each iteration is one reflection
about psi, four vector updates.  The global factors e^{i beta_k} commute with
everything, so their product multiplies both amplitudes once, at the end.

One step function, ``_iterate``, applies these reflections; three drivers feed it.
A scalar x takes the scalar driver; an array is cut into slices of ``_BLOCK``
points, and each slice picks its own driver:

- the scalar driver, for a scalar x, on Python complex numbers;
- the grouped driver, for a slice of at most ``_GROUPED_MAX`` points under a
  schedule of at least ``_GROUPED_MIN_L`` iterations.  There numpy's per-call
  cost outweighs the arithmetic, so it splits the iterations into g, about
  sqrt(l), groups, finds the first column of every group's 2x2 transfer matrix
  in one pass over (g, N) lanes, and applies the matrices in order: at
  l = 265, 249 numpy calls, 153 of them on (16, N) arrays, instead of 2385.
  Every step is unitary, so a group's second column follows from its first
  and from the product D of the steps' determinants e^{i (alpha_k - beta_k)}.
  That rests on the unitarity of the operator expression above, not on the
  Chebyshev closed form, so the simulation stays an independent check of it;
- the blocked driver, for every other slice, iterating the state itself.

The same array, or the same scalar, gives the same bits, and so does every
``_BLOCK``-aligned slice: ``run_search(x)[b]`` is bit-identical to
``run_search(x[b])`` for b = slice(k * _BLOCK, (k + 1) * _BLOCK).  Other
slices need not be, as numpy picks other inner loops for short arrays: at
(w, l) = (0.08, 12), over 300 lambda in [0.001, 1], one-element arrays differ
from the same x inside the 300-point grid at 195 points, by up to 1.6e-16, and
scalar calls at all 300, by up to 2.1e-15.  The grouped driver regroups the
products and rebuilds half of them, so over 40 x in [0, 1] it differs from the
blocked driver by up to 7.5e-15 at l = 265, 2.8e-14 at l = 2000 and 8.9e-14 at
l = 49999.  Near x = 1 the gap grows: the rounded (x, s) misses unit length by
about 1e-16, the blocked driver's amplitudes follow that drift over all l steps
and the rebuilt column does not.  At l = 49999 and lambda = 0.001 the drivers differ by 9.0e-13; a
40-digit product with the exact s is 1.4e-13 from the grouped result there and
1.0e-12 from the blocked one.
Large grids (the deep sweep) and short schedules (verify's arrays, l <= 7, and
the README sweep, l = 12) stay on the blocked driver, except that a last slice
of at most ``_GROUPED_MAX`` points of a long grid at l >= ``_GROUPED_MIN_L``
takes the grouped one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexpoly import chebyshev_T, check_real, complement
from .schedule import AngleSchedule, check_unit, check_w_l


@dataclass(frozen=True)
class TwoDimState:
    """Amplitudes on the unmarked (|r>) and marked (|t>) directions."""

    r_amp: complex | np.ndarray
    t_amp: complex | np.ndarray


# run_search slices an array of x into blocks of this many points, so that the
# blocked driver's working vectors stay in cache, and picks each block's driver
# on its own.  A point's bits depend on its block's length, as numpy's complex
# loops round some entries differently at other lengths (4096- and 16384-point
# blocks differ by up to 8.1e-15 in t_amp over 10^5 points at w = 0.01, l = 265).
# cli's sweep relies on these blocks: it calls run_search once per _BLOCK of its
# grid, so that every point keeps the bits it has in one call over the whole grid
_BLOCK = 4096
# Blocks of at most _GROUPED_MAX points take the grouped driver when the
# schedule has at least _GROUPED_MIN_L iterations; all else takes the blocked
# one.  Measured on 2 cores (numpy 2.4.6), the grouped driver takes, of the
# blocked one's time, 0.29 at 40 points, 0.43 at 128 and 0.86 at 512 at l = 265
# (it loses from 640 on), and 0.34-0.59 at 128 points at l = 2000 to 10000;
# below 100 points they tie at l = 12-16.  The crossover lies above 128.  No
# other module reads the limit, so it can move without a change to cli
_GROUPED_MAX = 128
_GROUPED_MIN_L = 32


def _check_x(x, name: str = "x") -> np.ndarray:
    # both overlaps, x and lambda, are real and lie in [0, 1]; read as floats, an
    # array is checked by its extremes (NaN if any entry is), an empty one not at all
    xs = check_real(x, f"{name} must be in [0, 1]")
    for value in (np.min(xs), np.max(xs)) if xs.size > 1 else xs.ravel().tolist():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return xs


def _iterate(r, t, x, s, phases):
    # from the state (r, t), per iteration t *= e^{i alpha_k} and the reflection
    # about psi = (s, -x) with c_k = e^{-i beta_k} - 1; the global phase
    # prod_k e^{i beta_k} is left to the caller.  Operands are floats, or complex
    # arrays that broadcast together (the grouped driver's phases are columns)
    for a, c in phases:
        t = t * a
        p = c * (s * r - x * t)
        r = r + s * p
        t = t - x * p
    return r, t


def _grouped(x, s, alpha_phase, c):
    # the l iterations in g = isqrt(l) consecutive groups, the last one padded
    # with identity steps (a = 1, c = 0 leave r and t exact).  One _iterate over
    # (g, N) lanes, started at (1, 0), gives the first column (u, v) of each
    # group's 2x2 transfer matrix per point.  Every step is unitary with
    # determinant a_k (1 + c_k), so the matrix is [[u, -D v*], [v, D u*]], D the
    # product of those determinants over the group (1 on padding steps); the
    # matrices then act on the initial state (x, s), group 1 first
    n, l = x.size, alpha_phase.size
    g = max(1, math.isqrt(l))
    pad = -l % g
    a = np.concatenate((alpha_phase, np.ones(pad))).reshape(g, -1, 1)
    c = np.concatenate((c, np.zeros(pad))).reshape(g, -1, 1)
    d = np.prod(a * (1.0 + c), axis=1)
    u, v = _iterate(np.ones((g, n), dtype=complex), np.zeros((g, n), dtype=complex), x, s,
                    zip(a.transpose(1, 0, 2), c.transpose(1, 0, 2)))
    u2, v2 = -d * v.conj(), d * u.conj()
    r, t = x, s
    for j in range(g):
        r, t = u[j] * r + u2[j] * t, v[j] * r + v2[j] * t
    return r, t


def run_search(x, schedule: AngleSchedule) -> TwoDimState:
    """Apply the scheduled iterations, index 1 first, to the initial state R(x)|r>.

    A scalar x gives complex amplitudes; an array of x gives arrays of x's
    shape, one simulation per entry.  s = sqrt(1 - x^2) is taken from x by
    ``complexpoly.complement``, which also gives callers x from lambda.
    """
    xs = _check_x(x)
    ss = complement(xs)
    # e^{i alpha_k} and c_k = e^{-i beta_k} - 1, k = 1..l
    beta_phase = np.exp(-1j * schedule.beta)
    alpha_phase, c = np.exp(1j * schedule.alpha), beta_phase - 1.0
    # a product of unit phases: e^{i sum beta} would round a sum of size ~pi*l
    glob = complex(math.prod(beta_phase.tolist())).conjugate()
    if xs.ndim == 0:
        x0, s0 = float(xs), ss
        r, t = _iterate(x0, s0, x0, s0, zip(alpha_phase.tolist(), c.tolist()))
        return TwoDimState(r_amp=glob * r, t_amp=glob * t)
    # complex copies: numpy has no real-times-complex loop and would convert x and s at every product
    xf, sf = xs.ravel(), ss.ravel()
    r = np.empty(xf.size, dtype=complex)
    t = np.empty(xf.size, dtype=complex)
    for lo in range(0, xf.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        xb, sb = xf[block].astype(complex), sf[block].astype(complex)
        if xb.size <= _GROUPED_MAX and schedule.l >= _GROUPED_MIN_L:
            r[block], t[block] = _grouped(xb, sb, alpha_phase, c)
        else:
            r[block], t[block] = _iterate(xb, sb, xb, sb, zip(alpha_phase.tolist(), c.tolist()))
    r *= glob
    t *= glob
    return TwoDimState(r_amp=r.reshape(xs.shape), t_amp=t.reshape(xs.shape))


def success_probability_closed(lam, w: float, l: int):
    """Closed-form final marked amplitude P(lambda) for the (w, l) schedule.

    Scalar lambda gives a float, an array of lambda an array of the same
    shape.  Returns amplitude norms in [0, 1], not probabilities; square them
    to compare with full-space simulation output.
    """
    lams = _check_x(lam, "lambda")
    l = check_w_l(w, l)
    gamma = complement(w)
    L = 2 * l + 1
    x = complement(lams)
    ratio = chebyshev_T(L, x / gamma) / chebyshev_T(L, 1.0 / gamma)
    # the ratio can exceed 1 by roundoff only when it is 1 up to eps; fmax also
    # turns the NaN of a cosh overflow into 0 (ROADMAP item 1)
    out = np.sqrt(np.fmax(0.0, 1.0 - ratio * ratio))
    return float(out) if out.ndim == 0 else out


def classic_grover_optimal(lam: float) -> int:
    """Optimal stop time of the plain search: round(pi / (4 arcsin lambda) - 1/2).

    Half-integer ties round to the even neighbour (Python's round); the
    result is floored at 0.
    """
    return max(0, round(math.pi / (4.0 * math.asin(check_unit(lam, "lambda"))) - 0.5))
