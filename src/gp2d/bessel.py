"""Bessel functions J0, J1, Y0 and Y1 of real argument, the zeros of J0
and Hankel sums sum_j w_j J0(k r_j), with numpy alone.

For 0 <= x <= 5 the functions are polynomials in t = 2 x^2 / 25 - 1 plus
the logarithmic singularity of Y:

    J0 = 1 + (t + 1) A0(t),   J1 = x A1(t),
    Y0 = (2/pi) log(x) J0 + B0(t),
    Y1 = (2/pi) (log(x) J1 - 1/x) + x B1(t);

for x > 5 they take the Hankel form, with chi_n = x - (2n + 1) pi / 4 and
t = 50 / x^2 - 1,

    J_n = sqrt(2 / (pi x)) (P_n(t) cos chi_n - Q_n(t) / x sin chi_n),
    Y_n = sqrt(2 / (pi x)) (P_n(t) sin chi_n + Q_n(t) / x cos chi_n).

Each of A, B, P and Q is the Chebyshev interpolant of that part of the
function, at 48 nodes in 40-digit arithmetic, truncated once the dropped
coefficients sum to below 1e-17 of its size and converted to powers of t;
``tools/fit_bessel_tables.py`` prints the tables below.  Horner's rule in
t evaluates them.  chi_n is x - (2n + 1) pi / 4 rounded to a double, as
in scipy's (Cephes) functions, so at large x both carry the same phase
error; on a log grid from 1e-10 to 1e5 the two agree within 6e-15 of
max(|f|, min(1, sqrt(2 / (pi x)))).

A Python float takes a scalar path of plain float arithmetic.  The
arithmetic is the same as on arrays, and the transcendental steps (log,
cos, sin) are numpy's own on both paths, so a scalar result equals the
array result bit for bit.
``jy01`` evaluates all four functions at once and ``jy`` one order of
both kinds, sharing the logarithm, the amplitude and the Hankel parts;
each value is bit for bit what ``j0``, ``y0``, ``j1`` or ``y1`` returns.
"""

from __future__ import annotations

import math

import numpy as np

_X0 = 5.0
_T_SMALL = 2.0 / (_X0 * _X0)
_T_LARGE = 2.0 * _X0 * _X0
_TWO_OVER_PI = 2.0 / math.pi
_PHASE = (math.pi / 4.0, 3.0 * math.pi / 4.0)   # chi_n = x - _PHASE[n]

# Power coefficients in t, highest first (tools/fit_bessel_tables.py).
_A0 = (
    -5.6784713641168154e-14,
    3.026002762519547e-12,
    -1.3692260830601002e-10,
    5.196217482087608e-09,
    -1.6238050684625882e-07,
    4.090889393841375e-06,
    -8.092522541219098e-05,
    0.0012152887349989015,
    -0.013250502889328943,
    0.09864232643192558,
    -0.45882309238231184,
    1.1682390959158535,
    -1.3847445098140454,
)
_A1 = (
    1.1621889632590412e-13,
    -5.7018453078703506e-12,
    2.356632323536745e-10,
    -8.094869431415498e-09,
    2.263453713594777e-07,
    -5.02849137748372e-06,
    8.605445634303652e-05,
    -0.0010889889692024138,
    0.009628171323463516,
    -0.05465076706726198,
    0.17288676765618544,
    -0.22701312113073338,
    0.03464086622371068,
)
_B0 = (
    1.166603953074689e-13,
    -6.04993694723965e-12,
    2.6539975248625817e-10,
    -9.7209552080454e-09,
    2.9142206889637085e-07,
    -6.985504374077061e-06,
    0.0001299462909208217,
    -0.0018028096665503853,
    0.01763534538933876,
    -0.11151682184328655,
    0.38851639956570944,
    -0.47057636552972876,
    -0.4326558222855125,
    0.4837248578102995,
)
_B1 = (
    -2.397782341669183e-13,
    1.1462847037754036e-11,
    -4.6013010745475043e-10,
    1.528888444673751e-08,
    -4.1137780795312436e-07,
    8.733098315276175e-06,
    -0.00014141835794484212,
    0.0016688031328605528,
    -0.013433433740818165,
    0.06634695354779145,
    -0.16312020358118715,
    0.09108650838448443,
    0.13974939033568806,
)
_P0 = (
    1.4342144484717672e-12,
    -2.235391154912044e-12,
    -2.8395786688743523e-12,
    3.415311542572876e-12,
    8.357591428468511e-12,
    -1.3637307914439566e-11,
    1.2588002430248643e-11,
    -3.538662922896775e-11,
    1.0446084050144923e-10,
    -2.851794579729694e-10,
    8.537333898998171e-10,
    -2.8705436149232575e-09,
    1.1058787126508455e-08,
    -5.08643230838394e-08,
    2.9759005474711905e-07,
    -2.459963321484891e-06,
    3.4917305812543486e-05,
    -0.0013274931272004003,
    0.9986347659091991,
)
_Q0 = (
    -3.2387768388689393e-12,
    4.3654360757736204e-12,
    1.1781243865914085e-11,
    -1.4357398193255748e-11,
    -2.465445517537662e-11,
    2.9761039229454055e-11,
    1.954313210862208e-11,
    -1.6056475557808333e-11,
    -4.033194093954771e-11,
    6.52587672974458e-11,
    -9.684728180683588e-11,
    2.340473361283212e-10,
    -5.894142390813669e-10,
    1.5282843631161895e-09,
    -4.293806343863444e-09,
    1.3296573119800334e-08,
    -4.6398035440396124e-08,
    1.8870297801035574e-07,
    -9.409875176808848e-07,
    6.23911316965569e-06,
    -6.338715442546601e-05,
    0.0013142139729102479,
    -0.12361496352611864,
)
_P1 = (
    -1.516811852611783e-12,
    2.368522528186767e-12,
    2.9881368885935155e-12,
    -3.5906738400843512e-12,
    -8.878743173627245e-12,
    1.4551592853265448e-11,
    -1.3682028558855844e-11,
    3.8451893184433864e-11,
    -1.1357643207946474e-10,
    3.117737074105936e-10,
    -9.395751413733448e-10,
    3.1849577586739448e-09,
    -1.2403215219140042e-08,
    5.7916678422140156e-08,
    -3.4667186514153773e-07,
    2.9786211051441743e-06,
    -4.5782806531265707e-05,
    0.002241463213917191,
    1.0022906462560661,
)
_Q1 = (
    -4.588976369752685e-12,
    6.349391905539588e-12,
    1.5067476218657275e-11,
    -1.8540816446843627e-11,
    -3.1287029494776293e-11,
    3.9223397372601566e-11,
    1.6645096069215522e-11,
    -6.892050473631464e-12,
    -6.962061096202045e-11,
    1.3104614308463733e-10,
    -2.5293791309652674e-10,
    6.296749654365242e-10,
    -1.6641711306549605e-09,
    4.704141826870427e-09,
    -1.4664229261320404e-08,
    5.1641422798019427e-08,
    -2.126674090283508e-07,
    1.0798853942089243e-06,
    -7.369927947805624e-06,
    7.898094177943239e-05,
    -0.0018648496218413126,
    0.3730474331740802,
)

_A = (_A0, _A1)
_B = (_B0, _B1)
_P = (_P0, _P1)
_Q = (_Q0, _Q1)

# The moment series of hankel_j0 serves rows with k max(r) up to this;
# there its rounding error is below 2e-15 of sum |w_j|.
_X_MOMENT = 6.45
_SERIES_TERM_MIN = 1e-17


def _horner(coef, t):
    """Horner's rule, in place once the first step has made a new array."""
    it = iter(coef)
    acc = next(it) * t + next(it)
    for c in it:
        acc *= t
        acc += c
    return acc


def _regime(x, small, orders, second, log, cos, sin, sqrt):
    """[J_n, (Y_n,) for n in orders] at x > 0, a float or an array wholly
    inside one regime; the same arithmetic serves both."""
    out = []
    if small:
        u = x * x * _T_SMALL
        t = u - 1.0
        logx = log(x) if second else None
        for n in orders:
            a = _horner(_A[n], t)
            j = 1.0 + u * a if n == 0 else x * a
            out.append(j)
            if second:
                b = _horner(_B[n], t)
                out.append(_TWO_OVER_PI * logx * j + b if n == 0 else
                           _TWO_OVER_PI * (logx * j - 1.0 / x) + x * b)
    else:
        t = _T_LARGE / (x * x) - 1.0
        amp = sqrt(_TWO_OVER_PI / x)
        for n in orders:
            p = _horner(_P[n], t)
            q = _horner(_Q[n], t) / x
            chi = x - _PHASE[n]
            c, s = cos(chi), sin(chi)
            out.append(amp * (p * c - q * s))
            if second:
                out.append(amp * (p * s + q * c))
    return out


# numpy's log can differ from math.log in the last bit (a SIMD loop), so
# the scalar path calls numpy's functions too
def _flog(x):
    return float(np.log(x))


def _fcos(x):
    return float(np.cos(x))


def _fsin(x):
    return float(np.sin(x))


def _scalar(x: float, orders, second) -> list:
    """[J_n, (Y_n,) for n in orders] at a Python float x."""
    ax = abs(x)
    if 0.0 < ax < math.inf:
        out = _regime(ax, ax <= _X0, orders, second, _flog, _fcos, _fsin,
                      math.sqrt)
    else:                             # 0, inf or nan
        out = []
        for n in orders:
            out.append(float(n == 0) if ax == 0.0
                       else 0.0 if ax == math.inf else math.nan)
            if second:
                out.append(-math.inf if ax == 0.0 else out[-1])
    if x < 0.0:                       # J1 is odd, J0 even; Y is not real
        step = 1 + second
        for i, n in enumerate(orders):
            if n == 1:
                out[step * i] = -out[step * i]
            if second:
                out[step * i + 1] = math.nan
    return out


def _vector(x: np.ndarray, orders, second) -> list:
    """[J_n, (Y_n,) for n in orders] at a 1-D array x."""
    ax = np.abs(x)
    small = ax <= _X0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, inf: below
        if small.all() or not small.any():
            out = _regime(ax, bool(small.all()), orders, second, np.log,
                          np.cos, np.sin, np.sqrt)
        else:
            out = [np.empty(ax.shape)
                   for _ in range(len(orders) * (1 + second))]
            for is_small, mask in ((True, small), (False, ~small)):
                vals = _regime(ax[mask], is_small, orders, second, np.log,
                               np.cos, np.sin, np.sqrt)
                for dst, v in zip(out, vals):
                    dst[mask] = v
    for i in np.flatnonzero(~((ax > 0.0) & (ax < math.inf))):
        for dst, v in zip(out, _scalar(float(ax[i]), orders, second)):
            dst[i] = v                # 0, inf or nan
    neg = x < 0.0
    if neg.any():
        step = 1 + second
        for i, n in enumerate(orders):
            if n == 1:
                np.negative(out[step * i], out=out[step * i], where=neg)
            if second:
                out[step * i + 1][neg] = math.nan
    return out


def _evaluate(x, orders, second):
    """[J_n, (Y_n,) for n in orders] at x: a Python float, or an array."""
    if isinstance(x, float):
        return _scalar(float(x), orders, second)   # float64 math is slower
    x = np.asarray(x, float)
    out = _vector(x.ravel(), orders, second)
    return [v.reshape(x.shape)[()] for v in out]


def j0(x):
    """Bessel function J0."""
    return _evaluate(x, (0,), False)[0]


def j1(x):
    """Bessel function J1."""
    return _evaluate(x, (1,), False)[0]


def y0(x):
    """Bessel function Y0; nan for x < 0."""
    return _evaluate(x, (0,), True)[1]


def y1(x):
    """Bessel function Y1; nan for x < 0."""
    return _evaluate(x, (1,), True)[1]


def jy(x, n: int):
    """(J_n, Y_n) at x, n = 0 or 1, sharing the work of one evaluation."""
    return tuple(_evaluate(x, (n,), True))


def jy01(x):
    """(J0, Y0, J1, Y1) at x, sharing the logarithm and the amplitude."""
    return tuple(_evaluate(x, (0, 1), True))


def j0_zeros(count: int) -> np.ndarray:
    """The first ``count`` positive zeros of J0.

    McMahon's expansion in b = (m - 1/4) pi, b + e - 124/3 e^3 +
    120928/15 e^5 with e = 1 / (8 b), is within 1e-3 of the first zero and
    far closer beyond it; three Newton steps z + J0(z) / J1(z) finish.
    """
    b = (np.arange(1, count + 1) - 0.25) * math.pi
    e = 1.0 / (8.0 * b)
    z = b + e * (1.0 - e * e * (124.0 / 3.0 - e * e * (120928.0 / 15.0)))
    for _ in range(3):
        z = z + j0(z) / j1(z)
    return z


def _series_edges() -> np.ndarray:
    """edges[M]: the x below which term M + 1 of the J0 series,
    (x/2)^(2M+2) / ((M+1)!)^2, is under _SERIES_TERM_MIN."""
    m = np.arange(1, 40)
    log_fact = np.cumsum(np.log(m))
    return 2.0 * np.exp((math.log(_SERIES_TERM_MIN) + 2.0 * log_fact)
                        / (2.0 * m))


_SERIES_EDGES = _series_edges()


def _moment_series(x: np.ndarray, rho: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """sum_j w_j J0(x rho_j) for 0 <= rho_j <= 1, as
    sum_m (-1/4)^m / (m!)^2 x^(2m) mu_m with the moments
    mu_m = sum_j w_j rho_j^(2m), summed by Horner in x^2.  A row keeps its
    terms up to the last one before a term bound (x/2)^(2m) / (m!)^2
    (times sum |w_j|, which bounds |mu_m|) falls below _SERIES_TERM_MIN,
    so its value depends on its own x alone."""
    keep = np.searchsorted(_SERIES_EDGES, x, side="right")
    top = int(keep.max(initial=0))
    rho2 = rho * rho
    coef = np.empty(top + 1)
    power, c = w, 1.0
    for m in range(top + 1):
        coef[m] = c * power.sum()
        power = power * rho2
        c *= -0.25 / ((m + 1) * (m + 1))
    y = x * x
    acc = np.zeros(x.shape)
    for m in range(top, -1, -1):
        acc = acc * y + coef[m] * (keep >= m)
    return acc


def hankel_j0(k, r, w):
    """sum_j w_j J0(k r_j) at every wavenumber of ``k`` (any shape), for
    radii r_j >= 0.

    Each row with k max(r) <= _X_MOMENT sums the moment series
    (``_moment_series``), a few terms where k r is small; the others sum
    their row of the J0 matrix times w.  Both the choice and the summation
    are per row, so the value at one k does not depend, to the bit, on
    which other k are asked for with it.
    """
    k = np.asarray(k, float)
    kf = np.abs(k).ravel()
    r = np.asarray(r, float)
    w = np.asarray(w, float)
    s = float(r.max(initial=0.0))
    series = kf * s <= _X_MOMENT
    out = np.empty(kf.shape)
    if series.any():
        out[series] = _moment_series(kf[series] * s, r / s if s > 0 else r,
                                     w)
    if not series.all():
        terms = j0(np.multiply.outer(kf[~series], r)) * w
        out[~series] = terms.sum(axis=1)
    return out.reshape(k.shape)
