"""Fit the polynomial tables of ``gp2d.bessel`` and print them.

Usage: python3 tools/fit_bessel_tables.py

Needs mpmath (a sympy dependency); the package itself does not.  Each
table is the Chebyshev interpolant, at 48 first-kind nodes in 40-digit
arithmetic, of one smooth part of J0, J1, Y0 or Y1, truncated where the
dropped coefficients sum to below 1e-17 of the part's size, converted to
the power basis in the same arithmetic and rounded to doubles.  Printed
highest power first, as Horner's rule reads them.

    x <= 5, t = 2 x^2 / 25 - 1:
        J0 = 1 + (t + 1) A0(t),  J1 = x A1(t),
        Y0 = (2/pi) log(x) J0 + B0(t),
        Y1 = (2/pi) (log(x) J1 - 1/x) + x B1(t);
    x > 5, t = 50 / x^2 - 1, chi_n = x - (2n + 1) pi / 4:
        J_n = sqrt(2 / (pi x)) (P_n(t) cos chi_n - Q_n(t) / x sin chi_n),
        Y_n = sqrt(2 / (pi x)) (P_n(t) sin chi_n + Q_n(t) / x cos chi_n).
"""

import mpmath as mp

mp.mp.dps = 40
NODES = 48
X0 = 5


def small_x(t):
    return X0 * mp.sqrt((t + 1) / 2)


def large_x(t):
    return X0 * mp.sqrt(2 / (t + 1))


def hankel_parts(n):
    """(P_n, Q_n) of the large-x form, from J_n and Y_n."""
    def parts(t):
        x = large_x(t)
        chi = x - (2 * n + 1) * mp.pi / 4
        jn, yn = mp.besselj(n, x), mp.bessely(n, x)
        amp = mp.sqrt(mp.pi * x / 2)
        return (amp * (jn * mp.cos(chi) + yn * mp.sin(chi)),
                amp * (yn * mp.cos(chi) - jn * mp.sin(chi)) * x)
    return parts


PARTS = {
    "A0": lambda t: (mp.besselj(0, small_x(t)) - 1) / (t + 1),
    "A1": lambda t: mp.besselj(1, small_x(t)) / small_x(t),
    "B0": lambda t: (mp.bessely(0, small_x(t)) - 2 / mp.pi
                     * mp.log(small_x(t)) * mp.besselj(0, small_x(t))),
    "B1": lambda t: (mp.bessely(1, small_x(t)) - 2 / mp.pi
                     * (mp.log(small_x(t)) * mp.besselj(1, small_x(t))
                        - 1 / small_x(t))) / small_x(t),
    "P0": lambda t: hankel_parts(0)(t)[0],
    "Q0": lambda t: hankel_parts(0)(t)[1],
    "P1": lambda t: hankel_parts(1)(t)[0],
    "Q1": lambda t: hankel_parts(1)(t)[1],
}


def chebyshev(f):
    theta = [mp.pi * (k + mp.mpf(1) / 2) / NODES for k in range(NODES)]
    vals = [f(mp.cos(th)) for th in theta]
    return [2 * mp.fsum(v * mp.cos(m * th) for v, th in zip(vals, theta))
            / NODES * (mp.mpf(1) / 2 if m == 0 else 1)
            for m in range(NODES)]


def power_basis(cheb):
    """Coefficients of sum c_m T_m(t) in powers of t, lowest first."""
    polys = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    while len(polys) < len(cheb):
        nxt = [mp.mpf(0)] + [2 * a for a in polys[-1]]
        for i, a in enumerate(polys[-2]):
            nxt[i] -= a
        polys.append(nxt)
    out = [mp.mpf(0)] * len(cheb)
    for c, poly in zip(cheb, polys):
        for i, a in enumerate(poly):
            out[i] += c * a
    return out


def main():
    for name, f in PARTS.items():
        cheb = chebyshev(f)
        size = max(abs(c) for c in cheb)
        n = len(cheb)
        while mp.fsum(abs(c) for c in cheb[n - 1:]) < 1e-17 * size:
            n -= 1
        coef = power_basis(cheb[:n])
        print(f"_{name} = (")
        for c in reversed(coef):
            print(f"    {float(c)!r},")
        print(")")


if __name__ == "__main__":
    main()
