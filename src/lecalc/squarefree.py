"""A one-sided certificate that a polynomial has no repeated factor.

`certified_squarefree(f)` answers True only when f is squarefree, and False
when it cannot tell; `poly.reduced_witness` asks it before it takes any gcd.
For each variable v in which f has degree at least 2, the univariate image
u of f in GF(P)[v] must keep f's leading coefficient in v and satisfy
gcd(u, u') = 1, at one of two fixed points (`certificate_point`) for the
other variables and the parameters.  P is the context's own modulus over
GF(p) or Z/(p1 p2), and the prime 2^61 - 1, outside `families.PRIMES`,
over QQ and QQ(params).  The points are fixed, not drawn from the
command's generator, so every report stays the same whatever the seed.
Mod p1 p2 each leading coefficient the answer relies on must be a unit, as
`poly.Modular` requires of the coefficients it tests (`ZeroDivisor`
otherwise), so the answer is the one each GF(p_i) would give.

Why it is sound: a repeated factor h of f has positive degree in some
variable v, and then f has degree at least 2 in v.  By Gauss's lemma over
the local ring of the point (the rationals, or the parameter fractions,
whose denominators do not vanish there), f = h^2 k with h and k over that
ring, whose residue field is GF(P).  The leading coefficient of f in v is
that of h squared times that of k, so when it survives, so does h's, and
the image of h is nonconstant.  It divides both u and u', so gcd(u, u') is
not 1.  Every f certified here is one that the gcd would call reduced.
"""

from __future__ import annotations

from .errors import UnluckySpecializationError
from .poly import Context, Modular, Polynomial, is_nonzero_residue

PRIME = 2 ** 61 - 1
_POINTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def certificate_point(ctx: Context, r: int) -> list[int]:
    """The fixed point of attempt r: coordinate j of k (the variables, then
    the parameters) at _POINTS[(r * k + j) % len(_POINTS)]."""
    k = ctx.nvars + ctx.nparams
    return [_POINTS[(r * k + j) % len(_POINTS)] for j in range(k)]


def _residues(f: Polynomial, params, p: int) -> dict | None:
    """f's coefficients in GF(p), the parameters at params (the last one as
    a residue, through `specialize_parameter`); None when one has no image."""
    names = f.context.parameters
    try:
        for i, (name, a) in enumerate(zip(names, params)):
            f = f.specialize_parameter(
                name, Modular(a, p) if i == len(names) - 1 else a)
        return {m: (c if isinstance(c, Modular)
                    else Modular.from_rational(c, p)).value
                for m, c in f.terms.items()}
    except (ZeroDivisionError, UnluckySpecializationError):
        return None  # p divides a rational denominator


def _coprime(a, b, p):
    """Whether a and b, univariate over GF(p) as dicts degree -> nonzero
    residue with a nonzero, are coprime: Euclid on plain ints, each step
    a <- lc(b) * a - lc(a) * z^s * b, so no step takes an inverse.  Each
    lc(b) must be a unit (ZeroDivisor otherwise), so that b's degree is the
    same mod every prime factor of p."""
    while b:
        top = max(b)
        lb = b[top]
        is_nonzero_residue(lb, p)
        rest = [(d - top, c) for d, c in b.items() if d != top]
        while (lead := max(a, default=-1)) >= top:
            q = a.pop(lead)
            a = {d: w for d, c in a.items() if (w := c * lb % p)}
            for s, c in rest:
                k = lead + s
                w = (a.get(k, 0) - q * c) % p
                if w:
                    a[k] = w
                else:
                    a.pop(k, None)
        a, b = b, a
    return max(a) == 0


def _squarefree_image(residues, v, top, point, p):
    """Whether the image u of residues (monomial -> residue mod p) in
    GF(p)[z_v], each other variable z_i at point[i], has degree top and
    gcd(u, u') = 1."""
    u = {}
    for m, c in residues.items():
        for i, e in enumerate(m):
            if e and i != v:
                c = c * pow(point[i], e, p) % p
        d = m[v]
        u[d] = (u.get(d, 0) + c) % p
    if not is_nonzero_residue(u.get(top, 0), p):
        return False
    du = {d - 1: w for d, c in u.items() if (w := d * c % p)}
    return _coprime({d: c for d, c in u.items() if c}, du, p)


def certified_squarefree(f: Polynomial) -> bool:
    """True only when f has no repeated factor; False when the images at
    both fixed points leave it open (see the module docstring)."""
    ctx = f.context
    p = ctx.modulus or PRIME
    attempts = {}
    for v, top in enumerate(map(max, zip(*f.terms))):
        if top < 2:
            continue
        for r in (0, 1):
            if r not in attempts:
                point = certificate_point(ctx, r)
                attempts[r] = point, _residues(f, point[ctx.nvars:], p)
            point, residues = attempts[r]
            if residues is not None and _squarefree_image(
                    residues, v, top, point, p):
                break
        else:
            return False
    return True
