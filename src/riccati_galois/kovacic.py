"""Decision procedure for Liouvillian solvability of xi'' = r xi.

Four cases, matching the algebraic subgroups of SL(2, C):
  1. a solution exp(int omega) with omega rational (triangularizable group)
  2. omega algebraic of degree 2 (infinite dihedral)
  3. omega algebraic of degree 4, 6 or 12 (tetrahedral/octahedral/icosahedral)
  4. no Liouvillian solutions at all.

Cases 1-3 share one search, _search (Kovacic 1986, sections 3-4; Ulmer
& Weil 1996), with three parameters: the options at each point (local
exponents, finite poles first, tagged with what the certificate needs),
the degree map m = scale * (e_inf - sum e_c) and a candidate builder
(operator, monic kernel polynomial of degree m, check); it tests m on
integers.  Cases 2 and 3 share _exponent_sets.  Case 2 keeps Kovacic's
2 + k sqrt(1 + 4b), scale 1/2: rescaled sets sort (Scalar.sort_key)
into another candidate order.  The order-2 roots sqrt(1 + 4b) are
found once per equation (_order2_roots) and shared by the three cases.

Before Cases 2 and 3 the local monodromy, an element of the Galois
group, is read off these roots (Kovacic 1986; van der Put & Singer
2003, ch. 4; Ulmer & Weil 1996).  A logarithmic point (_logarithmic;
Frobenius's obstruction, modulo a prime) gives a nontrivial unipotent
element, which neither D-infinity nor a finite group has: once Case 1
has failed, the answer is Case 4.  A rational N = sqrt(1 + 4b) has
projective order its denominator, and Case 3 tries only the n whose
groups have every order (_case3_degrees).  Both rules skip only
searches that cannot succeed.  Setup (_chain_setup, and Case 1's
shares) waits for a first surviving candidate.

Cases 1-3 are one recursion with parameter n (Ulmer & Weil 1996):
Kovacic's P_i chain, n = 1 for Case 1, 2 for Case 2 and 4, 6, 12 for
Case 3, scaled by L = prod (x - c)^ceil(o/2) over the poles, runs on
integer lists (_kovacic_chain) for the images of x^j and, in Cases 2
and 3, for the certificate.  L and L^2 r are made once per equation
(_chain_setup), and one builder serves every case (_chain_build).  At
n = 1, P_{-1} is minus Case 1's operator for theta = omega = A/L, with
A the sum of one share per point, so no RatFunc, gcd or lcm is needed
before the system is solved.  _monic_poly_solution solves integer rows
by fraction-free elimination (linalg.solve_fraction_free); rows with
tower coefficients keep linalg.solve.  A nonzero polynomial factor
keeps the solution set, and both solvers set free variables to zero,
so each candidate gets the P it got from the uncleared operator.

Every positive answer carries an exact certificate, checked once by
its builder; a consistent candidate system implies the identity, so a
failed check is a fault and raises reports.VerificationError:
  case 1: P'' + 2 omega P' + (omega' + omega^2 - r) P = 0, as the
  polynomial identity it is times B^2 M (verify_case1)
  cases 2, 3: the defining polynomial F(omega) is checked to be closed
  under the Riccati flow, i.e. F_x + F_omega (r - omega^2) = 0 mod F,
  which certifies that every root of F solves omega' = r - omega^2.
"""

from fractions import Fraction
from functools import cache, partial
from math import factorial, lcm as ilcm

from .formal import FormalIntegral, FormalProduct
from .linalg import solve, solve_fraction_free
from .odeforms import ReducedODE
from .poly import Poly, _rational_coeffs
from .ratfunc import RatFunc
from .reports import VerificationError
from .scalars import QQ, Scalar

INFINITY = "infinity"


class LocalData:
    """Case-1 local data at one point: the square-root head of the
    Laurent expansion and the two exponent candidates."""

    __slots__ = ("point", "subcase", "sqrt_head", "alpha_plus", "alpha_minus")

    def __init__(self, point, subcase, sqrt_head, alpha_plus, alpha_minus):
        self.point = point
        self.subcase = subcase
        self.sqrt_head = sqrt_head
        self.alpha_plus = alpha_plus
        self.alpha_minus = alpha_minus

    def alpha(self, sign):
        return self.alpha_plus if sign > 0 else self.alpha_minus

    def __repr__(self):
        return "LocalData(%s, %s, alpha=%s/%s)" % (
            self.point,
            self.subcase,
            self.alpha_plus,
            self.alpha_minus,
        )


class Case1Result:
    case = 1

    __slots__ = ("omega", "p", "m")

    def __init__(self, omega, p, m):
        self.omega = omega
        self.p = p
        self.m = m

    def solution(self) -> FormalProduct:
        """xi_1 = P * exp(int omega)."""
        return FormalProduct(1, ((RatFunc.coerce(self.p), 1),), self.omega)

    def __repr__(self):
        return "Case1Result(omega=%s, p=%s)" % (self.omega, self.p)


class Case2Result:
    case = 2

    __slots__ = ("theta", "p", "m", "phi", "quadratic")

    def __init__(self, theta, p, m, phi, quadratic):
        self.theta = theta
        self.p = p
        self.m = m
        self.phi = phi
        # coefficients (c0, c1, c2) of c2 w^2 + c1 w + c0 = 0
        self.quadratic = quadratic

    def __repr__(self):
        return "Case2Result(theta=%s, p=%s)" % (self.theta, self.p)


class Case3Result:
    case = 3

    __slots__ = ("n", "theta", "s", "p", "m", "omega_poly")

    def __init__(self, n, theta, s, p, m, omega_poly):
        self.n = n
        self.theta = theta
        self.s = s
        self.p = p
        self.m = m
        # omega_poly[i] is the coefficient of omega^i
        self.omega_poly = omega_poly

    def __repr__(self):
        return "Case3Result(n=%d, p=%s)" % (self.n, self.p)


class Case4Result:
    case = 4

    __slots__ = ()

    def __repr__(self):
        return "Case4Result()"


class SecondSolution:
    """xi_2 = xi_1 * int exp(-2 int omega) / P^2 dx."""

    __slots__ = ("xi1", "integral")

    def __init__(self, xi1: FormalProduct, integral: FormalIntegral):
        self.xi1 = xi1
        self.integral = integral

    def __str__(self):
        return "(%s) * (%s)" % (self.xi1, self.integral)


def _sq_coeff(u, m):
    """Coefficient of s^m in (sum u[i] s^i)^2 over the known entries."""
    acc = Scalar.coerce(0)
    for i, ui in u.items():
        j = m - i
        if j in u:
            acc = acc + ui * u[j]
    return acc


def _match_sqrt_head(t, v, low):
    """Determine u[low..v] with (sum u[i] s^i)^2 matching t, plus b.

    t[k] is the coefficient at order 2v - k of the expansion being
    matched; b is the order v + low - 1 mismatch coefficient used in the
    alpha formulas.
    """
    u = {v: t[0].sqrt()}
    for k in range(1, v - low + 1):
        partial = _sq_coeff(u, 2 * v - k)
        u[v - k] = (t[k] - partial) / (2 * u[v])
    b = t[v - low + 1] - _sq_coeff(u, v + low - 1)
    return u, b


def _order2_root(r: RatFunc, point):
    """sqrt(1 + 4b), b the coefficient of (x - point)^-2 (of x^-2 at
    INFINITY): the local exponent difference at a point of order 2."""
    if point is INFINITY:
        _, coeffs = r.laurent_at_infinity(1)
    else:
        _, coeffs = r.laurent_at(point, 1)
    return (1 + 4 * coeffs[0]).sqrt()


def _order2_roots(r: RatFunc, poles):
    """_order2_root at each pole of order 2 and, last, at INFINITY if r
    has order 2 there; None elsewhere.  Computed once per equation."""
    roots = [_order2_root(r, c) if order == 2 else None for c, order in poles]
    o = r.order_at_infinity()
    roots.append(_order2_root(r, INFINITY) if o == 2 else None)
    return roots


def _logarithmic(r: RatFunc, poles, roots) -> bool:
    """True if xi'' = r xi has a point known to be logarithmic: a simple
    pole, order 3 at infinity (t^-4 r(1/t) has a simple pole at t = 0),
    or a point of order 2 that _frobenius_log proves.  roots are
    _order2_roots(r, poles)."""
    if r.order_at_infinity() == 3 or any(o == 1 for _, o in poles):
        return True
    points = [c for c, _ in poles] + [INFINITY]
    return any(
        root is not None and _frobenius_log(r, point, root)
        for point, root in zip(points, roots)
    )


# the Frobenius obstruction is computed modulo this prime (_frobenius_log)
_PRIME = 2**61 - 1


def _frobenius_log(r: RatFunc, point, root) -> bool:
    """True if a point of order 2 with exponent difference root = N is
    proved to carry a logarithm.  For r = sum_k r_k (x - c)^(k - 2) (at
    INFINITY, t^-4 r(1/t) at t = 0 has the r_k of the expansion in 1/x)
    and the smaller exponent (1 - N)/2, Frobenius's recursion is
        j (j - N) a_j = sum_(k = 1..j) r_k a_(j - k),  a_0 = 1,
    and an integer N >= 1 is logarithmic iff the right side is nonzero
    at j = N; N = 0 always is.  With d clearing the denominators of the
    r_k, P_j = prod_(i <= j) i (i - N) and A_j = d^j P_j a_j, it is free
    of division:
        A_j = sum_k (d r_k) d^(k - 1) (P_(j-1) / P_(j-k)) A_(j - k),
    and A_N is d^N P_(N-1) times the right side at j = N.  It runs
    modulo _PRIME, in O(N^2) word-sized steps: a nonzero residue proves
    the logarithm, a zero one (an apparent point, or a multiple of the
    prime) proves nothing.  Tower coefficients are not tested."""
    if not root.is_integer():
        return False
    n = abs(int(root.as_fraction()))
    if n == 0:
        return True
    if point is INFINITY:
        _, rs = r.laurent_at_infinity(n + 1)
    else:
        _, rs = r.laurent_at(point, n + 1)
    if any(c.tower is not QQ for c in rs):
        return False
    qs = [c.val for c in rs[1:]]
    d = ilcm(*(q.denominator for q in qs))
    drs = [q.numerator * (d // q.denominator) % _PRIME for q in qs]
    d %= _PRIME
    a = [1]
    for j in range(1, n + 1):
        acc, f = 0, 1  # f = d^(k - 1) P_(j-1) / P_(j-k)
        for k in range(1, j + 1):
            acc += drs[k - 1] * f * a[j - k]
            f = f * d * (j - k) * (j - k - n) % _PRIME
        a.append(acc % _PRIME)
    return a[n] != 0


def classify_point_case1(
    r: RatFunc, point, order=None, root=None
) -> LocalData:
    """Local exponent data for Case 1 at a finite point or INFINITY.

    subcase is None when the point rules Case 1 out (odd pole order
    >= 3, or an odd growth order at infinity).  order, the pole order
    at a finite point, and root, the point's _order2_root where its
    order is 2, are computed when not given.
    """
    zero = Scalar.coerce(0)
    if point is INFINITY:
        o = r.order_at_infinity()
        if o is None or o > 2:
            return LocalData(point, "inf1", Poly([]), zero, Scalar.coerce(1))
        if o == 2:
            if root is None:
                root = _order2_root(r, INFINITY)
            return LocalData(
                point, "inf2", Poly([]), (1 + root) / 2, (1 - root) / 2
            )
        if o <= 0 and o % 2 == 0:
            v = (-o) // 2
            _, t = r.laurent_at_infinity(v + 2)
            u, b = _match_sqrt_head(t, v, 0)
            a = u[v]
            head = Poly([u.get(i, 0) for i in range(v + 1)])
            return LocalData(
                point, "inf3", head, (b / a - v) / 2, (-(b / a) - v) / 2
            )
        return LocalData(point, None, None, None, None)

    c = Scalar.coerce(point)
    if order is None:
        order = r.pole_order(c)
    if order == 0:
        return LocalData(c, "c0", RatFunc.coerce(0), zero, zero)
    if order == 1:
        one = Scalar.coerce(1)
        return LocalData(c, "c1", RatFunc.coerce(0), one, one)
    if order == 2:
        if root is None:
            root = _order2_root(r, c)
        return LocalData(
            c, "c2", RatFunc.coerce(0), (1 + root) / 2, (1 - root) / 2
        )
    if order % 2 == 0:
        v = order // 2
        _, t = r.laurent_at(c, v)
        u, b = _match_sqrt_head(t, v, 2)
        a = u[v]
        lin = Poly([-c, 1])
        head_num = Poly([])
        for i in range(2, v + 1):
            head_num = head_num + lin ** (v - i) * Poly([u.get(i, 0)])
        head = RatFunc(head_num, lin**v)
        return LocalData(c, "c3", head, (b / a + v) / 2, (-(b / a) + v) / 2)
    return LocalData(c, None, None, None, None)


def _monic_poly_solution(images):
    """Monic polynomial of degree m = len(images) - 1 in the kernel of a
    linear operator, or None.  images[j] is the coefficient list of the
    image of x^j, low order first, all images times one nonzero factor.
    Integer rows take the fraction-free solve, tower rows linalg.solve."""
    m = len(images) - 1
    max_deg = -1
    for im in images:
        for k in range(len(im) - 1, max_deg, -1):
            if im[k]:
                max_deg = k
                break
    if max_deg < 0:
        # operator kills every monomial; any monic choice works
        return Poly.monomial(1, m)
    if m == 0:  # the image of 1 is not zero
        return None
    images = [im + [0] * (max_deg + 1 - len(im)) for im in images]
    rows = [[im[k] for im in images[:m]] for k in range(max_deg + 1)]
    rhs = [-c for c in images[m][: max_deg + 1]]
    if all(type(c) is int for im in images for c in im):
        sol = solve_fraction_free(rows, rhs)
    else:
        sol = solve(rows, rhs)
    if sol is None:
        return None
    return Poly(list(sol) + [1])


def verify_case1(r: RatFunc, omega: RatFunc, p: Poly) -> bool:
    """Exact check of P'' + 2 omega P' + (omega' + omega^2 - r) P = 0,
    as the polynomial identity it is times B^2 M for omega = A/B and
    r = N/M:
        B^2 M P'' + 2 A B M P' + (M (A' B - A B' + A^2) - B^2 N) P = 0."""
    r, omega, p = RatFunc.coerce(r), RatFunc.coerce(omega), Poly.coerce(p)
    a, b, m = omega.num, omega.den, r.den
    p1 = p.derivative()
    bm = b * m
    a0 = m * (a.derivative() * b - a * b.derivative() + a * a)
    a0 = a0 - b * b * r.num
    return (b * bm * p1.derivative() + a * bm.scale(2) * p1 + a0 * p).is_zero()


def _rational_part(e: Scalar) -> Fraction:
    """The coordinate of e on 1 in its tower's basis, i.e. its trace
    over Q divided by the degree: Q-linear, and the same in every tower
    that holds e."""
    while e.tower is not QQ:
        e = e.val[0]
    return e.val


def _search(exponents, tags, scale, build):
    """First non-None build(tags of a choice, m) over the choices of one
    exponent per point (tags[i][j] goes with exponents[i][j]) of integer
    degree m = scale * (e_inf - sum e_c) >= 0, in (m, product index)
    order.  The walk keeps partial sums of the rational parts of the
    finite exponents, as integers over one common denominator; when an
    exponent is irrational, the surds of a passing choice must cancel."""
    rational = [[_rational_part(e) for e in es] for es in exponents]
    den = ilcm(*(q.denominator for qs in rational for q in qs))
    modulus = den * scale.denominator
    ints = [
        [scale.numerator * q.numerator * (den // q.denominator) for q in qs]
        for qs in rational
    ]
    surds = None
    if any(e.tower is not QQ for es in exponents for e in es):
        surds = [
            [e - Scalar(QQ, q) for e, q in zip(es, qs)]
            for es, qs in zip(exponents, rational)
        ]
    finite, at_inf = ints[:-1], ints[-1]
    idx = [0] * len(finite)
    sums = [0] * (len(finite) + 1)  # sums[i]: exponents before point i
    stale, candidates = 0, []
    while stale >= 0:
        for i in range(stale, len(finite)):
            sums[i + 1] = sums[i] + finite[i][idx[i]]
        total = sums[-1]
        for j, e in enumerate(at_inf):
            m, rest = divmod(e - total, modulus)
            if rest or m < 0:
                continue
            if surds is not None and not _surds_cancel(surds, idx + [j]):
                continue
            candidates.append((m, idx + [j]))
        # next choice in product order: the last point that can move does
        stale = len(finite) - 1
        while stale >= 0 and idx[stale] == len(finite[stale]) - 1:
            idx[stale] = 0
            stale -= 1
        if stale >= 0:
            idx[stale] += 1
    candidates.sort(key=lambda c: c[0])  # stable: product order within m
    for m, choice in candidates:
        res = build([t[j] for t, j in zip(tags, choice)], m)
        if res is not None:
            return res
    return None


def _surds_cancel(surds, choice):
    """True iff the irrational parts of e_inf - sum e_c sum to zero."""
    acc = surds[-1][choice[-1]]
    for parts, j in zip(surds[:-1], choice):
        acc = acc - parts[j]
    return acc.is_zero()


def case1(r: RatFunc, poles=None, roots=None, setup=None):
    """Kovacic's Case 1: a Case1Result, or None.  setup is the cached
    _chain_setup(r, poles), made here if not given.  Raises
    VerificationError if a found answer fails verify_case1."""
    r = RatFunc.coerce(r)
    root_inf = None if roots is None else roots[-1]
    data_inf = classify_point_case1(r, INFINITY, root=root_inf)
    if data_inf.subcase is None:
        return None
    if poles is None:
        poles = r.poles()
    if roots is None:
        roots = [None] * len(poles)  # classify_point_case1 finds them
    locals_ = []
    for (c, order), root in zip(poles, roots):
        d = classify_point_case1(r, c, order, root)
        if d.subcase is None:
            return None
        locals_.append(d)

    points = locals_ + [data_inf]
    # equal alphas and a zero head (a simple pole): one omega, one sign
    signs = [
        (1,)
        if d.alpha_plus == d.alpha_minus and d.sqrt_head.is_zero()
        else (1, -1)
        for d in points
    ]
    if setup is None:
        setup = cache(partial(_chain_setup, r, poles))

    @cache
    def shares():
        # omega = A/L, as the exponent of x - c in L is omega's pole
        # order at c (that of the head at a c3 pole, else 1).  Each point
        # has a share of A per sign: its head times L, plus alpha L/(x - c)
        # at a finite point.
        l_poly, cofactors, _ = setup()
        out = []
        for d, sgs, f in zip(points, signs, cofactors + [Poly([])]):
            head = RatFunc.coerce(d.sqrt_head)
            head = head.num * l_poly.exact_div(head.den)
            out.append([head.scale(sg) + f.scale(d.alpha(sg)) for sg in sgs])
        return out

    def l_theta(cofactors, choice):
        # a candidate's A = L theta is the sum of the shares it picks
        a = Poly([])
        for share, j in zip(shares(), choice):
            a = a + share[j]
        return a

    build = partial(_chain_build, r, setup, 1, l_theta)
    # a choice picks, per point, the index of its sign
    alphas = [[d.alpha(sg) for sg in sgs] for d, sgs in zip(points, signs)]
    indices = [range(len(sgs)) for sgs in signs]
    return _search(alphas, indices, Fraction(1), build)


def _omega_mod(g, f):
    """Remainder of g by f, both polynomials in omega with RatFunc
    coefficients stored low-first."""
    g = [RatFunc.coerce(c) for c in g]
    while g and g[-1].is_zero():
        g.pop()
    nf = len(f) - 1
    lead = f[-1]
    while len(g) - 1 >= nf:
        c = g[-1] / lead
        shift = len(g) - 1 - nf
        for i, fi in enumerate(f):
            g[shift + i] = g[shift + i] - c * fi
        g.pop()
        while g and g[-1].is_zero():
            g.pop()
    return g


def verify_algebraic_riccati(r: RatFunc, coeffs) -> bool:
    """True iff every root of F(omega) = sum coeffs[i] omega^i solves
    omega' = r - omega^2.

    Checks F_x + F_omega * (r - omega^2) = 0 modulo F, an exact
    computation in C(x)[omega].
    """
    f = [RatFunc.coerce(c) for c in coeffs]
    while f and f[-1].is_zero():
        f.pop()
    if len(f) < 2:
        return False
    n = len(f) - 1
    g = [c.derivative() for c in f] + [RatFunc.coerce(0), RatFunc.coerce(0)]
    # add F_omega * (r - omega^2) = sum i f_i (r omega^(i-1) - omega^(i+1))
    for i in range(1, n + 1):
        fi = f[i] * i
        g[i - 1] = g[i - 1] + fi * r
        g[i + 1] = g[i + 1] - fi
    return not _omega_mod(g, f)


def _exponent_sets(r: RatFunc, poles, roots, center, ns):
    """Per n in ns, lazily: E_c of Cases 2 and 3, finite poles first.  A
    pole of order 2, and infinity of order o >= 2 (b = 0 if o > 2), get
    center + (2 center k / n) sqrt(1 + 4b), |k| <= n/2, in sort_key order;
    a pole of order k > 2 {k}, infinity {o}.  No pole is simple (a
    logarithmic point, _logarithmic).  roots are _order2_roots(r, poles)."""
    local = [
        root if order == 2 else [Scalar.coerce(order)]
        for (_, order), root in zip(poles, roots)
    ]
    o = r.order_at_infinity()
    root = roots[-1] if o == 2 else Scalar.coerce(1)
    local.append(root if o >= 2 else [Scalar.coerce(o)])
    for n in ns:
        sets = []
        for root in local:
            if not isinstance(root, list):  # the set spaced around root
                step = Fraction(2 * center, n) * root
                es = [center + k * step for k in range(-n // 2, n // 2 + 1)]
                es = {e.key(): e for e in es}.values()
                root = sorted(es, key=Scalar.sort_key)
            sets.append(root)
        yield sets


def _chain_setup(r: RatFunc, poles):
    """L = prod (x - c)^ceil(o_c / 2) over the poles of orders o_c, the
    cofactors L / (x - c), and L^2 r: a polynomial, as M divides L^2 for
    r = N/M, taken with no gcd."""
    lins = [Poly([-c, 1]) for c, _ in poles]
    l_poly = Poly([1])
    for lin, (_, order) in zip(lins, poles):
        l_poly = l_poly * lin ** ((order + 1) // 2)
    l2r = (l_poly * l_poly).exact_div(r.den) * r.num
    return l_poly, [l_poly.exact_div(lin) for lin in lins], l2r


def _l_theta(cofactors, exponents, scale):
    """L theta for theta = sum scale e_c / (x - c) over the poles, with
    L / (x - c) in cofactors (_chain_setup)."""
    acc = Poly([])
    for f, e_c in zip(cofactors, exponents):
        acc = acc + f.scale(e_c * scale)
    return acc


def _chain_build(r: RatFunc, setup, n, l_theta_of, choice, m):
    """The candidate builder of Cases 1 (n = 1), 2 (n = 2) and 3: for
    L theta = l_theta_of(cofactors, choice), the monic P of degree m with
    P_{-1} = 0 (_kovacic_chain), or None.  At n = 1 that is Case 1's
    equation, and the certificate is omega = theta (verify_case1); else
    it is omega_poly, sum_i L^i P_i / (n - i)! omega^i, and for Case 2
    its monic form, the quadratic omega^2 - phi omega + (phi' + phi^2 -
    2 r)/2 with phi = theta + P'/P.  setup() is _chain_setup(r, poles);
    a failed check raises VerificationError."""
    l_poly, cofactors, l2r = setup()
    l_theta = l_theta_of(cofactors, choice)
    d, (s, t, r2) = _integer_lists(l_poly, l_theta, l2r)
    images = [
        _kovacic_chain([0] * j + [1], s, t, r2, d, n)[0]
        for j in range(m + 1)
    ]
    p = _monic_poly_solution(images)
    if p is None:
        return None
    theta = RatFunc(l_theta, l_poly)
    if n == 1:
        res = Case1Result(theta, p, m)
        if not verify_case1(r, theta, p):
            raise VerificationError("case-1 identity failed")
        return res
    q_den, (q,) = _integer_lists(p)
    chain = _kovacic_chain(q, s, t, r2, d, n)
    # chain[i + 1] = q_den d^(n-i) P_i
    omega_poly = [
        RatFunc(
            l_poly**i * Poly(chain[i + 1]),
            Poly([q_den * d ** (n - i) * factorial(n - i)]),
        )
        for i in range(n + 1)
    ]
    if n == 2:
        quadratic = tuple(c / omega_poly[2] for c in omega_poly)
        res = Case2Result(theta, p, m, -quadratic[1], quadratic)
        certificate = quadratic
    else:
        res = Case3Result(n, theta, l_poly, p, m, omega_poly)
        certificate = omega_poly
    if not verify_algebraic_riccati(r, certificate):
        raise VerificationError("case-%d certificate failed" % res.case)
    return res


def case2(r: RatFunc, poles=None, roots=None, setup=None):
    """Kovacic's Case 2, for an r whose Case 1 has failed: a Case2Result,
    or None.  A simple pole is a logarithmic point, which D-infinity
    rules out: None at once.  setup is as in case1.  Raises
    VerificationError if a found answer fails its check."""
    r = RatFunc.coerce(r)
    if poles is None:
        poles = r.poles()
    if not poles or any(o == 1 for _, o in poles):
        return None
    if roots is None:
        roots = _order2_roots(r, poles)
    # Kovacic's E_c: {2, 2 +- 2 sqrt(1 + 4b)}, m = (e_inf - sum e_c) / 2
    sets = next(_exponent_sets(r, poles, roots, 2, [2]))
    if setup is None:
        setup = cache(partial(_chain_setup, r, poles))
    l_theta = partial(_l_theta, scale=Fraction(1, 2))
    build = partial(_chain_build, r, setup, 2, l_theta)
    return _search(sets, sets, Fraction(1, 2), build)


def _case3_degrees(roots):
    """The n of Case 3 whose groups have every local projective order
    (Ulmer & Weil 1996): an orbit of 4 on P^1 only A4 has, one of 6 A4
    and S4, one of 12 A4, S4 and A5, whose element orders are {1, 2, 3},
    {1, 2, 3, 4} and {1, 2, 3, 5}.  At a point of order 2 without a
    logarithm the order is the denominator of N = sqrt(1 + 4b), infinite
    for an irrational N; elsewhere, once Case 3 applies, it is 1.  roots
    are _order2_roots(r, poles)."""
    orders = set()
    for root in roots:
        if root is not None:
            if not root.is_rational():
                return ()
            orders.add(root.as_fraction().denominator)
    if orders <= {1, 2, 3}:
        return (4, 6, 12)
    if orders <= {1, 2, 3, 4}:
        return (6, 12)
    return (12,) if orders <= {1, 2, 3, 5} else ()


def case3(r: RatFunc, poles=None, roots=None, setup=None):
    """Kovacic's Case 3, for an r whose Cases 1 and 2 have failed, at
    each n that _case3_degrees allows: a Case3Result, or None.  Poles of
    order 2 only (a simple pole is logarithmic), where L = S, the product
    of x - c, and order >= 2 at infinity, else None at once.  setup is
    as in case1.  Raises VerificationError if a found answer fails its
    check."""
    r = RatFunc.coerce(r)
    if poles is None:
        poles = r.poles()
    if not poles or r.order_at_infinity() < 2:
        return None
    if any(o != 2 for _, o in poles):
        return None
    if roots is None:
        roots = _order2_roots(r, poles)
    if setup is None:
        setup = cache(partial(_chain_setup, r, poles))
    # Kovacic's E_c: 6 + (12 k / n) sqrt(1 + 4b), |k| <= n/2
    ns = _case3_degrees(roots)
    for n, sets in zip(ns, _exponent_sets(r, poles, roots, 6, ns)):
        scale = Fraction(n, 12)
        l_theta = partial(_l_theta, scale=scale)
        build = partial(_chain_build, r, setup, n, l_theta)
        res = _search(sets, sets, scale, build)
        if res is not None:
            return res
    return None


def _integer_lists(*polys):
    """(d, lists): d times each polynomial as an int list, d the least
    common denominator; d = 1 and the Scalar lists when a coefficient is
    irrational."""
    forms = [_rational_coeffs(p) for p in polys]
    if any(f is None for f in forms):
        return 1, [p.coeffs for p in polys]
    d = ilcm(*(den for _, den in forms))
    return d, [[c * (d // den) for c in ints] for ints, den in forms]


def _kovacic_chain(q, s, t, r2, d, n):
    """[Q_{-1}, Q_0, ..., Q_n], Q_i = d^(n-i) P_i, for Kovacic's
    downward recursion P_n = -P,
        P_{i-1} = -L P_i' + ((n-i) L' - L theta) P_i
                  - (n-i)(i+1) L^2 r P_{i+1},
    L^(n-i+1) times the recursion with L = 1, whose P_{-1} at n = 1 is
    minus Case 1's P'' + 2 theta P' + (theta' + theta^2 - r) P, and at
    n = 2 Case 2's P''' + 3 theta P'' + (3 theta' + 3 theta^2 - 4 r) P'
    + (theta'' + 3 theta theta' + theta^3 - 4 r theta - 2 r') P.  It runs
    on coefficient lists (ints, or Scalars when irrational) with s = d L,
    t = d L theta, r2 = d L^2 r and q the list of P:
        Q_{i-1} = -s Q_i' + ((n-i) s' - t) Q_i - (n-i)(i+1) d r2 Q_{i+1}.
    """
    s1 = [k * c for k, c in enumerate(s)][1:]
    chain = [[-c for c in q]]
    above = []  # Q_{i+1}
    for i in range(n, -1, -1):
        qi = chain[-1]
        out = []
        _add_product(out, s, [k * c for k, c in enumerate(qi)][1:], -1)
        _add_product(out, s1, qi, n - i)
        _add_product(out, t, qi, -1)
        _add_product(out, r2, above, -(n - i) * (i + 1) * d)
        above = qi
        chain.append(out)
    chain.reverse()
    return chain


def _add_product(out, f, g, c):
    """out += c f g for coefficient lists, low order first; c an int.
    The low zeros of g are skipped: the image of x^j has j of them."""
    if not (c and f and g):
        return
    need = len(f) + len(g) - 1
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    low = 0
    while low < len(g) and not g[low]:
        low += 1
    g = g[low:]
    for i, fi in enumerate(f, low):
        if fi:
            fi = c * fi
            for j, gj in enumerate(g, i):
                out[j] += fi * gj


def solve_rlde(e) -> object:
    """Full decision: Case1/Case2/Case3 result, or Case4Result.  Once
    Case 1 has failed, a logarithmic point means Case 4."""
    if isinstance(e, ReducedODE):
        r = e.rho
    else:
        r = RatFunc.coerce(e)
    poles = r.poles()
    roots = _order2_roots(r, poles)
    setup = cache(partial(_chain_setup, r, poles))
    res = case1(r, poles, roots, setup)
    if res is None and not _logarithmic(r, poles, roots):
        res = case2(r, poles, roots, setup)
        if res is None:
            res = case3(r, poles, roots, setup)
    return Case4Result() if res is None else res


def second_solution(res: Case1Result) -> SecondSolution:
    """xi_2 = xi_1 int exp(-2 int omega)/P^2 dx from a Case 1 result."""
    xi1 = res.solution()
    inner = FormalProduct(
        1, ((RatFunc.coerce(res.p), -2),), -2 * res.omega
    )
    return SecondSolution(xi1, FormalIntegral(inner))
