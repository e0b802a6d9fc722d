"""Command-line front end.

Subcommands: solve (Kovacic on one equation in any of the three input
forms), criteria (closed-form family tests), darboux (cofactors and
Darboux combinations for a planar field) and apply (the end-to-end
pipelines).  Output is a JSON report on stdout, or its text rendering;
diagnostics go to stderr.  Exit codes: 0 verdict computed, 2 syntax
or usage error, 3 unsupported field or parameter combination, 4 an
internal fault: failed verification or a broken kernel invariant.

Every artifact is checked once against its defining identity before
it is emitted (a Kovacic certificate by the builder that found it); a
failed check exits 4, and the check cannot be switched off.
"""

import argparse
import functools
import sys
import time
from fractions import Fraction

from .applications import (
    AbelLienardParams,
    DegenerateDiscriminant,
    Lienard1Params,
    S1Params,
    S2Params,
    SingularParameterCombination,
    Unsupported,
    abel_lienard_reduce,
    lienard1_reduce,
    s1_analyze,
    s2_classify,
    worked_examples,
)
from .darboux import DarbouxObject, darboux_combination, AlgebraicCurve
from .exprparse import (
    ParseError,
    parse_bivarpoly,
    parse_ratfunc,
    parse_scalar,
    parse_vectorfield,
    print_canonical,
)
from .kovacic import solve_rlde
from .odeforms import (
    NotRiccatiError,
    ReducedODE,
    RiccatiGeneral,
    SecondOrderODE,
    transform_S,
    transform_T,
)
from .poly import InexactDivision
from .ratfunc import RatFunc
from .reports import Report, VerificationError, render_text, to_json
from .scalars import (
    Scalar,
    UnsupportedFieldError,
    get_max_tower_depth,
    set_max_tower_depth,
)
from .specialfn import (
    BiconfluentParams,
    ExponentDiffs,
    LameParams,
    WhittakerParams,
    bessel_test,
    biconfluent_heun_test,
    kimura_test,
    lame_classify,
    martinet_ramis_test,
)

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _text_arg(value):
    if value == "-":
        return sys.stdin.read()
    return value


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParseError("--param expects NAME=VALUE", 0)
        params[name] = parse_scalar(value)
    return params


def _require(params, *names):
    values = []
    for name in names:
        if name not in params:
            raise ParseError("missing --param %s=..." % name, 0)
        values.append(params[name])
    return values


def _verdict_fields(verdict):
    fields = {"status": verdict.status, "reason": verdict.reason}
    if isinstance(verdict.detail, dict):
        for key, value in sorted(verdict.detail.items()):
            fields[key] = (
                value if isinstance(value, (int, bool)) else str(value)
            )
    return fields


# -- solve -----------------------------------------------------------------


def _solve_input(args, params, report):
    if args.rho is not None:
        rho = parse_ratfunc(_text_arg(args.rho), params=params)
        report.set_input("rho", print_canonical(rho))
        report.add_trace("input taken as xi'' = rho xi")
        return ReducedODE(rho)
    if args.b1 is not None or args.b0 is not None:
        if args.b1 is None or args.b0 is None:
            raise ParseError("--b1 and --b0 must be given together", 0)
        b1 = parse_ratfunc(_text_arg(args.b1), params=params)
        b0 = parse_ratfunc(_text_arg(args.b0), params=params)
        report.set_input("b1", print_canonical(b1))
        report.set_input("b0", print_canonical(b0))
        reduced, mult = transform_S(SecondOrderODE(b1, b0))
        report.add_trace(
            "removed the first-order term: y = xi * exp(int (%s))"
            % print_canonical(mult.exponent)
        )
        report.add_trace("rho = %s" % print_canonical(reduced.rho))
        return reduced
    if args.a0 is not None or args.a1 is not None or args.a2 is not None:
        if args.a0 is None or args.a1 is None or args.a2 is None:
            raise ParseError("--a0, --a1, --a2 must be given together", 0)
        coeffs = [
            parse_ratfunc(_text_arg(t), params=params)
            for t in (args.a0, args.a1, args.a2)
        ]
        for name, value in zip(("a0", "a1", "a2"), coeffs):
            report.set_input(name, print_canonical(value))
        reduced_ric, sub = transform_T(RiccatiGeneral(*coeffs))
        report.add_trace(
            "normalized the Riccati equation: v = (%s) + (%s) w"
            % (print_canonical(sub.alpha), print_canonical(sub.beta))
        )
        report.add_trace("rho = %s" % print_canonical(reduced_ric.r))
        return ReducedODE(reduced_ric.r)
    raise ParseError(
        "solve needs --rho, or --b1/--b0, or --a0/--a1/--a2", 0
    )


def cmd_solve(args, params) -> Report:
    report = Report("solve")
    equation = _solve_input(args, params, report)
    res = solve_rlde(equation)
    report.add_trace("Kovacic case %d" % res.case)
    report.set_verdict(case=res.case, liouvillian=res.case != 4)
    if res.case == 1:
        report.add_artifact("omega", print_canonical(res.omega))
        report.add_artifact("p", print_canonical(res.p))
        report.add_artifact("solution", str(res.solution()))
    elif res.case == 2:
        report.add_artifact(
            "quadratic",
            [print_canonical(RatFunc.coerce(c)) for c in res.quadratic],
        )
    elif res.case == 3:
        report.set_verdict(degree=res.n)
        report.add_artifact(
            "minimal_polynomial",
            [print_canonical(RatFunc.coerce(c)) for c in res.omega_poly],
        )
    return report


# -- criteria --------------------------------------------------------------


def _scalar_flag(args, name):
    value = getattr(args, name)
    if value is None:
        raise ParseError("criteria %s needs --%s" % (args.family, name), 0)
    return parse_scalar(value)


def cmd_criteria(args, params) -> Report:
    report = Report("criteria")
    family = args.family
    report.set_input("family", family)
    if family == "kimura":
        lam, mu, nu = (_scalar_flag(args, n) for n in ("l", "m", "n"))
        for name, v in zip(("l", "m", "n"), (lam, mu, nu)):
            report.set_input(name, print_canonical(v))
        verdict = kimura_test(ExponentDiffs(lam, mu, nu))
    elif family == "whittaker":
        kappa = _scalar_flag(args, "kappa")
        mu = _scalar_flag(args, "mu")
        report.set_input("kappa", print_canonical(kappa))
        report.set_input("mu", print_canonical(mu))
        verdict = martinet_ramis_test(WhittakerParams(kappa, mu))
    elif family == "bessel":
        n = _scalar_flag(args, "n")
        report.set_input("n", print_canonical(n))
        verdict = bessel_test(n)
    elif family == "biconfluent-heun":
        deltas = [_scalar_flag(args, n) for n in ("d0", "d1", "d2", "d3")]
        for name, v in zip(("d0", "d1", "d2", "d3"), deltas):
            report.set_input(name, print_canonical(v))
        verdict = biconfluent_heun_test(BiconfluentParams(*deltas))
    elif family == "lame":
        values = [_scalar_flag(args, n) for n in ("n", "b", "g2", "g3")]
        for name, v in zip(("n", "b", "g2", "g3"), values):
            report.set_input(name, print_canonical(v))
        label, detail = lame_classify(LameParams(*values))
        report.set_verdict(label=label)
        if detail:
            for key, value in sorted(detail.items()):
                report.set_verdict(**{key: str(value)})
        return report
    else:
        raise ParseError("unknown family %r" % family, 0)
    report.set_verdict(**_verdict_fields(verdict))
    return report


# -- darboux ---------------------------------------------------------------


def cmd_darboux(args, params) -> Report:
    report = Report("darboux")
    field = parse_vectorfield(_text_arg(args.field), params=params)
    report.set_input("field", print_canonical(field))
    report.add_artifact(
        "divergence", print_canonical(field.divergence())
    )
    curves = []
    for idx, src in enumerate(args.curve or []):
        f = parse_bivarpoly(_text_arg(src), params=params)
        name = "curve_%d" % idx
        report.set_input(name, print_canonical(f))
        k = field.cofactor_of(f)
        if k is None:
            report.add_artifact(name + "_cofactor", "not invariant")
            continue
        curves.append(AlgebraicCurve(f, k))
        report.add_artifact(name + "_cofactor", print_canonical(k))
    if not curves:
        report.set_verdict(combination="none", invariant_curves=0)
        return report
    report.set_verdict(invariant_curves=len(curves))
    for kind in (
        DarbouxObject.FIRST_INTEGRAL,
        DarbouxObject.INTEGRATING_FACTOR,
    ):
        combo = darboux_combination(curves, [], field, kind)
        if combo is None:
            continue
        if not combo.verify(field):
            raise VerificationError("Darboux combination failed to verify")
        report.set_verdict(
            combination=kind,
        )
        report.add_artifact(
            "exponents", [print_canonical(e) for e in combo.exponents]
        )
        return report
    report.set_verdict(combination="none")
    return report


# -- apply -----------------------------------------------------------------


def _as_fraction(value: Scalar, name):
    if not value.is_rational():
        raise Unsupported("%s must be rational" % name)
    return value.as_fraction()


def cmd_apply(args, params) -> Report:
    report = Report("apply")
    pipeline = args.pipeline
    report.set_input("pipeline", pipeline)
    if pipeline == "s1":
        values = _require(params, "eps", "lam", "b20", "b11", "b02")
        ana = s1_analyze(S1Params(*values))
        for line in ana.trace:
            report.add_trace(line)
        report.set_verdict(**_verdict_fields(ana.verdict))
        report.set_verdict(
            condition_a1=ana.condition_a1, condition_b1=ana.condition_b1
        )
        report.add_artifact("kappa", print_canonical(ana.kappa))
        report.add_artifact("mu", print_canonical(ana.mu))
    elif pipeline == "s2":
        values = _require(params, "eps", "lam", "b20", "b11", "b02")
        report.set_verdict(classification=s2_classify(S2Params(*values)))
    elif pipeline == "lienard1":
        a, b, c, m, k = _require(params, "a", "b", "c", "m", "k")
        red = lienard1_reduce(
            Lienard1Params(
                a, b, c, _as_fraction(m, "m"), _as_fraction(k, "k")
            )
        )
        for line in red.trace:
            report.add_trace(line)
        report.set_verdict(**_verdict_fields(red.verdict))
        report.add_artifact("mu", print_canonical(red.mu))
        report.add_artifact(
            "nu_quadratic",
            [print_canonical(cf) for cf in red.nu_quadratic],
        )
        report.add_artifact(
            "nu_roots", [print_canonical(r) for r in red.nu_roots]
        )
    elif pipeline == "abel":
        values = _require(
            params, "a", "b", "c", "alpha", "beta", "gamma"
        )
        red = abel_lienard_reduce(AbelLienardParams(*values))
        for line in red.trace:
            report.add_trace(line)
        report.set_verdict(**_verdict_fields(red.verdict))
        if red.params is not None:
            report.add_artifact(
                "deltas",
                [
                    print_canonical(d)
                    for d in (
                        red.params.delta0,
                        red.params.delta1,
                        red.params.delta2,
                        red.params.delta3,
                    )
                ],
            )
        report.add_artifact("rho", print_canonical(red.rho))
    elif pipeline == "examples":
        cases = {}
        for ex in worked_examples():
            cases[ex.name] = ex.case
            if ex.first_integral is not None:
                report.add_artifact(
                    ex.name + "_first_integral", ex.first_integral
                )
        report.set_verdict(**cases)
    else:
        raise ParseError("unknown pipeline %r" % pipeline, 0)
    return report


# -- driver ----------------------------------------------------------------


def _tower_depth(text):
    depth = int(text)
    if depth < 0:
        raise argparse.ArgumentTypeError("tower depth must be non-negative")
    return depth


@functools.cache
def build_parser():
    # one shared parser, built on first use (not at import); do not modify it
    parser = argparse.ArgumentParser(prog="riccati-galois")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        p.add_argument("--json", action="store_true")
        p.add_argument("--text", action="store_true")
        p.add_argument("--no-timing", action="store_true")
        p.add_argument("--tower-depth", type=_tower_depth, default=2)

    solve = sub.add_parser("solve")
    solve.add_argument("--rho")
    solve.add_argument("--b1")
    solve.add_argument("--b0")
    solve.add_argument("--a0")
    solve.add_argument("--a1")
    solve.add_argument("--a2")
    common(solve)

    criteria = sub.add_parser("criteria")
    criteria.add_argument(
        "family",
        choices=["kimura", "whittaker", "bessel", "biconfluent-heun", "lame"],
    )
    for flag in (
        "l",
        "m",
        "n",
        "kappa",
        "mu",
        "d0",
        "d1",
        "d2",
        "d3",
        "b",
        "g2",
        "g3",
    ):
        criteria.add_argument("--" + flag)
    common(criteria)

    darboux = sub.add_parser("darboux")
    darboux.add_argument("field")
    darboux.add_argument("--curve", action="append")
    common(darboux)

    apply_ = sub.add_parser("apply")
    apply_.add_argument(
        "pipeline", choices=["s1", "s2", "lienard1", "abel", "examples"]
    )
    common(apply_)

    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "criteria": cmd_criteria,
    "darboux": cmd_darboux,
    "apply": cmd_apply,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the depth is a process global; put it back for later callers
    previous = get_max_tower_depth()
    set_max_tower_depth(args.tower_depth)
    try:
        return _run(args)
    finally:
        set_max_tower_depth(previous)


def _run(args) -> int:
    started = time.perf_counter()
    try:
        params = _parse_params(args.param)
        report = _COMMANDS[args.command](args, params)
    except ParseError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return EXIT_SYNTAX
    except InexactDivision as exc:
        # a ValueError, but a broken kernel invariant, not a bad input
        print("internal fault: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (
        UnsupportedFieldError,
        Unsupported,
        DegenerateDiscriminant,
        SingularParameterCombination,
        NotRiccatiError,
        ValueError,
    ) as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    seconds = None if args.no_timing else time.perf_counter() - started
    data = report.finish(seconds)
    if args.json:
        sys.stdout.write(to_json(data))
    else:
        sys.stdout.write(render_text(data))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
