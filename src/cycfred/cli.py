"""Batch front end: model construction, verification suites, witnesses and
pairing evaluation, all through the JSON formats of serialize.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
Reports are written even when verification fails.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import models
from .algebra import matrix_units_algebra, pointwise_algebra, upper_triangular_algebra
from .chern import run_verification_suite, verify_perturbation_invariance
from .cyclic import DERIVED_TOL, MAX_M, MAX_N, WITNESS_TOL, _check_budget
from .errors import BudgetError, InputError
from .fredholm import perturb
from .pairing import c_constant, mult_char_exponentials, lattice_reduce
from .serialize import (
    array_to_json,
    dump_json,
    load_json,
    load_module,
    logs_from_json,
    module_to_json,
    perturbation_from_json,
    perturbation_to_json,
    to_json,
)


def _positive(value, what: str) -> int:
    try:
        value = int(value)
    except ValueError:
        raise InputError(f"{what} must be an integer, got '{value}'") from None
    if value < 1:
        raise InputError(f"{what} must be positive, got {value}")
    return value


def _algebra_by_name(name: str):
    """The algebra of an --algebra spec, its structure tensor budgeted before it is built."""
    if name == "ut2":
        return upper_triangular_algebra()
    kind, _, arg = name.partition(":")
    if kind == "pointwise":
        d = _positive(arg, "the <d> of pointwise:<d>")
        _check_budget(d, 2)
        return pointwise_algebra(d)
    if kind == "matrix":
        k = _positive(arg, "the <k> of matrix:<k>")
        _check_budget(k * k, 2)
        return matrix_units_algebra(k)
    raise InputError(f"unknown algebra spec '{name}' (use ut2, pointwise:<d>, matrix:<k>)")


# The options each make-model kind reads, with their defaults; a kind
# accepts no other option.
MODEL_OPTIONS = {
    "hardy": {"--N": 16},
    "hardy-graded": {"--N": 16, "--seed": 0},
    "even": {"--n": 4, "--m": 3, "--seed": 0, "--algebra": "pointwise:2"},
    "reflection": {"--n": 4, "--m": 2, "--seed": 0, "--algebra": "ut2"},
}


def cmd_make_model(args) -> int:
    flag, size = ("--N", args.N) if args.kind.startswith("hardy") else ("--n", args.n)
    if _positive(size, flag) > MAX_N:
        raise BudgetError(f"{flag} {size} exceeds the budget {MAX_N}")
    if args.kind == "hardy":
        _, module = models.discrete_hardy(args.N)
    elif args.kind == "hardy-graded":
        _, module = models.discrete_hardy_graded(args.N, seed=args.seed)
    else:
        if not 1 <= args.m <= MAX_M:
            raise BudgetError(f"--m {args.m} is outside 1..{MAX_M}")
        algebra = _algebra_by_name(args.algebra)
        if args.kind == "even":
            _, module = models.toy_even_module(args.n, seed=args.seed, m=args.m, algebra=algebra)
        else:
            module = models.random_reflection_module(args.n, algebra, seed=args.seed, m=args.m)
    dump_json(module_to_json(module), args.output)
    print(f"wrote {args.kind} module (n={module.n}, m={module.m}) to {args.output}")
    return 0


def cmd_make_perturbation(args) -> int:
    if not math.isfinite(args.eps):
        raise InputError(f"--eps must be a finite number, got {args.eps}")
    module = load_module(args.module)
    T = models.conjugation_perturbation(module, seed=args.seed, strength=args.eps)
    if not np.isfinite(T).all():
        raise InputError(f"--eps {args.eps} overflows: the perturbation has non-finite entries")
    dump_json(perturbation_to_json(T), args.output)
    print(f"wrote conjugation perturbation (eps={args.eps}, seed={args.seed}) to {args.output}")
    return 0


def _load_perturbation(args, module):
    if args.perturbation:
        return perturbation_from_json(load_json(args.perturbation), module.n)
    return np.zeros((module.n, module.n), dtype=complex)


def cmd_verify(args) -> int:
    module = load_module(args.module, args.m)
    T = _load_perturbation(args, module)
    report = run_verification_suite(module, T, tol=args.tol, seed=args.seed)
    if "witness" in report:       # a failing module stops the suite before the witness
        del report["witness"]["witness"]       # psi is written by `witness --report`
    if args.report:
        dump_json(report, args.report)
    for key, sub in report.items():
        if isinstance(sub, dict) and "pass" in sub:
            print(f"{key}: {'PASS' if sub['pass'] else 'FAIL'}")
    print(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def cmd_witness(args) -> int:
    module = load_module(args.module, args.m)
    T = _load_perturbation(args, module)
    report = verify_perturbation_invariance(module, T, tol=args.tol)
    psi = report.pop("witness", None)
    out = {
        "pass": report["pass"],
        "max_residual": report["max_residual"],
        "worst_tuple": report["worst_tuple"],
        "reduced": report["reduced"],
        "witness_degrees": report["witness_degrees"],
        "components": [] if psi is None else [array_to_json(c) for c in psi.components],
    }
    if args.report:
        dump_json(out, args.report)
    print(f"witness residual {report['max_residual']:.3e} "
          f"({'PASS' if report['pass'] else 'FAIL'})")
    return 0 if report["pass"] else 1


def cmd_pair(args) -> int:
    module = load_module(args.module, args.m)
    exponents, logs = logs_from_json(load_json(args.logs))
    value = mult_char_exponentials(module, exponents, logs, tol=args.tol)
    reduced = lattice_reduce(value.representative, module.m)
    # the same contraction before the c(m) scale; c(m) is never zero
    raw_pairing = value.representative / complex(c_constant(module.m))
    out = {
        "representative": [value.representative.real, value.representative.imag],
        "reduced_representative": [reduced.representative.real, reduced.representative.imag],
        "modulus_exponent": value.modulus_exponent,
        "raw_pairing": [raw_pairing.real, raw_pairing.imag],
    }
    if args.perturbation:
        perturbed = perturb(module, _load_perturbation(args, module))
        post = mult_char_exponentials(perturbed, exponents, logs, tol=args.tol)
        out["representative_after_perturbation"] = [
            post.representative.real, post.representative.imag,
        ]
    if args.report:
        dump_json(out, args.report)
    print(to_json(out))
    return 0


class _Parser(argparse.ArgumentParser):
    """Parse errors raise InputError, so they exit 2 with one line like any bad input.
    Subparsers are built with the class of their parent."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycfred")
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-model", help="construct a built-in module and write it to JSON")
    kinds = mk.add_subparsers(dest="kind", required=True)
    for kind, options in MODEL_OPTIONS.items():
        p = kinds.add_parser(kind)
        for flag, default in options.items():
            p.add_argument(flag, type=type(default), default=default)
        p.add_argument("-o", "--output", required=True)
    mk.set_defaults(func=cmd_make_model)

    mp = sub.add_parser("make-perturbation", help="seeded conjugation perturbation of a module")
    mp.add_argument("--module", required=True)
    mp.add_argument("--eps", type=float, default=0.1)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("-o", "--output", required=True)
    mp.set_defaults(func=cmd_make_perturbation)

    for name, fn in (("verify-invariance", cmd_verify), ("witness", cmd_witness)):
        p = sub.add_parser(name)
        p.add_argument("--module", required=True)
        p.add_argument("--perturbation")
        p.add_argument("--m", type=int)
        p.add_argument("--tol", type=float, default=WITNESS_TOL)
        if fn is cmd_verify:            # the seed of the identity ladder's random cochains
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report")
        p.set_defaults(func=fn)

    pp = sub.add_parser("pair")
    pp.add_argument("--module", required=True)
    pp.add_argument("--logs", required=True)
    pp.add_argument("--perturbation")
    pp.add_argument("--m", type=int)
    pp.add_argument("--tol", type=float, default=DERIVED_TOL)
    pp.add_argument("--report")
    pp.set_defaults(func=cmd_pair)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be non-negative, got {args.seed}")
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:     # a NaN fails this too
            raise InputError(f"--tol must be a finite non-negative number, got {args.tol}")
        return args.func(args)
    except (InputError, BudgetError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
