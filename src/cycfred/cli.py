"""Batch front end: model construction, verification suites, pairing
evaluation and witness dumps, all through the JSON formats of serialize.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
Reports are written even when verification fails.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import dga, models
from .algebra import matrix_units_algebra, pointwise_algebra, upper_triangular_algebra
from .chern import (
    PerturbationChain,
    curvature,
    run_verification_suite,
    verify_perturbation_invariance,
)
from .cyclic import DERIVED_TOL, MAX_N, WITNESS_TOL, _check_budget
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


def cmd_make_model(args) -> int:
    flag, size = ("--N", args.N) if args.kind.startswith("hardy") else ("--n", args.n)
    if _positive(size, flag) > MAX_N:
        raise BudgetError(f"{flag} {size} exceeds the budget {MAX_N}")
    if args.kind == "hardy":
        _, module = models.discrete_hardy(args.N)
    elif args.kind == "hardy-graded":
        _, module = models.discrete_hardy_graded(args.N, seed=args.seed)
    elif args.kind == "even":
        _check_budget(_positive(args.base_dim, "--base-dim"), 2)
        _, module = models.toy_even_module(args.n, seed=args.seed, m=args.m or 3,
                                           base_dim=args.base_dim)
    elif args.kind == "reflection":
        module = models.random_reflection_module(args.n, _algebra_by_name(args.algebra),
                                                 seed=args.seed, m=args.m or 2)
    else:
        raise InputError(f"unknown model kind '{args.kind}'")
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
    module = load_module(args.module, args.m, args.budget_n)
    T = _load_perturbation(args, module)
    report = run_verification_suite(module, T, tol=args.tol, seed=args.seed)
    if "witness" in report:                # a failing module stops the suite before the witness
        psi = report["witness"].pop("witness")
        if args.dump_witness:
            report["witness_dump"] = _witness_dump(module, T, psi)
    if args.report:
        dump_json(report, args.report)
    for key, sub in report.items():
        if isinstance(sub, dict) and "pass" in sub:
            print(f"{key}: {'PASS' if sub['pass'] else 'FAIL'}")
    print(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _terms(x) -> list:
    return [f"t^{k}{' dt' if e else ''} (x) {dga.word_str(w, c)}"
            for (k, e, w), c in sorted(x.terms.items(), key=str)]


def _witness_dump(module, T, psi) -> dict:
    """The symbolic curvature and connection terms, and the witness psi already built."""
    chain = PerturbationChain(module, T)
    dump = {
        "curvature_terms": _terms(curvature(chain)),
        "connection_on_generators": {
            chain.at.labels[i]: _terms(chain.nabla_rho_basis(i)) for i in range(chain.at.dim)
        },
    }
    dump["witness_components"] = (
        [] if psi is None else [array_to_json(c) for c in psi.components]
    )
    return dump


def cmd_witness(args) -> int:
    module = load_module(args.module, args.m, args.budget_n)
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
    if args.dump_witness:
        out["witness_dump"] = _witness_dump(module, T, psi)
    if args.report:
        dump_json(out, args.report)
    print(f"witness residual {report['max_residual']:.3e} "
          f"({'PASS' if report['pass'] else 'FAIL'})")
    return 0 if report["pass"] else 1


def cmd_pair(args) -> int:
    module = load_module(args.module, args.m, args.budget_n)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cycfred")
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-model", help="construct a built-in module and write it to JSON")
    mk.add_argument("kind", choices=["hardy", "hardy-graded", "even", "reflection"])
    mk.add_argument("--N", type=int, default=16)
    mk.add_argument("--n", type=int, default=4)
    mk.add_argument("--m", type=int, default=0)
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("--base-dim", type=int, default=2)
    mk.add_argument("--algebra", default="ut2")
    mk.add_argument("-o", "--output", required=True)
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
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--tol", type=float, default=WITNESS_TOL)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report")
        p.add_argument("--budget-n", type=int, default=0)
        p.add_argument("--dump-witness", action="store_true")
        p.set_defaults(func=fn)

    pp = sub.add_parser("pair")
    pp.add_argument("--module", required=True)
    pp.add_argument("--logs", required=True)
    pp.add_argument("--perturbation")
    pp.add_argument("--m", type=int, default=0)
    pp.add_argument("--tol", type=float, default=DERIVED_TOL)
    pp.add_argument("--report")
    pp.add_argument("--budget-n", type=int, default=0)
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
    except (InputError, BudgetError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
