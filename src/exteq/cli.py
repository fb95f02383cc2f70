"""Command-line front end.

Subcommands cover the pipeline stages (check-presentation, ball,
cocycle-table, build: the FPA and PPA of one pipeline build in one file,
verify-invariants) and the end-to-end equation driver (reduce, solve,
lift, demo-t1s).

Exit codes: 0 success, 1 no-solution-within-bounds, 2 unsolvable,
3 usage or input errors, 4 verification failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from . import files
from .errors import ExtEqError
from .extension import sigma_q, sigma_rho
from .fpa_ppa import check_fpa_key_property, check_ppa_key_property
from .reduction import (
    NO_SOLUTION_WITHIN_BOUNDS,
    SOLVED,
    UNSOLVABLE,
    Pipeline,
    SolveConfig,
    check_in_extension,
    finite_diameter,
    solve,
    triangularize,
)
from .words import build_ball, check_small_cancellation

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_UNSOLVABLE = 2
EXIT_USAGE = 3
EXIT_VERIFY = 4

_STATUS_EXIT = {
    SOLVED: EXIT_OK,
    NO_SOLUTION_WITHIN_BOUNDS: EXIT_NO_SOLUTION,
    UNSOLVABLE: EXIT_UNSOLVABLE,
}


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_extension(path: str):
    return files.extension_from_json(files.load_json(path), path)


def _load_presentation(path: str):
    obj = files.load_json(path)
    if isinstance(obj, dict) and "presentation" in obj:
        return files.presentation_from_json(obj["presentation"], f"{path}.presentation")
    return files.presentation_from_json(obj, path)


# -- subcommands --------------------------------------------------------


def cmd_check_presentation(args) -> int:
    p = _load_presentation(args.input)
    payload = {
        "generators": [x for x in p.alphabet.letters if x == x.lower()],
        "relators": list(p.relators),
        "sc_fraction": str(p.sc_fraction) if p.sc_fraction else None,
    }
    lines = [f"generators: {' '.join(payload['generators'])}",
             f"relators: {', '.join(p.relators) or '(none)'}"]
    ok = True
    if p.sc_fraction is not None:
        report = check_small_cancellation(p, p.sc_fraction)
        ok = report.passed
        payload["small_cancellation"] = {
            "fraction": str(p.sc_fraction),
            "passed": report.passed,
            "longest_piece": report.longest_piece,
        }
        lines.append(
            f"small cancellation C'({p.sc_fraction}): "
            f"{'passed' if ok else 'FAILED'} "
            f"(longest piece {report.longest_piece})"
        )
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_ball(args) -> int:
    p = _load_presentation(args.input)
    ball = build_ball(p, args.radius)
    sizes = [
        sum(1 for dd in ball.distances if dd <= r) for r in range(args.radius + 1)
    ]
    closed = finite_diameter(ball) is not None
    payload = {"radius": args.radius, "sizes": sizes,
               "reduced_edges": ball.reduced_edges, "closed": closed}
    _emit(args, payload, [
        f"ball sizes by radius: {sizes}",
        f"edges sent to the reducer: {ball.reduced_edges} of "
        f"{len(ball) * len(p.alphabet.letters)}",
        f"closed (finite group seen whole): {closed}",
    ])
    return EXIT_OK


def cmd_cocycle_table(args) -> int:
    ext = _load_extension(args.input)
    ball = build_ball(ext.base, args.radius)
    rows = []
    for g in ball.words:
        for h in ball.words:
            rows.append({
                "g": g,
                "h": h,
                "sigma_rho": list(sigma_rho(ext, g, h).coords()),
                "sigma_q": list(sigma_q(ext, g, h).coords()),
            })
    lines = ["g\th\tsigma_rho\tsigma_q"]
    lines += [
        f"{r['g'] or '1'}\t{r['h'] or '1'}\t{r['sigma_rho']}\t{r['sigma_q']}"
        for r in rows
    ]
    _emit(args, {"radius": args.radius, "table": rows}, lines)
    return EXIT_OK


def cmd_build(args) -> int:
    # kappa2 bounds only the Theta stream, which no build output reads
    pipe = Pipeline.build(_load_extension(args.input), kappa2=0,
                          R_validate=args.r_validate)
    F, D, R = pipe.F, pipe.D, pipe.F.validated_radius
    branches = D.branch_values()
    rank = pipe.ext.kernel.rank
    if args.out:
        files.save_json(args.out, {
            "format_version": files.FORMAT_VERSION,
            "validated_radius": R,
            "fpa": {
                "automaton": files.automaton_to_json(F.graph),
                "accepting": sorted(F.live),
                "readout": {
                    str(s): {
                        x: files.kernel_element_to_json(F.a_of(s, x))
                        for x in F.graph.alphabet.letters
                    }
                    for s in sorted(F.live)
                },
            },
            "ppa": {
                "automaton": files.automaton_to_json(D.fsa),
                "branches": [
                    {"bits": list(d.coords()[:rank]), "torsion": list(d.coords()[rank:])}
                    for d in branches
                ],
            },
        })
    payload = {
        "fpa_states": F.graph.n_states,
        "accepting": len(F.live),
        "ppa_states": D.fsa.n_states,
        "branches": len(branches),
        "validated_radius": R,
        "out": args.out,
    }
    _emit(args, payload, [
        f"FPA: {F.graph.n_states} states, {len(F.live)} accepting",
        f"PPA: {D.fsa.n_states} states, {len(branches)} parity branches",
        f"validated to radius {R}" + (f", written to {args.out}" if args.out else ""),
    ])
    return EXIT_OK


def cmd_verify_invariants(args) -> int:
    # kappa2 bounds only the Theta stream, which the checks never read;
    # the PPA check reads the cocycle tables over the pipeline's ball, so
    # the ball must reach the radius
    R = args.radius
    pipe = Pipeline.build(_load_extension(args.input), kappa2=0,
                          R_validate=args.r_validate, ball_radius=R)
    fpa_report = check_fpa_key_property(pipe.F, R, max(R - 2, 0))
    ppa_report = check_ppa_key_property(pipe.D, pipe.cocycles, R)
    ok = fpa_report.passed and ppa_report.passed
    payload = {
        "radius": R,
        "fpa": {"passed": fpa_report.passed,
                "counterexamples": len(fpa_report.mismatches)},
        "ppa": {"passed": ppa_report.passed,
                "counterexamples": len(ppa_report.mismatches)},
    }
    _emit(args, payload, [
        f"FPA key property to radius {R}: {'passed' if fpa_report.passed else 'FAILED'}",
        f"PPA key property to radius {R}: {'passed' if ppa_report.passed else 'FAILED'}",
    ])
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_reduce(args) -> int:
    ext = _load_extension(args.input)
    sys_ = files.equation_system_from_json(files.load_json(args.equations), ext,
                                           args.equations)
    from .extension import identity

    tri = triangularize(sys_, identity(ext))
    base_constants = {k: e.g for k, e in sys_.constants.items()}
    payload = {
        "rows": [list(r) for r in tri.rows],
        "fresh": list(tri.fresh),
        "fresh_defs": [[n, list(d)] for n, d in tri.fresh_defs],
        "base_constants": base_constants,
    }
    lines = ["triangular rows:"]
    lines += ["  " + " ".join(r) for r in tri.rows]
    lines.append(f"fresh variables: {', '.join(tri.fresh) or '(none)'}")
    lines.append("base-group constants: "
                 + ", ".join(f"{k}={v or '1'}" for k, v in base_constants.items()))
    _emit(args, payload, lines)
    return EXIT_OK


def _load_hints(path: Optional[str], alphabet):
    if not path:
        return ()
    obj = files.load_json(path)
    if not isinstance(obj, list):
        raise ExtEqError(f"{path}: expected a list of assignment objects")
    letters = set(alphabet.letters)
    for i, hint in enumerate(obj):
        if not isinstance(hint, dict) or not all(isinstance(w, str) for w in hint.values()):
            raise ExtEqError(f"{path}[{i}]: expected an object mapping variables to words")
        for var, w in hint.items():
            bad = next((c for c in w if c not in letters), None)
            if bad is not None:
                raise ExtEqError(f"{path}[{i}].{var}: letter {bad!r} not in alphabet")
    return tuple(obj)


def cmd_solve(args) -> int:
    ext_obj = files.load_json(args.input)
    ext = files.extension_from_json(ext_obj, args.input)
    eqs_obj = files.load_json(args.equations)
    sys_ = files.equation_system_from_json(eqs_obj, ext, args.equations)
    config = SolveConfig(
        oracle_bound=args.oracle_bound,
        mode=args.mode,
        theta_cap=args.theta_cap,
        gamma_hints=_load_hints(args.hints, ext.base.alphabet),
    )
    pipe = Pipeline.build(ext, kappa2=args.kappa2, R_validate=args.r_validate,
                          ball_radius=args.ball_radius)
    out = solve(sys_, pipe, config)
    payload = {"status": out.status, "report": out.report}
    lines = [f"verdict: {out.status}"]
    if out.status == SOLVED:
        payload["assignment"] = {
            x: {"g": e.g, "a": list(e.a.coords())}
            for x, e in out.assignment.items()
        }
        lines += [
            f"  {x} = ({e.g or '1'}, {list(e.a.coords())})"
            for x, e in sorted(out.assignment.items())
        ]
        if args.cert:
            # the replayable record of a solved run
            cert = {
                "format_version": files.FORMAT_VERSION,
                "extension_digest": _digest(ext_obj),
                "equations_digest": _digest(eqs_obj),
                "config": {
                    "r_validate": args.r_validate,
                    "ball_radius": args.ball_radius,
                    "kappa2": args.kappa2,
                    "oracle_bound": args.oracle_bound,
                    "mode": args.mode,
                    "theta_cap": args.theta_cap,
                },
                "validation": {"r_validate": args.r_validate},
            }
            for key in ("t", "vsol", "wsol", "cells", "assignment"):
                cert[key] = out.certificate[key]
            files.save_json(args.cert, cert)
            lines.append(f"certificate written to {args.cert}")
            payload["certificate"] = args.cert
    elif out.report and out.report.get("obstructions"):
        for ob in out.report["obstructions"]:
            lines.append(f"  obstruction: {ob}")
    _emit(args, payload, lines)
    return _STATUS_EXIT[out.status]


def cmd_lift(args) -> int:
    cert = files.load_json(args.certificate)
    if not isinstance(cert, dict):
        raise ExtEqError(f"{args.certificate}: expected an object")
    for key in ("assignment", "extension_digest", "equations_digest"):
        if key not in cert:
            raise ExtEqError(f"{args.certificate}: missing {key}")
    if not isinstance(cert["assignment"], dict):
        raise ExtEqError(f"{args.certificate}.assignment: expected an object")
    for x, v in cert["assignment"].items():
        if not (isinstance(v, dict) and isinstance(v.get("g"), str)
                and isinstance(v.get("a"), list)
                and all(files.is_integer(k) for k in v["a"])):
            raise ExtEqError(f'{args.certificate}.assignment.{x}: expected '
                             '{"g": word, "a": list of integers}')
    if not args.verify:
        _emit(args, {"assignment": cert["assignment"]},
              [f"{x} = ({v['g'] or '1'}, {v['a']})"
               for x, v in sorted(cert["assignment"].items())])
        return EXIT_OK
    ext_obj = files.load_json(args.input)
    ext = files.extension_from_json(ext_obj, args.input)
    eqs_obj = files.load_json(args.equations)
    sys_ = files.equation_system_from_json(eqs_obj, ext, args.equations)
    problems = []
    if _digest(ext_obj) != cert["extension_digest"]:
        problems.append("extension digest mismatch")
    if _digest(eqs_obj) != cert["equations_digest"]:
        problems.append("equation digest mismatch")
    rank = ext.kernel.rank
    assignment = {
        x: files.ext_element_from_json(
            {"g": v["g"], "a": {"free": v["a"][:rank], "torsion": v["a"][rank:]}},
            ext,
            f"{args.certificate}.assignment.{x}",
        )
        for x, v in cert["assignment"].items()
    }
    if set(assignment) != set(sys_.variables):
        problems.append("assignment variables do not match the system")
    elif not check_in_extension(sys_, ext, assignment):
        problems.append("assignment fails direct multiplication check")
    payload = {"verified": not problems, "problems": problems}
    _emit(args, payload,
          ["certificate verified" if not problems
           else "certificate FAILED: " + "; ".join(problems)])
    return EXIT_OK if not problems else EXIT_VERIFY


def cmd_demo_t1s(args) -> int:
    from .instances import t1s, t1s_commutator_system

    ext = t1s()
    lines = [
        "Unit tangent bundle demo: the equation [a,b][x,d] = 1 over the",
        "central Z-extension of the genus-2 surface group.",
        "",
    ]
    from .extension import central_defect

    defects = {}
    for n in range(-4, 5):
        x = "c" + ("d" * n if n >= 0 else "D" * (-n))
        word = "abAB" + x + "d" + ext.base.alphabet.inverse_word(x) + "D"
        defects[n] = central_defect(ext, word).coords()[0]
    lines.append(
        "central defect of [a,b][c d^n, d] for |n| <= 4: "
        + ", ".join(str(defects[n]) for n in range(-4, 5))
    )
    validated, fails = 5, 6  # sigma_q is unbounded under the shortlex section
    pipe = Pipeline.build(ext, kappa2=7, R_validate=validated)
    sys_ = t1s_commutator_system(ext, 0)
    hints = tuple(
        {"x": "c" + ("d" * n if n >= 0 else "D" * (-n))} for n in range(-4, 5)
    )
    out = solve(sys_, pipe, SolveConfig(mode="sound", oracle_bound=0,
                                        gamma_hints=hints))
    obstruction = out.report["obstructions"][0] if out.report["obstructions"] else None
    lines += [
        "",
        f"base-group solutions x = c d^n tried: {out.report['thetas_tried']}",
        f"kernel systems unsolvable: {out.report['w_unsolvable']}",
        f"obstruction: 0 = {obstruction['value']}" if obstruction else "",
        f"the obstruction rests on predictor families validated to radius {validated};"
        f" they fail at radius {fails}",
        f"verdict: {out.status}",
        "",
        "Every lift of a solution would need the central equation "
        f"0 = {obstruction['value'] if obstruction else '?'}; the equation has "
        "no solution in the extension although it has one in the base group.",
    ]
    payload = {
        "defects": {str(n): defects[n] for n in defects},
        "status": out.status,
        "obstruction": obstruction,
        "radius": {"validated": validated, "fails": fails},
        "report": out.report,
    }
    _emit(args, payload, lines)
    return _STATUS_EXIT[out.status]


# -- dispatch -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # Unsolvable verdict; route usage errors to the error exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _nonnegative(what: str):
    """An argparse type for an integer option that must be >= 0; argparse
    names the option in the error, exit 3."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be >= 0, got {value}")
        return value

    parse.__name__ = what
    return parse


radius = _nonnegative("radius")
bound = _nonnegative("bound")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exteq",
                     description="Equations over central extensions of "
                                 "hyperbolic groups.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-presentation")
    p.add_argument("input")
    p.set_defaults(fn=cmd_check_presentation)

    p = sub.add_parser("ball")
    p.add_argument("input")
    p.add_argument("--radius", type=radius, required=True)
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("cocycle-table")
    p.add_argument("input")
    p.add_argument("--radius", type=radius, default=2)
    p.set_defaults(fn=cmd_cocycle_table)

    p = sub.add_parser("build")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--r-validate", type=bound, default=6)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify-invariants")
    p.add_argument("input")
    p.add_argument("--radius", type=radius, required=True)
    p.add_argument("--r-validate", type=bound, default=6)
    p.set_defaults(fn=cmd_verify_invariants)

    p = sub.add_parser("reduce")
    p.add_argument("input")
    p.add_argument("equations")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("solve")
    p.add_argument("input")
    p.add_argument("equations")
    p.add_argument("--kappa2", type=bound, default=2)
    p.add_argument("--oracle-bound", type=bound, default=2)
    p.add_argument("--mode", choices=("sound", "finite-complete"),
                   default="sound")
    p.add_argument("--theta-cap", type=bound, default=1000)
    p.add_argument("--ball-radius", type=radius, default=None)
    p.add_argument("--hints", default=None,
                   help="JSON list of base-group assignments to try first")
    p.add_argument("--cert", default=None,
                   help="write the certificate here when solved")
    p.add_argument("--r-validate", type=bound, default=6)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("lift")
    p.add_argument("certificate")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--extension", dest="input", default=None)
    p.add_argument("--equations", default=None)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("demo-t1s")
    p.set_defaults(fn=cmd_demo_t1s)

    return parser


def cmd_dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_lift and args.verify and not (args.input and args.equations):
        parser.error("lift --verify needs --extension and --equations")
    try:
        return args.fn(args)
    except ExtEqError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(cmd_dispatch())


if __name__ == "__main__":
    main()
