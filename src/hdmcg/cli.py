"""Command-line front end.

Verbs: abelianization, splits, boundary, signature, chi2, theta, table3,
verify.  Every verb honors ``--format json|text``; JSON output is a single
line rendered with sorted keys, so parsing and re-rendering round-trips
byte-identically.  Exit codes: 0 success, 1 verification/computation
failure, 2 usage error.  ``abelianization``, ``theta`` and ``boundary``
share the sphere-data flags ``--sigma-q-order`` and ``--coker-j-table``,
declared once on a parent parser and read by ``_sphere_data``.

Each handler imports the modules its verb uses when it runs, so a process
pays only for those: ``theta`` and ``boundary`` load ``spheres`` and its
dependencies, ``signature`` and ``chi2`` load ``cocycles`` and its
dependencies, and only the verbs that need ``mcg`` or ``verify`` load them.
"""

from __future__ import annotations

import argparse
import json
import sys

# the names of ``verify.SUITES``, kept here so that parsing the arguments
# does not import the suites
SUITE_NAMES = ("tables", "appendix", "spheres", "cocycles")


def _emit(obj, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hdmcg",
        description="Exact invariants of mapping class groups of g-fold "
                    "connected sums of S^n x S^n (n odd).")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "text"), default="text")

    # the sphere-data flags, declared once for the verbs that read them
    sphere = argparse.ArgumentParser(add_help=False)
    sphere.add_argument("--sigma-q-order", type=int, default=None)
    sphere.add_argument("--coker-j-table", type=str, default=None,
                        help="path to a JSON coker-J extension table")

    sp = sub.add_parser("abelianization", parents=[sphere],
                        help="first homology of one of the groups")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--group", choices=("mcg", "torelli", "halfmcg", "gg"),
                    default="mcg")
    add_format(sp)

    sp = sub.add_parser("splits", help="splitting decisions for (g, n)")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    add_format(sp)

    sp = sub.add_parser("boundary", parents=[sphere],
                        help="boundary sphere of an almost closed manifold "
                             "with the given invariants")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sgn", type=int, required=True)
    sp.add_argument("--chi2", type=int, default=None)
    add_format(sp)

    for verb, what in (("signature", "signature"),
                       ("chi2", "chi^2 (needs translations)")):
        sp = sub.add_parser(verb, help=f"{what} pairing of a class file")
        sp.add_argument("--file", type=str, required=True)
        add_format(sp)

    sp = sub.add_parser("theta", parents=[sphere],
                        help="homotopy-sphere data for odd n")
    sp.add_argument("--n", type=int, required=True)
    add_format(sp)

    sp = sub.add_parser("table3", help="recompute the example table and diff")
    add_format(sp)

    sp = sub.add_parser("verify", help="run an embedded verification suite")
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",),
                    default="all")
    sp.add_argument("--seed", type=int, default=0)
    add_format(sp)
    return p


def _sphere_data(args):
    """The sphere data of ``args.n`` under the verb's sphere-data flags."""
    from .spheres import load_coker_j_file, theta_data

    table = (None if args.coker_j_table is None
             else load_coker_j_file(args.coker_j_table))
    return theta_data(args.n, sigma_q_order=args.sigma_q_order,
                      coker_j_table=table)


def _cmd_abelianization(args) -> int:
    if args.group in ("halfmcg", "gg"):  # these groups read no sphere data
        unused = [flag for flag, value in (
            ("--sigma-q-order", args.sigma_q_order),
            ("--coker-j-table", args.coker_j_table)) if value is not None]
        if unused:
            print(f"abelianization --group {args.group} does not take "
                  f"{' or '.join(unused)}", file=sys.stderr)
            return 2
    from .mcg import h1_Gg, h1_half_mcg, h1_mcg, h1_torelli

    if args.group == "mcg":
        group = h1_mcg(args.g, args.n, _sphere_data(args))
    elif args.group == "torelli":
        group = h1_torelli(args.g, args.n, _sphere_data(args))
    elif args.group == "halfmcg":
        group = h1_half_mcg(args.g, args.n)
    else:
        group = h1_Gg(args.g, args.n)
    _emit(group.to_json_dict(), args.format == "json", group.describe())
    return 0


def _cmd_splits(args) -> int:
    from .mcg import splitting_decisions

    decisions = splitting_decisions(args.g, args.n)
    obj = {k: d.to_json_dict() for k, d in decisions.items()}
    text = "\n".join(f"{k}: {d.value}  [{d.citation}]"
                     for k, d in decisions.items())
    _emit(obj, args.format == "json", text)
    return 0


def _cmd_boundary(args) -> int:
    from .spheres import (AlmostClosedInvariants, boundary_of_plumbing,
                          describe_theta_element)

    data = _sphere_data(args)
    inv = AlmostClosedInvariants(args.sgn, args.chi2)
    el = boundary_of_plumbing(inv, args.n, data)
    label = describe_theta_element(el, data)
    _emit({"label": label, "coords": list(el.coords)},
          args.format == "json", label)
    return 0


def _cmd_pairing(args) -> int:
    from .cocycles import chi2_of_class, load_class_file, signature_of_class

    pairing = {"signature": signature_of_class, "chi2": chi2_of_class}
    value = pairing[args.verb](load_class_file(args.file))
    _emit({args.verb: value}, args.format == "json", str(value))
    return 0


def _cmd_theta(args) -> int:
    data = _sphere_data(args)
    text = (f"theta = {data.theta.describe()}\n"
            f"Sigma_P coords {list(data.sigma_p.coords)}, "
            f"Sigma_Q coords {list(data.sigma_q.coords)}\n"
            f"coker J = {data.coker_j_group.describe()}, "
            f"omega = {data.omega.describe()}")
    _emit(data.to_json_dict(), args.format == "json", text)
    return 0


def _cmd_table3(args) -> int:
    from .mcg import reproduce_table3

    rendered, ok, mismatches = reproduce_table3()
    verdict = "OK" if ok else "MISMATCHES:\n" + "\n".join(mismatches)
    _emit({"ok": ok, "mismatches": mismatches}, args.format == "json",
          f"{rendered}\n{verdict}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from .verify import run_suites

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    ok = all(r[1] for r in results)
    lines = [f"[{'PASS' if good else 'FAIL'}] {name}"
             + (f"  ({detail})" if detail else "")
             for name, good, detail in results]
    lines.append(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    _emit({"ok": ok, "seed": args.seed,
           "checks": [{"name": n, "ok": o, "detail": d}
                      for n, o, d in results]},
          args.format == "json", "\n".join(lines))
    return 0 if ok else 1


_COMMANDS = {
    "abelianization": _cmd_abelianization,
    "splits": _cmd_splits,
    "boundary": _cmd_boundary,
    "signature": _cmd_pairing,
    "chi2": _cmd_pairing,
    "theta": _cmd_theta,
    "table3": _cmd_table3,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
