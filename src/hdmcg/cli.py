"""Command-line front end.

Verbs: abelianization, splits, boundary, signature, chi2, theta, table3,
verify.  Every verb honors ``--format json|text``; JSON output is a single
line rendered with sorted keys, so parsing and re-rendering round-trips
byte-identically.  Exit codes: 0 success, 1 verification/computation
failure, 2 usage error; a nonzero exit writes one line to stderr, which
``main`` alone writes, showing any line break inside the message as a
visible ``\\n``.  A usage error, argparse's or the refusal of a flag
the chosen group or dimension ignores, is a ``_UsageError`` that
``main`` catches, so ``main`` returns rather than raising ``SystemExit``
(``-h`` still exits 0 through argparse).  ``abelianization``, ``theta``
and ``boundary`` share the sphere-data flags ``--sigma-q-order`` and
``--coker-j-table``, added by one helper of ``_build_parser`` and read by
``_sphere_data``.

A process pays only for what its verb uses.  When the first argument
names a verb, ``_build_parser`` builds that verb's parser alone; ``-h``,
an unknown verb and no argument at all get every verb's, and either way
the help, the usage errors and the exit codes read the same.  Each handler
imports the modules its verb uses when it runs: ``theta`` and ``boundary``
load ``spheres`` and its dependencies, ``signature`` and ``chi2`` load
``cocycles`` and its dependencies, and only the verbs that need ``mcg`` or
``verify`` load them.  ``json`` is imported only to write a JSON answer or
to read a file; the Bernoulli numbers behind bP come from integer tangent
numbers, so no verb but ``verify`` loads ``fractions``.  The value classes
derive from ``inputs.Record``, which generates no code, so no verb loads
``inspect``, ``ast`` or ``dis``.
"""

from __future__ import annotations

import argparse
import sys

# the names of ``verify.SUITES``, kept here so that parsing the arguments
# does not import the suites
SUITE_NAMES = ("tables", "appendix", "spheres", "cocycles")


class _UsageError(Exception):
    """A usage error, carrying its one-line message."""


class _Parser(argparse.ArgumentParser):
    """Raises ``_UsageError`` where argparse would print usage and exit 2;
    ``add_subparsers`` makes each verb's parser one too."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _emit(obj, as_json: bool, text: str) -> None:
    if as_json:
        import json  # here, so that a text answer skips it

        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of ``verb`` alone when it names one;
    either parses that verb's arguments alike, in the same words."""
    p = _Parser(
        prog="hdmcg",
        description="Exact invariants of mapping class groups of g-fold "
                    "connected sums of S^n x S^n (n odd).")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, what):
        """``name``'s parser, or None when another verb is named."""
        return sub.add_parser(name, help=what) if verb in (None, name) \
            else None

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "text"), default="text")

    def add_sphere_flags(sp):  # the flags ``_sphere_data`` reads
        sp.add_argument("--sigma-q-order", type=int, default=None)
        sp.add_argument("--coker-j-table", type=str, default=None,
                        help="path to a JSON coker-J extension table")

    if sp := add("abelianization", "first homology of one of the groups"):
        add_sphere_flags(sp)
        sp.add_argument("--g", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--group",
                        choices=("mcg", "torelli", "halfmcg", "gg"),
                        default="mcg")
        add_format(sp)

    if sp := add("splits", "splitting decisions for (g, n)"):
        sp.add_argument("--g", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        add_format(sp)

    if sp := add("boundary", "boundary sphere of an almost closed manifold "
                             "with the given invariants"):
        add_sphere_flags(sp)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--sgn", type=int, required=True)
        sp.add_argument("--chi2", type=int, default=None)
        add_format(sp)

    for name, what in (("signature", "signature"),
                       ("chi2", "chi^2 (needs translations)")):
        if sp := add(name, f"{what} pairing of a class file"):
            sp.add_argument("--file", type=str, required=True)
            add_format(sp)

    if sp := add("theta", "homotopy-sphere data for odd n"):
        add_sphere_flags(sp)
        sp.add_argument("--n", type=int, required=True)
        add_format(sp)

    if sp := add("table3", "recompute the example table and diff"):
        add_format(sp)

    if sp := add("verify", "run an embedded verification suite"):
        sp.add_argument("--suite", choices=SUITE_NAMES + ("all",),
                        default="all")
        sp.add_argument("--seed", type=int, default=0)
        add_format(sp)
    return p


def _sphere_data(args):
    """The sphere data of ``args.n`` under the verb's sphere-data flags.

    Theorem B fixes Sigma_Q at n = 1 mod 4 and at n = 3, 7, so an order
    given there would change nothing: once the library has accepted the
    flags, that is a usage error.
    """
    from .cases import hopf, signature_only
    from .spheres import load_sphere_data

    data = load_sphere_data(args.n, args.sigma_q_order, args.coker_j_table)
    fixed = [case.__name__ for case in (hopf, signature_only) if case(args.n)]
    if args.sigma_q_order is not None and fixed:
        raise _UsageError(f"{args.verb} does not take --sigma-q-order at "
                          f"n = {args.n}: Sigma_Q is fixed there "
                          f"(cases.{fixed[0]})")
    return data


def _cmd_abelianization(args) -> int:
    if args.group in ("halfmcg", "gg"):  # these groups read no sphere data
        unused = [flag for flag, value in (
            ("--sigma-q-order", args.sigma_q_order),
            ("--coker-j-table", args.coker_j_table)) if value is not None]
        if unused:
            raise _UsageError(f"abelianization --group {args.group} does "
                              f"not take {' or '.join(unused)}")
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
    argv = sys.argv[1:] if argv is None else argv
    # a verb named first needs its own parser alone; -h, an unknown verb
    # and no argument at all get every verb's
    verb = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(verb).parse_args(argv)
        return _COMMANDS[args.verb](args)
    except (_UsageError, ValueError, OSError, RuntimeError) as exc:
        # RuntimeError stays for its subclass RecursionError; no module of
        # the package raises it itself
        # a line break inside the message (a stray argument or a file path
        # may hold one) is shown as a visible \n, so the error stays one line
        print("\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
