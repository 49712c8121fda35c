"""Command-line front end.

Subcommands: close, identify, factorize, adjust, enumerate, verify,
estimate.  Exit codes: 0 on success, 1 for usage or input errors, 2 for
a valid negative answer (not identifiable, not truncatable, no
adjustment set).  Output is deterministic for a fixed seed.
"""

# Only ``verify`` and ``estimate`` import the numpy-backed ``oracle`` and
# ``estimate`` modules, inside their commands, so the other subcommands
# start without numpy; they load neither ``dataclasses`` nor ``json``
# either (``json`` only for ``--format json`` and ``estimate``).  Without a
# bytecode cache each start-up also compiles the package source on the
# ``close`` path, so every module on that path costs start-up time.
#
# One table, ``_COMMANDS``, holds the subcommands and their options; the
# module docstring is the ``--help`` description.  ``_read_argv`` reads an
# argv of the fixed form ``SUBCOMMAND (OPTION VALUE)*`` straight from the
# table, and only help, other option forms and usage errors build the
# argparse parser from it, so only they load ``argparse`` (with
# ``gettext`` and ``locale``) and their text stays argparse's.

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import meek
from .formula import render
from .graphs import (
    DegenerateConditioningError,
    EstimationError,
    GraphError,
    Pdag,
    parse_graph,
)
from .identify import (
    NotTruncatableError,
    find_adjustment_set,
    identify,
    truncated_factorization,
)


class InputError(ValueError):
    """An input file that is not UTF-8 text."""


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x} at offset {exc.start})"
        ) from None
    # Spreadsheet exports often start with a byte-order mark; decoding as
    # plain UTF-8 first keeps the offsets above counted from the file start.
    return text.removeprefix("\ufeff")


def _load_graph(args) -> Pdag:
    g = parse_graph(_read_text(args.graph))
    bk = frozenset()
    if getattr(args, "bk", None):
        bk = meek.parse_background_knowledge(_read_text(args.bk))
    # Analysis commands operate on the closure; closing an MPDAG with no
    # extra knowledge is the identity.
    return meek.close(g, bk)


def _nodes(arg: str) -> frozenset[str]:
    return frozenset(n for n in (s.strip() for s in arg.split(",")) if n)


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _fmt_deviation(x: float) -> str:
    """A deviation below 1e-12, the package's tolerance for column sums,
    is rounding noise and prints as zero; the 1e-9 test reads the raw
    value."""
    return _fmt(0.0 if x < 1e-12 else x)


def _cmd_close(args) -> int:
    sys.stdout.write(_load_graph(args).to_edgelist())
    return 0


def _not_identifiable(g: Pdag, res) -> int:
    """The verdict on stdout, the witness path on stderr, exit code 2."""
    print("not identifiable")
    print("witness:", _render_path(g, res.witness), file=sys.stderr)
    return 2


def _cmd_identify(args) -> int:
    g = _load_graph(args)
    res = identify(g, _nodes(args.X), _nodes(args.Y))
    if not res.identifiable:
        return _not_identifiable(g, res)
    print(render(res.formula, args.format))
    return 0


def _cmd_factorize(args) -> int:
    g = _load_graph(args)
    try:
        f = truncated_factorization(g, _nodes(args.X))
    except NotTruncatableError as exc:
        print("not truncatable")
        print(exc, file=sys.stderr)
        return 2
    print(render(f, args.format))
    return 0


def _cmd_adjust(args) -> int:
    g = _load_graph(args)
    res = find_adjustment_set(g, _nodes(args.X), _nodes(args.Y))
    if res.status == "zero_effect":
        print("zero effect: response is a parent of the treatment")
        return 0
    if res.status == "set_found":
        members = ",".join(sorted(res.adjustment)) if res.adjustment else "(empty)"
        print(f"adjustment set: {members}")
        return 0
    print("no adjustment set exists")
    print(f"reason: {res.reason}", file=sys.stderr)
    return 2


def _cmd_enumerate(args) -> int:
    """The DAG count, then each DAG's edge list after a blank line, in one
    write of the joined text.  Each edge list ends in a newline (only the
    one DAG of an empty graph renders as nothing), so joining the count's
    line and the lists with newlines gives the blank lines."""
    g = _load_graph(args)
    dags = meek.enumerate_dags(g)
    sys.stdout.write("\n".join([f"{len(dags)}\n", *[d.to_edgelist() for d in dags]]))
    return 0


def _render_path(g: Pdag, path) -> str:
    """A witness is possibly causal, so each step is ``->`` or ``--``."""
    parts = [path[0]]
    for u, w in zip(path, path[1:]):
        parts.append(f"-> {w}" if g.has_directed(u, w) else f"-- {w}")
    return " ".join(parts)


def _cmd_verify(args) -> int:
    from . import oracle

    g = _load_graph(args)
    xs, ys = _nodes(args.X), _nodes(args.Y)
    res = identify(g, xs, ys)
    if res.identifiable:
        report = oracle.cross_dag_agreement(
            g, xs, ys, res.formula, n_models=args.models, seed=args.seed
        )
        print("identifiable:", render(res.formula, "text"))
        print("dags:", report.n_dags)
        print("max cross-dag deviation:", _fmt_deviation(report.max_cross_dag_tv))
        print("max formula deviation:", _fmt_deviation(report.max_formula_tv))
        if max(report.max_cross_dag_tv, report.max_formula_tv) > 1e-9:
            print("verification failed: deviation exceeds 1e-9", file=sys.stderr)
            return 1
        return 0
    m1, m2, delta = oracle.nonid_witness(g, xs, ys)
    _, c1 = oracle.wright_cov(m1)
    _, c2 = oracle.wright_cov(m2)
    cov_diff = float(abs(c1 - c2).max())
    print("not identifiable")
    print("witness:", _render_path(g, res.witness))
    print("covariance max diff:", _fmt(cov_diff))
    print("interventional mean gap (delta):", _fmt(delta))
    if cov_diff > 1e-12 or delta <= 0:
        print("verification failed: witness models disagree observationally", file=sys.stderr)
        return 1
    return 0


def _cmd_estimate(args) -> int:
    import json

    from . import estimate

    g = _load_graph(args)
    xs_order = [s.strip() for s in args.X.split(",") if s.strip()]
    ys = _nodes(args.Y)
    res = identify(g, frozenset(xs_order), ys)
    if not res.identifiable:
        return _not_identifiable(g, res)
    data = estimate.Dataset.from_csv(_read_text(args.data))
    effect = estimate.gaussian_effect(res.formula, data, xs_order, ys)
    payload = {
        "response": sorted(ys)[0],
        "effect": {x: float(v) for x, v in zip(xs_order, effect)},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


# The subcommands and their options, in the order ``--help`` lists them.
# An option row is (flags, dest, required, default, integer lower bound or
# None for a string, choices, help); ``_build_parser`` and ``_read_argv``
# both read it.
def _opt(*flags, required=False, default=None, low=None, choices=None, help=None):
    return flags, flags[-1].lstrip("-"), required, default, low, choices, help


_GRAPH = _opt("-g", "--graph", required=True, help="edge-list file")
_BK = _opt("-b", "--bk", help="background knowledge file (directed lines)")
_XY = (
    _GRAPH,
    _BK,
    _opt("-X", required=True, help="comma-separated treatment nodes"),
    _opt("-Y", required=True, help="comma-separated response nodes"),
)
_FORMAT = _opt("--format", default="text", choices=("text", "latex", "json"))
_FACTORIZE = (
    _opt("-g", "--graph", required=True),
    _opt("-b", "--bk"),
    _opt("-X", default="", help="comma-separated treatment nodes (may be empty)"),
    _FORMAT,
)
_VERIFY = (
    *_XY,
    _opt("--seed", default=0, low=0),
    _opt("--models", default=20, low=1, help="random models per check"),
)
_ESTIMATE = (*_XY, _opt("--data", required=True, help="CSV file of observations"))

_COMMANDS = {
    "close": ("close a PDAG plus background knowledge into an MPDAG", _cmd_close, (_GRAPH, _BK)),
    "identify": ("decide identifiability and print the formula", _cmd_identify, (*_XY, _FORMAT)),
    "factorize": ("truncated factorization with respect to X", _cmd_factorize, _FACTORIZE),
    "adjust": ("search for a generalized adjustment set", _cmd_adjust, _XY),
    "enumerate": ("list every DAG represented by the MPDAG", _cmd_enumerate, (_GRAPH, _BK)),
    "verify": ("cross-check identification against brute force", _cmd_verify, _VERIFY),
    "estimate": ("estimate the effect from Gaussian data", _cmd_estimate, _ESTIMATE),
}

# Per subcommand: each exact option string to its row.
_FLAGS = {
    name: {flag: row for row in rows for flag in row[0]}
    for name, (_, _, rows) in _COMMANDS.items()
}


@functools.cache
def _build_parser():
    """The argparse parser of the table, built on the first call that
    needs it and reused: parsing does not change a parser, and each
    ``parse_args`` returns a fresh namespace.  The one place that imports
    ``argparse``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse exits 2 by default; usage errors are 1
            self.exit(1, f"{self.prog}: error: {message}\n")

    def int_at_least(low: int):
        def parse(text: str) -> int:
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
            return value

        parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
        return parse

    top = Parser(prog="mpdagid", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (summary, run, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flags, dest, required, default, low, choices, help_text in rows:
            p.add_argument(
                *flags,
                dest=dest,
                required=required,
                default=default,
                type=None if low is None else int_at_least(low),
                choices=choices,
                help=help_text,
            )
    return top


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would give for an argv of exactly the form
    ``SUBCOMMAND (OPTION VALUE)*``, read without argparse; ``None`` for
    any other argv, which argparse then reads.

    It takes only an exact subcommand name and exact option strings of
    that subcommand, each dest at most once and no value that starts with
    ``-``; every required option must be there, and every integer and
    choice must pass the table.  Help, abbreviations, ``--opt=value``,
    joined short options, repeats and every usage error go to argparse,
    whose text and exit codes they keep.
    """
    if not argv or len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    name = argv[0]
    _, run, rows = _COMMANDS[name]
    flags = _FLAGS[name]
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        row = flags.get(flag)
        if row is None or value.startswith("-") or row[1] in given:
            return None
        _, dest, _, _, low, choices, _ = row
        if low is not None:
            try:
                value = int(value)
            except ValueError:
                return None
            if value < low:
                return None
        elif choices is not None and value not in choices:
            return None
        given[dest] = value
    values = {"command": name, "run": run}
    for _, dest, required, default, _, _, _ in rows:
        if dest in given:
            values[dest] = given[dest]
        elif required:
            return None
        else:
            values[dest] = default
    return SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        # A file error names its file; any other OSError (a TimeoutError,
        # say) carries only its message.
        message = exc if exc.filename is None else f"{exc.strerror}: {exc.filename}"
        print(f"mpdagid: {message}", file=sys.stderr)
        return 1
    except (InputError, GraphError, EstimationError, DegenerateConditioningError) as exc:
        print(f"mpdagid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
