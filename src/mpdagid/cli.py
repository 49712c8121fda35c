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

from __future__ import annotations

import argparse
import functools
import sys
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


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; usage errors are 1
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """Built on the first ``main`` call and reused: parsing does not change
    a parser, and each ``parse_args`` returns a fresh namespace."""
    top = _Parser(prog="mpdagid", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, *, xy=False, fmt=False, data=False, models=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("-g", "--graph", required=True, help="edge-list file")
        p.add_argument("-b", "--bk", help="background knowledge file (directed lines)")
        if xy:
            p.add_argument("-X", required=True, help="comma-separated treatment nodes")
            p.add_argument("-Y", required=True, help="comma-separated response nodes")
        if fmt:
            p.add_argument(
                "--format", choices=("text", "latex", "json"), default="text"
            )
        if data:
            p.add_argument("--data", required=True, help="CSV file of observations")
        if models:
            p.add_argument("--seed", type=_int_at_least(0), default=0)
            p.add_argument(
                "--models", type=_int_at_least(1), default=20, help="random models per check"
            )

    add("close", _cmd_close, "close a PDAG plus background knowledge into an MPDAG")
    add(
        "identify", _cmd_identify, "decide identifiability and print the formula", xy=True, fmt=True
    )
    p = sub.add_parser("factorize", help="truncated factorization with respect to X")
    p.set_defaults(run=_cmd_factorize)
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-b", "--bk")
    p.add_argument("-X", default="", help="comma-separated treatment nodes (may be empty)")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    add("adjust", _cmd_adjust, "search for a generalized adjustment set", xy=True)
    add("enumerate", _cmd_enumerate, "list every DAG represented by the MPDAG")
    add(
        "verify",
        _cmd_verify,
        "cross-check identification against brute force",
        xy=True,
        models=True,
    )
    add("estimate", _cmd_estimate, "estimate the effect from Gaussian data", xy=True, data=True)
    return top


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
        print("max cross-dag deviation:", _fmt(report.max_cross_dag_tv))
        print("max formula deviation:", _fmt(report.max_formula_tv))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
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
