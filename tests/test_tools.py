"""The in-process A/B harness ``tools/ab.py`` on stub sides: identical
sides read identical, and a side whose output differs or that raises is
named and sets the exit status to 1.  No timing round runs; the rule that
settles a timing is checked on fixed samples."""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

WORKDIR = "/work"


class Stub:
    """A side whose ``main`` prints its first word, exits 1 on ``bad`` and
    prints something else on the words in ``differ`` or raises on those
    in ``raises``."""

    def __init__(self, differ=(), raises=()):
        self.differ, self.raises = differ, raises

    def main(self, argv):
        word = argv[0]
        if word in self.raises:
            raise ValueError(f"no {word}")
        if word == "bad":
            print("mpdagid: bad", file=sys.stderr)
            raise SystemExit(1)
        print(word + "!" if word in self.differ else word)
        return 0


def _check(o):
    return None if o.rc == 0 and o.stdout in ("a\n", "b\n") else f"exit {o.rc}: {o.stdout!r}"


OPS = [workloads.Op("stub", [word, f"{WORKDIR}/{word}.g"], _check, 1.0) for word in ("a", "b", "bad")]


def _compare(parent, change):
    return ab.compare("stub", {"parent": parent, "change": change}, OPS, 0, WORKDIR)


def test_identical_sides_report_identical(capsys):
    assert _compare(Stub(), Stub()) == 0
    # "bad" fails its check on both sides: equal counts are no difference.
    assert capsys.readouterr().out == (
        "stub: 3 operations, failed checks parent 1, change 1\n"
        "  every (rc, stdout, stderr, error) identical\n"
    )


def test_a_differing_output_is_named_and_exits_1(capsys):
    assert _compare(Stub(), Stub(differ=("b",))) == 1
    assert capsys.readouterr().out == (
        "stub: 3 operations, failed checks parent 1, change 2\n"
        "  OUTPUTS DIFFER on 1 operations, first: b <workdir>/b.g\n"
    )


def test_a_side_that_raises_is_recorded_not_fatal(capsys):
    _, outcomes = ab.run_pass(Stub(raises=("a",)), [op.argv for op in OPS])
    assert outcomes == [
        (None, "", "", "raised ValueError: no a"),
        (0, "b\n", "", None),
        (1, "", "mpdagid: bad\n", None),
    ]
    assert _compare(Stub(raises=("a",)), Stub()) == 1
    assert capsys.readouterr().out == (
        "stub: 3 operations, failed checks parent 2, change 1\n"
        "  OUTPUTS DIFFER on 1 operations, first: a <workdir>/a.g\n"
    )


# Parent quartiles 10.35 and 11.45 (a spread of 1.1), median 10.9.
PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


def test_verdict_needs_nine_tenths_of_the_rounds_and_medians_apart():
    faster = [p - 2 for p in PARENT]
    assert ab.verdict(PARENT, faster) == "resolved: change faster"
    assert ab.verdict(PARENT, [p + 2 for p in PARENT]) == "resolved: change slower"
    assert ab.verdict(PARENT, [20.0] + faster[1:]) == "resolved: change faster"  # 9 of 10
    assert ab.verdict(PARENT, [20.0, 20.0] + faster[2:]) == "unresolved"  # 8 of 10
    assert ab.verdict(PARENT, [9.0, 9.0] + [p + 2 for p in PARENT[2:]]) == "unresolved"
    # Every round won, but the medians lie within the parent's spread.
    assert ab.verdict(PARENT, [p - 1 for p in PARENT]) == "unresolved"
    # Ties count for neither side.
    assert ab.verdict(PARENT, [PARENT[0]] + faster[1:]) == "resolved: change faster"
    assert ab.verdict(PARENT, PARENT[:2] + faster[2:]) == "unresolved"
