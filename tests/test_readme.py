"""The README's library tour, run as written, with its commented values
checked, and its command line synopsis checked against the parser."""

import argparse
import re
from pathlib import Path

import pytest

from qpartial.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    match = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no python block under 'Library tour'"
    return match.group(1)


def commented_lines(block: str) -> dict[str, str]:
    """Code line -> its trailing comment, for lines that have both."""
    lines = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip() and comment.strip():
            lines[code.strip()] = comment.strip()
    return lines


@pytest.fixture(scope="module")
def tour():
    block = tour_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace, commented_lines(block)


@pytest.mark.parametrize(
    "code, comment, check",
    [
        ("qp.gleason_measure(f, axis)", "0.5", lambda v, ns: v == 0.5),
        ("qp.nontermination_probability(f)", "0.25", lambda v, ns: v == 0.25),
        (
            "qp.expected_interval(z, f)",
            "CompactInterval(lo=0.0, hi=0.5)",
            lambda v, ns: (v.lo, v.hi) == (0.0, 0.5),
        ),
        ("qp.gleason_measure(f, up)", "0.5", lambda v, ns: v == 0.5),
        ("ok, witness = qp.state_leq(f, g)", "False;", lambda v, ns: ns["ok"] is False),
        ("report.residual", "~9.3e-10:", lambda v, ns: abs(v - 9.3e-10) <= 1e-11),
        ("coin.apply(f, three_steps).residual", "~0.34375:", lambda v, ns: abs(v - 0.34375) <= 1e-15),
    ],
)
def test_commented_value(tour, code, comment, check):
    namespace, lines = tour
    assert lines[code].startswith(comment)
    # an assignment is checked through the names it bound, an expression by its value
    value = None if " = " in code else eval(code, namespace)
    assert check(value, namespace)


def synopsis() -> dict[str, dict[str, str]]:
    """Subcommand -> {flag: the value shown after it, or ''}."""
    match = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no sh block under 'Command line'"
    lines = {}
    for line in match.group(1).splitlines():
        _, command, rest = line.split(" ", 2)
        lines[command] = dict(re.findall(r"\[(--[\w-]+)(?: ([^\]]+))?\]", rest))
    return lines


def registered_options() -> dict[str, dict[str, argparse.Action]]:
    """Subcommand -> {flag: its action}, without -h/--help."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {
        name: {
            flag: action
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        for name, sub in commands.items()
    }


def test_synopsis_matches_the_parser():
    shown, registered = synopsis(), registered_options()
    assert shown.keys() == registered.keys()
    for command, flags in shown.items():
        assert flags.keys() == registered[command].keys(), command
        for flag, value in flags.items():
            action = registered[command][flag]
            if action.default is None:
                continue  # the value shown is a placeholder, e.g. FILE
            convert = action.type or str
            assert convert(value) == action.default, f"{command} {flag}"
