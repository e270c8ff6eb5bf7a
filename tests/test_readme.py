"""The README's scenario grammar, held to the code it documents."""

import argparse
import dataclasses
import json
import re
from decimal import Decimal
from pathlib import Path

from benctrl.cli import Scenario, _parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def agrees(documented, default) -> bool:
    """Whether a value of the README's block is ``default``: a float (read
    as its value and printed text) to the digits it prints, a list as a
    list or tuple, anything else of the same type and value."""
    if isinstance(documented, tuple):
        value, text = documented
        unit = 10.0 ** Decimal(text).as_tuple().exponent
        return type(default) is float and abs(value - default) <= unit / 2
    if isinstance(documented, dict):
        return isinstance(default, dict) and documented.keys() == \
            default.keys() and all(agrees(documented[k], default[k])
                                   for k in documented)
    if isinstance(documented, list):
        return isinstance(default, (list, tuple)) and len(documented) == \
            len(default) and all(map(agrees, documented, default))
    return type(documented) is type(default) and documented == default


def test_the_scenario_block_is_the_defaults():
    block, = re.findall(r"```jsonc\n(.*?)```", README, re.S)
    documented = json.loads(re.sub(r"//[^\n]*", "", block),
                            parse_float=lambda text: (float(text), text))
    scn = Scenario()
    defaults = {f.name: getattr(scn, f.name)
                for f in dataclasses.fields(Scenario)}
    assert documented.keys() == defaults.keys()
    wrong = [key for key in defaults
             if not agrees(documented[key], defaults[key])]
    assert wrong == []


def test_the_flag_table_is_the_parser():
    """One row per flag: its scenario field, if it sets one, and every
    subcommand that takes it, no more and no less."""
    table = {flag: (re.findall(r"`(\w+)`", field),
                    set(re.findall(r"`(\w+)`", commands)))
             for flag, field, commands in re.findall(
                 r"^\| `(--[\w-]+)` \| (.*?) \| (.*?) \|$", README, re.M)}
    subcommands, = [action for action in _parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    takers, dest = {}, {}
    for command, parser in subcommands.choices.items():
        for action in parser._actions:
            for flag in action.option_strings:
                if flag != "--help" and flag.startswith("--"):
                    takers.setdefault(flag, set()).add(command)
                    dest[flag] = action.dest
    assert {flag: commands for flag, (_, commands) in table.items()} == \
        takers
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert {flag: field for flag, (field, _) in table.items()} == \
        {flag: [d] if d in fields else [] for flag, d in dest.items()}
