"""The command line's argparse surface is pinned.

``tests/data/cli_surface.json`` records, per subcommand and in order,
every argument's option strings, dest, default, type, choices,
required, nargs, action, metavar and help, and each subcommand's help
line.  Rebuilding the parser from shared flag groups must not add,
drop or alter an option.  After a deliberate change, regenerate the
file with::

    PYTHONPATH=src python tests/unit/test_cli_surface.py > tests/data/cli_surface.json
"""

import argparse
import json
import os
import sys

from repro.cli import build_parser

SURFACE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "cli_surface.json"
)


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return repr(value)


def _argument(action):
    return {
        "options": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "type": getattr(action.type, "__name__", _jsonable(action.type)),
        "choices": None if action.choices is None else _jsonable(
            list(action.choices)
        ),
        "required": action.required,
        "nargs": _jsonable(action.nargs),
        "action": type(action).__name__,
        "metavar": _jsonable(action.metavar),
        "help": action.help,
    }


def surface(parser, prefix=""):
    """``[[command, [argument, ...]], ...]``, nested subcommands included."""
    commands = [[prefix.strip(), []]]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands[0][1].append({"subcommands": [
                [choice.dest, choice.help]
                for choice in action._choices_actions
            ]})
            for name, child in action.choices.items():
                commands.extend(surface(child, f"{prefix}{name} "))
        else:
            commands[0][1].append(_argument(action))
    return commands


def test_surface_is_unchanged():
    with open(SURFACE_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    current = json.loads(json.dumps(surface(build_parser())))
    assert [name for name, _ in current] == [name for name, _ in pinned]
    for (name, arguments), (_, expected) in zip(current, pinned):
        assert arguments == expected, name


if __name__ == "__main__":
    # One argument per line, so a diff of the file names the option.
    sys.stdout.write("[\n" + ",\n".join(
        f" [{json.dumps(name)}, [\n"
        + ",\n".join("  " + json.dumps(argument) for argument in arguments)
        + "\n ]]"
        for name, arguments in surface(build_parser())
    ) + "\n]\n")
