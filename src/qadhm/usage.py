"""The argparse parser of every command, for help and usage errors only:
``cli.run`` imports it when its own reader declines the command line."""

import argparse

from . import cli

_GRAMMAR = """Expression grammar for the ``q`` commands::

    expr   := term (('+' | '-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := INT | 'q' ['^' SINT] | WORD | '(' expr ')'
    WORD   := x11 | x12 | x21 | x22 | det

INT is a nonnegative integer, SINT may carry a sign; juxtaposed factors must
be joined with '*'.  Words multiply as noncommutative generators and results
are printed in normal form.
"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qadhm",
        description="Exact reports for matrix data, monads, the quantum "
                    "algebra and module operators.",
        epilog=_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    groups = parser.add_subparsers(dest="group", required=True)
    for name, help_text in cli._GROUPS.items():
        sub = groups.add_parser(name, help=help_text).add_subparsers(
            dest="command", required=True)
        for command, (text, handler, arguments) in cli.commands(name).items():
            p = sub.add_parser(command, help=text)
            for names, options in (cli.OUTPUT, *arguments):
                p.add_argument(*names, **options)
            p.set_defaults(handler=handler)
    return parser
