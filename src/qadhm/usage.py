"""The argparse parser of every command, for help and usage errors only:
``cli.run`` imports it when its own reader declines the command line."""

import argparse

from . import cli


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qadhm",
        description="Exact reports for matrix data, monads, the quantum "
                    "algebra and module operators.",
        epilog=cli.__doc__[cli.__doc__.index("Expression grammar"):],
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
