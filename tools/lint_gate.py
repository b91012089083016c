#!/usr/bin/env python3
"""Determinism-lint ctest gate.

Runs tools/dcslint, which picks its engine itself (--engine auto): the
clang engine when clang.cindex + libclang are importable, else its
built-in zero-dependency syntax engine. Arguments (paths to lint plus
any dcslint flags) are passed through unchanged.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent


def main(argv):
    sys.path.insert(0, str(TOOLS))
    from dcslint import cli
    return cli.run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
