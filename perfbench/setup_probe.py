"""Set-up cost of one frnse CLI run, without the command itself.

Usage: python3 perfbench/setup_probe.py <frnse arguments>

Parses the arguments with the CLI's own parser, reads and parses the config
with its overrides, then builds the grid tables and the kernel multiplier
for the config's grid and kernel, which is the set-up every run of the
command pays. The caller times the process from spawn to exit, so
interpreter start and ``import frnse`` are included.
"""

import sys

from frnse.cli import build_parser
from frnse.config import parse_config
from frnse.grid import make_grid
from frnse.kernel import kernel_multiplier


def main(argv):
    args = build_parser().parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read(), tuple(args.overrides))
    make_grid(cfg.grid)
    kernel_multiplier(cfg.grid, cfg.kernel)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
