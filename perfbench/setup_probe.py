"""Set-up probe: a fresh interpreter imports ``coopsim.cli`` and parses and
validates every config the workload's first iteration reads, the way the CLI
does before it simulates anything. ``run.py`` times the whole process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TMP
"""

import sys
from pathlib import Path

import workloads
from coopsim import cli
from coopsim.config import RunConfig

OVERRIDES = ("seed", "frames", "v", "v_list", "policy", "out_dir", "window")


def main() -> int:
    workload, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    parser = cli.build_parser()
    for op in workloads.iteration_ops(workload, seed, 0, tmp):
        if not op.argv:
            continue
        args = parser.parse_args(list(op.argv))
        cfg = RunConfig.from_path(args.config)
        cfg.override(**{key: getattr(args, key, None) for key in OVERRIDES})
        cfg.build_scenario()
        if args.command == "sweep":
            cfg.v_list()
    return 0


if __name__ == "__main__":
    sys.exit(main())
