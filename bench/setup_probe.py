"""Set-up probe: in a fresh interpreter, import ``superflag.cli``, load one
workload's inputs and build its context and realization, then exit.  This
is everything a command does before its first scan, enumeration or
certification; ``bench/run.py`` times the whole process.

    python3 bench/setup_probe.py job <config>
    python3 bench/setup_probe.py bundled
    python3 bench/setup_probe.py region <system> <exponents> <dilate>
"""

import sys
from importlib import resources

from superflag import cli
from superflag.polytopes import dilate, parse_system
from superflag.toric import parse_exponent_set


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main(argv: list[str]) -> int:
    kind = argv[0]
    if kind == "job":
        job = cli.load_job(argv[1])
        job.realization(job.context())
    elif kind == "bundled":
        data = resources.files("superflag") / "data"
        parse_system((data / "osp14_w1_polytope.txt").read_text(encoding="utf-8"))
        job = cli.load_job_from_text((data / "osp14_w1.cfg").read_text(encoding="utf-8"))
        job.realization(job.context())
        parse_exponent_set((data / "osp14_w1_points.txt").read_text(encoding="utf-8"))
    elif kind == "region":
        dilate(parse_system(_read(argv[1])), int(argv[3]))
        parse_exponent_set(_read(argv[2]))
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
