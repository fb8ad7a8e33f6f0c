"""Command-line wrapper around the BSM surrogate.

Implements the external-command output contract: writes outputs.tsv plus
one tab-separated series file per gauge, values rendered with four
decimals. Used to exercise external execution mode against the builtin.

    python -m dslake.cyclone.bsm_cmd --start 2005-01-07T00:00:00Z \
        --cyclone params.txt --horizon 96h --out OUTDIR

Each flag is given as ``--name VALUE`` or ``--name=VALUE``; a repeated
flag keeps its last value. ``--start``, ``--cyclone`` and ``--out`` are
required and ``--horizon`` defaults to ``96h``. A missing, unknown or
valueless flag prints a message and exits with status 2.

Import budget: the engine starts one interpreter per selected path, and
what that interpreter imports is most of its start-up cost. This module
imports only ``os``, ``sys``, ``times`` and ``surrogate``, and through
them ``datetime``, ``math``, ``collections`` and ``errors``: no numpy, no
engine, language or storage module, and none of ``argparse``,
``dataclasses``, ``pathlib``, ``inspect`` or ``re``, which would about
double the CPU of a child started under ``-S``.
"""

from __future__ import annotations

import os
import sys

from dslake.times import duration_hours, iso_seconds, parse_utc
from dslake.cyclone.surrogate import GAUGES, CycloneParams, bsm_surrogate

_FLAGS = ("--start", "--cyclone", "--horizon", "--out")


def _parse_flags(argv: list[str]) -> dict[str, str]:
    """The flag values by name; a bad command line raises ``ValueError``."""
    values = {"--horizon": "96h"}
    args = iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            raise ValueError(f"unknown argument {arg}")
        if not eq:
            value = next(args, None)
            if value is None:
                raise ValueError(f"{flag} expects a value")
        values[flag] = value
    missing = [flag for flag in _FLAGS if flag not in values]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return values


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_flags(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"bsm_cmd: error: {exc}", file=sys.stderr)
        return 2

    start = parse_utc(args["--start"])
    with open(args["--cyclone"], encoding="utf-8") as f:
        params = CycloneParams.from_portable_text(f.read())
    horizon_hours = duration_hours(args["--horizon"])
    outdir = args["--out"]
    os.makedirs(outdir, exist_ok=True)

    manifest_lines = []
    for gauge in sorted(GAUGES):
        series = bsm_surrogate(params, start, horizon_hours, gauge)
        name = f"level[{gauge[0]},{gauge[1]}]"
        filename = f"level_{gauge[0]}_{gauge[1]}.tsv"
        _write(
            os.path.join(outdir, filename),
            "".join(f"{iso_seconds(t)}\t{v:.4f}\n" for t, v in series),
        )
        manifest_lines.append(f"{name}\t{filename}")
    _write(os.path.join(outdir, "outputs.tsv"), "\n".join(manifest_lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
