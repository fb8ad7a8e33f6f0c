"""Command-line wrapper around the BSM surrogate.

Implements the external-command output contract: writes outputs.tsv plus
one tab-separated series file per gauge, values rendered with four
decimals. Used to exercise external execution mode against the builtin.

This module must import no numpy and no engine, language or storage
module, only ``times`` and ``surrogate`` (which needs only ``errors``):
the engine starts one interpreter per selected path, and what that
interpreter imports is most of its start-up cost.

    python -m dslake.cyclone.bsm_cmd --start 2005-01-07T00:00:00Z \
        --cyclone params.txt --horizon 96h --out OUTDIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from dslake.times import duration_hours, iso_seconds, parse_utc
from dslake.cyclone.surrogate import GAUGES, CycloneParams, bsm_surrogate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bsm_cmd")
    parser.add_argument("--start", required=True)
    parser.add_argument("--cyclone", required=True)
    parser.add_argument("--horizon", default="96h")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    start = parse_utc(args.start)
    params = CycloneParams.from_portable_text(Path(args.cyclone).read_text())
    horizon_hours = duration_hours(args.horizon)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    manifest_lines = []
    for gauge in sorted(GAUGES):
        series = bsm_surrogate(params, start, horizon_hours, gauge)
        name = f"level[{gauge[0]},{gauge[1]}]"
        filename = f"level_{gauge[0]}_{gauge[1]}.tsv"
        (outdir / filename).write_text(
            "".join(f"{iso_seconds(t)}\t{v:.4f}\n" for t, v in series)
        )
        manifest_lines.append(f"{name}\t{filename}")
    (outdir / "outputs.tsv").write_text("\n".join(manifest_lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
