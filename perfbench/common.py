"""Inputs shared by the benchmark (run.py) and its cold-sample child
(child.py): the source location, the published script, the dataset recipe,
the textured re-rendering and the registries.

Both programs run from the root of a checkout and import ``dslake`` from its
``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import math
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench"


def cpu_s() -> float:
    """CPU seconds (user + system) of this process, all of its threads, and
    every child process it has waited for.

    The benchmark reports CPU time, not wall time: it runs on a few cores of
    a shared host, where the wall time of the same work moved by half of its
    median from one run to the next with the load of other tenants.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + children_cpu_s()


def user_cpu_s() -> float:
    """User CPU seconds of this process and its threads: ``setup_s``. Set-up
    saves 2920 files, and the kernel time of that save moved from 0.7 to
    2.3 s between identical saves on the same host, with the state of its
    page cache; ``ingest_s`` still reports the save's wall time."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def children_cpu_s() -> float:
    """CPU seconds of every child process waited for so far (and of the
    children those waited for)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit non-zero."""
    if not (SRC / "dslake" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dslake sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))


# The query sketch exactly as published (Fig. 5), misspellings included.
FIG5_SCRIPT = """\
area 48.3416,-24.7851 - 66.1605,32.8710
time 01.01.2011 - 31.12.2011

select cyclon-path
         directon north-east
         out(Params[EndTime])

simulate
  with BSM
  semantic_association yes
  in(startTime: EndTime - 48h)
  out(level[440,414])
"""

# The same query with the direction filter removed, so every path fans out.
ALL_PATHS_SCRIPT = FIG5_SCRIPT.replace("         directon north-east\n", "")
EXTERNAL_BSM = "BSMX"
EXTERNAL_SCRIPT = ALL_PATHS_SCRIPT.replace("with BSM", f"with {EXTERNAL_BSM}")

# Also asks for StartTime, so recovered paths can be matched one-to-one
# against the planted ones.
STARTS_SCRIPT = FIG5_SCRIPT.replace(
    "out(Params[EndTime])", "out(Params[EndTime], Params[StartTime])"
)

DATASET = "d1"
STORE_NODES = 8
STORE_REPLICATION = 2
# Smoothness of the textured background: a few hPa over thousands of km, so
# that it adds no minimum below the 1000 hPa detection threshold and cannot
# split a planted depression.
TEXTURE_AMPLITUDE_HPA = 3.0
TEXTURE_OFFSET_HPA = 1.0
TEXTURE_DRAWS = 25


def utc(year, month, day, hour=0):
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


def year_spec(months: int = 12):
    """``year_spec`` of the acceptance tests: one 6-hourly year over the Fig. 5
    area, 0.5 degree grid (36 x 116), five random cyclones, two north-east.
    ``months`` < 12 shortens it for the smoke test."""
    from dslake.cyclone.synthetic import SyntheticSpec
    from dslake.lang.ast import GeoBox

    end = utc(2011, 12, 31, 18) if months >= 12 else utc(2011, 1 + months, 1)
    return SyntheticSpec(
        dataset=DATASET,
        area=GeoBox(lat_min=48.3416, lon_min=-24.7851, lat_max=66.1605, lon_max=32.8710),
        start=utc(2011, 1, 1),
        end=end,
        step_hours=6,
        spacing_deg=0.5,
        random_count=5 if months >= 12 else 2,
        random_north_east=2 if months >= 12 else 1,
    )


def texture(files, truth, seed: int):
    """Re-render every snapshot over a seeded, per-snapshot smooth background.

    Goes through the public grid format only (parse, add, render), so no two
    bodies stay byte-equal and every file costs a full parse and minima scan.
    A snapshot holding a planted cyclone must stay clean by the generator's
    own oracle, ``detection_is_clean``; if two-decimal rounding ties the
    cyclone's top, its background is drawn again from the next stream, as the
    generator replans. Returns the files and the number of redraws.
    """
    import numpy as np

    from dslake.cyclone.grid import parse_grid_snapshot, render_grid_snapshot
    from dslake.cyclone.synthetic import detection_is_clean
    from dslake.storage import DataFile

    cyclones = list(truth.spec.cyclones)
    out = []
    redraws = 0
    for k, f in enumerate(files):
        snap = parse_grid_snapshot(f.data)
        y = (snap.lats[:, None] - snap.lats[0]) / 40.0
        x = (snap.lons[None, :] - snap.lons[0]) / 60.0
        base = snap.values
        alive = any(c.alive(f.t0) for c in cyclones)
        for attempt in range(TEXTURE_DRAWS):
            rng = np.random.default_rng((seed, k, attempt))
            phase_x, phase_y = 2.0 * math.pi * rng.random(2)
            tilt = rng.random() - 0.5
            snap.values = base + TEXTURE_OFFSET_HPA + TEXTURE_AMPLITUDE_HPA * (
                0.5 * np.sin(2.0 * math.pi * x + phase_x) * np.cos(2.0 * math.pi * y + phase_y)
                + tilt * (x - 0.5)
            )
            textured = DataFile.from_bytes(f.dataset, f.t0, f.t1, render_grid_snapshot(snap))
            if not alive or detection_is_clean([textured], cyclones, truth.spec):
                break
            redraws += 1
        else:
            raise RuntimeError(f"no clean texture for snapshot {k} in {TEXTURE_DRAWS} draws")
        out.append(textured)
    return out, redraws


def registry(descriptor_file: Path | None = None):
    """The registry the CLI builds: the cyclone library and builtin BSM, plus
    the packages of ``descriptor_file`` (a ``.kd`` file), if given."""
    from dslake.cyclone.plugin import register_cyclone_domain
    from dslake.descriptors import load_descriptor_file
    from dslake.registry import KnowledgeRegistry

    built = register_cyclone_domain(KnowledgeRegistry())
    if descriptor_file is not None:
        for package in load_descriptor_file(descriptor_file)[1]:
            built.register_package(package)
    return built


def write_external_descriptor(path: Path) -> None:
    """BSM as the subprocess package, named BSMX because the CLI always
    registers the builtin BSM."""
    from dslake.cyclone.plugin import bsm_external_descriptor
    from dslake.descriptors import dump_descriptors

    path.write_text(dump_descriptors([], [bsm_external_descriptor(name=EXTERNAL_BSM)]))


def request(script: str, nodes: int):
    from dslake.engine import EngineConfig, TaskRequest

    return TaskRequest(
        dataset=DATASET,
        script=script,
        engine_config=EngineConfig(node_count=nodes, replication=min(STORE_REPLICATION, nodes)),
    )
