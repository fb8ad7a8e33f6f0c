"""One cold sample: a fresh interpreter loads the saved storage root, builds
a new ``Engine`` and submits once.

    python3 perfbench/child.py --root DIR --script FILE --nodes N
        [--fail-node K] [--registry FILE.kd] [--trace]

Prints one JSON line: the submit's CPU and wall time (submit plus
canonical rendering, CPU time including the package subprocesses it ran),
the load time, the peak RSS, the SHA-256 of the canonical text
and, with ``--trace``, the spans. A failed submit prints ``ok: false`` and
the error instead of exiting non-zero, so that run.py counts it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import traceback
from pathlib import Path

import common


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory (``VmHWM``).

    Not ``getrusage``: on Linux its ``ru_maxrss`` carries over the peak of the
    memory a process had before ``exec``, and a child started with ``vfork``
    (as ``subprocess`` does) had the benchmark process's memory until then.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--script", required=True)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--fail-node", type=int, default=None)
    parser.add_argument("--registry", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    common.use_checkout_source()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    from dslake.engine import Engine
    from dslake.storage import StorageLayout

    out = {"ok": True}
    try:
        script = Path(args.script).read_text(encoding="utf-8")
        started = time.perf_counter()
        layout = StorageLayout.load(args.root)
        out["load_ms"] = (time.perf_counter() - started) * 1000.0
        if args.fail_node is not None:
            layout.fail_node(args.fail_node)
        registry = common.registry(args.registry)
        if tracer is not None:
            tracer.wrap_registry(registry)
        engine = Engine(registry, layout)
        req = common.request(script, args.nodes)

        def once():
            return engine.submit(req).canonical_text()

        cpu = common.cpu_s()
        started = time.perf_counter()
        text = once() if tracer is None else tracer.request("cold", once)
        out["submit_ms"] = (time.perf_counter() - started) * 1000.0
        out["submit_cpu_ms"] = (common.cpu_s() - cpu) * 1000.0
        out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    except Exception as exc:  # reported to run.py, which counts it as failed
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
               "traceback": traceback.format_exc(limit=5)}
    out["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        import spans

        out["spans"] = spans.to_json(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
