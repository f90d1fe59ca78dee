#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: the pinned digest of every
cell the benchmark runs.

Run from the repository root, at a commit whose modeled results are
known good::

    python3 perfbench/pin.py

Each size is compiled and run twice, in two different cell orders, with
caching off; the digests must agree, so no digest depends on order.  At
test size every native stdout must also equal the IR interpreter's.
"""

from __future__ import annotations

import json
import os
import random
import sys

from run import REFERENCE, ROOT, pin_environment


def digests(size, names, seed):
    import workloads
    from repro.benchsuite import spec_benchmark
    from repro.harness import runner

    rng = random.Random(seed)
    specs = [spec_benchmark(name, size) for name in names]
    rng.shuffle(specs)
    compiled = {spec.name: runner.compile_benchmark(spec, workloads.TARGETS,
                                                    cache=False)
                for spec in specs}
    cells = [(spec, target) for spec in specs
             for target in workloads.TARGETS]
    rng.shuffle(cells)
    out = {}
    for spec, target in cells:
        run = runner.run_compiled(compiled[spec.name], target, runs=1).run
        if size == "test" and target == "native" and \
                workloads.oracle_stdout(spec) != run.stdout:
            raise SystemExit(f"{spec.name}: native stdout differs from the "
                             f"IR interpreter")
        out.setdefault(spec.name, {})[target] = workloads.digest(run)
    return {name: out[name] for name in names}


def main() -> int:
    pin_environment(os.path.join(ROOT, ".perfbench_work", "pin-cache"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from repro.harness.compilecache import toolchain_fingerprint

    reference = {"source_sha256": toolchain_fingerprint()}
    for size, names in (("test", workloads.SPEC_NAMES),
                        ("ref", workloads.REF_NAMES)):
        first, second = digests(size, names, 1), digests(size, names, 2)
        if first != second:
            raise SystemExit(f"{size}: digests depend on cell order")
        reference[size] = first
        print(f"pinned {size}: {len(names)} benchmarks", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
