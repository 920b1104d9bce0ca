"""Record the reference reports the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every config variant of each workload once, at the workload's worker
count, and stores its exit status and report text in ``reference.json``.
Record only at a commit whose results are trusted: the gate then holds every
later commit to these numbers within ``run.RTOL``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, run_sample
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    reference = {"workloads": {}}
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=ROOT / ".bench_build"))
    try:
        for name, workload in WORKLOADS.items():
            entries = {}
            for variant in range(VARIANTS):
                config = work / f"{name}.cfg"
                config.write_text(workload.config_text(variant))
                sample = run_sample(work, config, workload.workers, False)
                if sample.returncode not in (0, 1) or not sample.record:
                    raise RuntimeError(f"{name} variant {variant} failed:\n{sample.stderr}")
                entries[str(workload.config_seed(variant))] = {
                    "exit": sample.returncode, "files": sample.files}
                print(f"{name} config seed {workload.config_seed(variant)}: "
                      f"{'PASS' if sample.returncode == 0 else 'FAIL'}", flush=True)
            reference["workloads"][name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
