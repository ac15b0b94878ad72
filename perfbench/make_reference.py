"""Regenerate the stored reference outputs in ``reference/``.

    python3 perfbench/make_reference.py

Runs every invocation of every workload once at the default seed and stores
its summary (see verify.py).  The stored files were made at the commit
named in them; regenerate them only when a change of the engine's results
is intended and has been reviewed.
"""

import json
import subprocess
import sys

import run
import verify
import workloads


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    commit = run.environment()["git_commit"]
    for workload in workloads.WORKLOADS:
        entries = {}
        for inv in workloads.invocations(workload, workloads.DEFAULT_SEED):
            config, out, meta = (work / f"{inv.name}.{ext}" for ext in ("json", "out", "meta"))
            config.write_text(json.dumps(inv.config), encoding="utf-8")
            argv = [sys.executable, str(run.CHILD), "run", str(config), str(out), str(meta), *inv.command]
            proc = subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), stdout=subprocess.DEVNULL)
            entries[inv.name] = verify.summarize(proc.returncode, out.read_text(encoding="utf-8"))
            print(f"{workload} {inv.name}: exit {proc.returncode}", flush=True)
        doc = {"seed": workloads.DEFAULT_SEED, "commit": commit, "invocations": entries}
        with open(run.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
