"""puboqa benchmark: run one workload, or all four, each in a fresh process.

    python3 perfbench/run.py --workload qubo-C-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the program is imported from the src/ directory beside
perfbench/. The workload process gets the caller's environment minus the
BLAS thread variables, so the program runs at the library defaults users
get; the removed values are recorded in the result's environment block.
The last line printed is one JSON object with correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
This launcher imports nothing heavy, so the variables are gone before numpy
loads in the workload process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qubo-C-serial", "pubo-ABC-serial", "experiment-pool", "compile-wide")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")
TIME_LIMIT_S = 175.0


def run_workload(name: str, args, deadline: float) -> tuple[int, str]:
    """Run one workload process; return its exit code and standard output."""
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in BLAS_ENV if k in env}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--caller-env", json.dumps(removed)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "puboqa" / "__init__.py").is_file():
        print(f"error: no puboqa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            code, out = run_workload(name, args, deadline)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"error: workload {name} exited with code {code}", file=sys.stderr)
            sys.stderr.write(out)
            return code if code > 0 else 1
        lines = out.rstrip("\n").splitlines()
        if args.workload != "all":
            print("\n".join(lines))
            return 0
        for line in lines[:-1]:
            print(line)
        print(f"{name}: {lines[-1]}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": v for name, r in results.items() for metric, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
