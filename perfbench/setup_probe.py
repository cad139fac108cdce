"""Set-up of one benchmark process: import cstatesim, parse, build the catalog.

Run as a script it sets up once in a fresh interpreter and prints the
timings as one JSON line; run.py starts it several times per run, because
an import can only be timed once per process:

    python3 perfbench/setup_probe.py --workload sim-steady --seed 1
"""

import argparse
import json
import sys
import time
from pathlib import Path

import configs

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


class SetupError(RuntimeError):
    """The checkout holds no cstatesim sources to benchmark."""


def set_up(workload: str, seed: int) -> dict:
    """Import cstatesim from the checkout's src/, parse the config, build the catalog."""
    if not (SRC / "cstatesim" / "__init__.py").is_file():
        raise SetupError(f"no cstatesim package under {SRC}")
    text = configs.config_text(workload, seed)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cstatesim
    from cstatesim import reporting
    t1 = time.perf_counter()
    if Path(cstatesim.__file__).resolve().parent != SRC / "cstatesim":
        raise SetupError(f"imported cstatesim from {cstatesim.__file__}, not {SRC}")
    t2 = time.perf_counter()
    parsed = reporting.loads_sim_config(text)
    catalog = cstatesim.default_catalog()
    t3 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "setup_s": (t1 - t0) + (t3 - t2),
        "config_text": text,
        "parsed": parsed,
        "catalog": catalog,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=configs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args()
    try:
        done = set_up(args.workload, args.seed)
    except SetupError as e:
        print(f"setup_probe: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"import_s": done["import_s"], "setup_s": done["setup_s"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
