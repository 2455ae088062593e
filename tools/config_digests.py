"""Run every shipped config through the CLI and print one SHA-256 per CSV.

Usage::

    python3 tools/config_digests.py [CONFIG ...]

Each config (default: all of ``configs/*.cfg``) runs as its own
``python -m homlab.cli <kind>`` process against this checkout's ``src/``,
writing into a fresh temporary directory. The output has one line per CSV,

    <sha256>  <config stem>/<path of the CSV below the output directory>

sorted by config and path, so two checkouts can be compared with ``diff``.
A run that exits with a status other than 0 is reported on stderr, and the
script then exits 1.
"""

import configparser
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_config(cfg_path, out_dir):
    """Run one config; return the CLI's exit status."""
    parser = configparser.ConfigParser()
    parser.read(cfg_path)
    kind = parser.get("experiment", "kind")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", kind, "--config", str(cfg_path),
         "--out", str(out_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"{cfg_path.name}: exit {proc.returncode}: {proc.stdout.strip()} "
              f"{proc.stderr.strip()}", file=sys.stderr)
    return proc.returncode


def digests(out_dir, stem):
    lines = []
    for csv in sorted(out_dir.rglob("*.csv")):
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        lines.append(f"{digest}  {stem}/{csv.relative_to(out_dir).as_posix()}")
    return lines


def main(argv):
    configs = [Path(a).resolve() for a in argv] or sorted((ROOT / "configs").glob("*.cfg"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            out_dir = Path(tmp) / cfg.stem
            failed |= run_config(cfg, out_dir) != 0
            for line in digests(out_dir, cfg.stem):
                print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
