"""Record the reference digests of the CLI workloads' outputs.

    python3 perfbench/record_digests.py

A seed only picks the money scale (gen.SCALES), so the inputs of every seed
are among len(SCALES) cycles per CLI workload; this runs each of them once
and writes perfbench/reference_digests.json, mapping
"<subcommand>:<sha256 of the contract file>" to the sha256 of its stdout.
Re-record only on purpose: when the generator changes, or when a change is
meant to alter the CLI's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from swinghedge import cli  # noqa: E402
from worker import CLI_COMMANDS, sha256  # noqa: E402


def main():
    digests = {}
    work_dir = HERE.parent / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        path = Path(tmp) / "contract.json"
        for workload, command in CLI_COMMANDS.items():
            for scale in gen.SCALES:
                for spec in gen.contracts(workload, scale):
                    data = gen.encode(spec)
                    path.write_bytes(data)
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main([command, str(path)])
                    if code != 0:
                        sys.exit(f"{command} exited with {code} on {spec}")
                    digests[f"{command}:{sha256(data)}"] = sha256(buf.getvalue().encode())
            print(f"{workload}: {len(gen.SCALES)} cycles recorded", file=sys.stderr)
    out = HERE / "reference_digests.json"
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
