"""Run the command line on every bundled contract and print what it prints.

For each bundled contract, runs `price`, `strategies`, `risk-curve` and
`risk --capital 1/20`, each with and without --decimal, then `verify`, all
through `python -m swinghedge.cli` in a fresh process. Each call's stdout
follows a header line naming the call and its exit code.

    PYTHONPATH=src python3 scripts/cli_bundled.py
"""

import subprocess
import sys
from importlib import resources

COMMANDS = [["price"], ["strategies"], ["risk-curve"], ["risk", "--capital", "1/20"]]


def run(argv, shown):
    done = subprocess.run([sys.executable, "-m", "swinghedge.cli", *argv],
                          capture_output=True, text=True)
    print(f"$ swinghedge {' '.join(shown)}  # exit {done.returncode}")
    print(done.stdout, end="")


def main():
    for name in ["one_right_small_penalty", "two_rights_uncancellable",
                 "american_call_proxy"]:
        contract = resources.files("swinghedge") / "contracts" / f"{name}.json"
        with resources.as_file(contract) as path:
            for command in COMMANDS:
                for decimal in ([], ["--decimal"]):
                    tail = command[1:] + decimal
                    run([command[0], str(path), *tail], [command[0], f"{name}.json", *tail])
    run(["verify"], ["verify"])


if __name__ == "__main__":
    main()
