"""Record the reference table that the estimate and curve checks compare to.

    python3 bench/record_reference.py

Runs every checked `report`, `probs` and `curve` command line once and
writes bench/reference.json: per command line, a digest of the output with
its numbers masked and the list of numbers.  Re-record only at a commit
whose outputs are known to be right, and say so in the change.
"""

import json
import sys

import run


def main() -> int:
    run.load_program()
    from workloads import REFERENCE_PATH, reference_argvs, run_cli, split_numbers

    jobs = {}
    for argv in reference_argvs():
        code, out, err = run_cli(argv)
        if code != 0:
            print(f"{' '.join(argv)}: exit code {code}: {err.strip()}", file=sys.stderr)
            return 1
        skeleton, numbers = split_numbers(out)
        jobs[" ".join(argv)] = {"skeleton": skeleton, "numbers": numbers}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in jobs.items()]
    with open(REFERENCE_PATH, "w") as handle:
        handle.write('{"jobs": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
