"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the output checks catch a probability perturbed by 1e-6 and a Monte
Carlo frequency shifted by 6 sigma, and that traced and untraced runs give
the same fail_frac.  Each workload runs one untraced and one traced pass,
about a minute in all.  Exits 0 when every check holds.
"""

import json
import subprocess
import sys

import run


def _run_benchmark(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=170)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metric_names(results) -> list[str]:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    problems = []
    for (workload, trace), (_, result) in results.items():
        wanted = spec["per_layer" if trace else "end_to_end"]
        printed = result["metrics"]
        if set(printed) != {m["name"] for m in wanted}:
            problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
        for metric in wanted:
            entry = printed.get(metric["name"], {})
            if entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"), (int, float)):
                problems.append(f"{workload} trace={trace}: {metric['name']} printed as {entry}")
    return problems


def check_perturbed_probability() -> list[str]:
    from workloads import load_reference, make_reference_check, run_cli

    argv = ["probs", "--j1", "2", "--j2", "3"]
    check = make_reference_check(" ".join(argv), load_reference())
    code, out, err = run_cli(argv)
    lines = out.splitlines()
    alpha, J, p = lines[-1].split(",")
    lines[-1] = f"{alpha},{J},{float(p) + 1e-6!r}"
    perturbed = "\n".join(lines) + "\n"
    problems = []
    if check((code, out, err)) is not None:
        problems.append(f"unperturbed probs output fails: {check((code, out, err))}")
    if check((code, perturbed, err)) is None:
        problems.append("a probability perturbed by 1e-6 passes its check")
    return problems


def check_shifted_frequency() -> list[str]:
    from workloads import check_mc, run_cli

    argv = ["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "2000", "--seed", "5"]
    code, out, err = run_cli(argv)
    summary = json.loads(out)
    entry = summary["outcomes"][0]
    entry["frequency"] = entry["analytic_p"] + 6.0 * entry["frequency_se"]
    problems = []
    if check_mc((code, out, err)) is not None:
        problems.append(f"unshifted simulate output fails: {check_mc((code, out, err))}")
    if check_mc((code, json.dumps(summary), err)) is None:
        problems.append("a frequency shifted by 6 sigma passes its check")
    return problems


def check_fail_frac_agrees(results) -> list[str]:
    problems = []
    for workload in sorted({w for w, _ in results}):
        plain = results[workload, 0][0]["detail"]["fail_frac"]
        traced = results[workload, 1][0]["detail"]["fail_frac"]
        if plain != traced:
            problems.append(f"{workload}: fail_frac {plain} untraced, {traced} traced")
    return problems


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS

    results = {(w, t): _run_benchmark(w, t) for w in WORKLOADS for t in (0, 1)}
    checks = {
        "every metric prints with its unit": check_metric_names(results),
        "a probability perturbed by 1e-6 fails": check_perturbed_probability(),
        "an MC frequency shifted by 6 sigma fails": check_shifted_frequency(),
        "traced and untraced runs agree on fail_frac": check_fail_frac_agrees(results),
    }
    for name, problems in checks.items():
        print(f"[{'FAIL' if problems else 'PASS'}] {name}")
        for problem in problems:
            print(f"       {problem}")
    return 1 if any(checks.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
