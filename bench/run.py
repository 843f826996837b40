"""The spidereval benchmark: one workload, timed end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a batch tool with one caller that waits for each result, so
every workload is a closed loop with one client. Each run is one CLI
invocation in a fresh child process, run sequentially, with BLAS pinned
to one thread (total threads never exceed the CPU count, and bytes are
comparable between runs). Inputs are generated from the seed, untimed,
before any run; the program receives only the generated files.

With ``--trace 0`` the runs are untraced and the end-to-end metrics are
reported: ``wall_s`` (spawn to exit), ``cpu_s`` (user + system CPU of the
child), ``peak_rss_mb`` (the child's maximum resident set), each the
median over the runs, and ``setup_s``, the median wall time of several
cold ``python -m spidereval.cli --version`` runs. The host's speed drifts
with other tenants' load, so right after each run the fixed kernel in
``calibrate.py`` is timed, and each time is reported at the reference
speed: ``wall_s``, ``cpu_s`` and ``setup_s`` are medians of measured
time x (``calibrate.REFERENCE_S`` / kernel time) ** ``calibrate.SENSITIVITY``
(see ``calibrate.py``). The measured
times are printed beside them and kept in the full record. With ``--trace 1``
untraced runs alternate with runs under the span tracer
(``trace_child.py``) and the per-layer metrics are reported, each the
median over the traced runs.

Every run is checked: exit code 0, manifest digests equal to the files
on disk, artifacts byte-identical to the first run's (traced runs too),
and the first run's numbers against the workload's oracles. Runs that
fail any check count in ``failed``; ``error_rate`` is failed / attempted.

The human-readable report comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (every sample, quartiles, environment,
measurement limits) is written under ``.bench_work/results/``.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Pin before numpy is imported, so generated inputs do not depend on the
# BLAS thread count either.
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(BENCH, "launch.py")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 3          # cold --version runs before the first workload run
SETUP_PER_RUN = 2       # cold --version runs after every workload run
MIN_RUNS = 3            # untraced runs per benchmark run, even past --seconds
CHILD_TIMEOUT_S = 150   # a child still running after this is killed and failed
LAUNCH_GRACE_S = 10     # after that, a launcher that has not exited is killed too

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LOAD_MODEL = ("closed loop, one client: sequential CLI invocations, each in a fresh "
              "child process")
LIMITS = [
    "timing is process-local: perf_counter around spawn-to-exit, rusage of the child",
    "no file-cache dropping, cgroup control or system-wide tracing",
    "host CPU-speed noise from other tenants, in wall and CPU time alike: single runs of "
    "one workload spread by about 15% (coefficient of variation) and up to 2x, with "
    "slow stretches lasting minutes, on a 2-vCPU sandbox; hardware counters are not "
    "available there",
    "the per-layer split comes from wrappers around public functions, not from the program",
    "wall_s, cpu_s and setup_s are scaled toward the reference host speed by a numpy "
    "kernel timed after each run (calibrate.py); the kernel tracks most of a drift of "
    "minutes, which cancels, but not every momentary stall, which stays in the spread",
]
FINDINGS = [
    "predictions.csv bytes at d=768 differ between the default OpenBLAS thread count "
    "and OPENBLAS_NUM_THREADS=1, so runs are only comparable under the same BLAS pin",
    "with BLAS pinned to one thread, cv --threads 2 at d=768 is about 1.8x faster "
    "than --threads 1",
]


@dataclass
class Sample:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    kernel_s: float = 0.0   # calibrate.kernel_s() right after this sample
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = SRC
    env.pop("SPIDEREVAL_SEED", None)
    return env


def run_child(argv: list[str], env: dict[str, str], log_path: str, traced: bool = False) -> Sample:
    """Run one child through ``launch.py``, which takes its wall time from
    spawn to exit and its own rusage, and wait for both. The launcher kills
    a child still running after CHILD_TIMEOUT_S; a launcher that does not
    exit soon after is killed with its whole process group."""
    usage_path = log_path + ".usage.json"
    if os.path.exists(usage_path):
        os.remove(usage_path)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, LAUNCH, usage_path, str(CHILD_TIMEOUT_S), *argv],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S + LAUNCH_GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not os.path.exists(usage_path):
        return Sample(traced=traced, exit_code=proc.returncode, wall_s=CHILD_TIMEOUT_S,
                      cpu_s=0.0, peak_rss_mb=0.0)
    with open(usage_path, encoding="utf-8") as fh:
        usage = json.load(fh)
    return Sample(traced=traced, **usage)


def _log_tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def artifact_digests(out: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_manifest(out: str, digests: dict[str, str]) -> list[str]:
    """The manifest lists every other artifact with its SHA-256."""
    name = "run_manifest.json"
    if name not in digests:
        return ["no run_manifest.json"]
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        listed = json.load(fh)["outputs"]
    problems = [f"manifest digest of {f} does not match the file"
                for f, d in sorted(listed.items()) if digests.get(f) != d]
    unlisted = sorted(set(digests) - set(listed) - {name})
    if unlisted:
        problems.append(f"artifacts missing from the manifest: {unlisted}")
    return problems


def setup_probe(env: dict[str, str], work: str, kernel_s: float = 0.0) -> Sample:
    """One cold interpreter start plus package import and --version;
    ``kernel_s`` is the host-speed kernel time it is scaled by."""
    from spidereval import __version__

    log = os.path.join(work, "setup.log")
    sample = run_child([sys.executable, "-m", "spidereval.cli", "--version"], env, log)
    with open(log, encoding="utf-8", errors="replace") as fh:
        printed = fh.read().strip()
    if sample.exit_code != 0 or printed != f"spidereval {__version__}":
        sample.problems.append(f"--version exited {sample.exit_code}: {printed[-200:]!r}")
    sample.kernel_s = kernel_s
    return sample


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 scale_name: str = "paper", work: str = WORK) -> dict:
    """Generate the inputs, then measure set-up and run the workload until
    ``seconds`` have passed, stopping before a run (with the kernel and
    set-up probes after it) that would end later
    (at least MIN_RUNS untraced runs; with ``trace``, untraced and traced
    runs alternate and at least one is traced). After every workload run
    the host-speed kernel is timed; set-up probes run before the first and
    after every workload run, so they sample the same stretch of time as
    the workload, and share the kernel time measured just before them."""
    scale = workload.scales[scale_name]
    wdir = os.path.join(work, workload.name)
    shutil.rmtree(wdir, ignore_errors=True)
    inputs = os.path.join(wdir, "inputs")
    out = os.path.join(wdir, "out")
    log = os.path.join(wdir, "child.log")
    trace_path = os.path.join(wdir, "trace.json")
    os.makedirs(inputs)
    workload.generate(inputs, seed, scale)
    env = child_env()
    setup_probe(env, wdir)  # untimed: leaves the bytecode cache filled
    calibrate.kernel_s()    # untimed: warms the kernel's allocations
    start = perf_counter()
    kernel = calibrate.kernel_s()
    setup = [setup_probe(env, wdir, kernel) for _ in range(SETUP_REPS)]

    cli_args = workload.cli_args(inputs, out, seed, scale)
    runs: list[Sample] = []
    reference: dict[str, str] | None = None
    while True:
        iteration_start = perf_counter()
        traced = trace and sum(s.traced for s in runs) < sum(not s.traced for s in runs)
        shutil.rmtree(out, ignore_errors=True)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        if traced:
            argv = [sys.executable, os.path.join(BENCH, "trace_child.py"), trace_path]
        else:
            argv = [sys.executable, "-m", "spidereval.cli"]
        sample = run_child(argv + cli_args, env, log, traced)
        if sample.exit_code != 0:
            sample.problems.append(f"exit code {sample.exit_code}: {_log_tail(log)}")
        else:
            digests = artifact_digests(out)
            sample.problems += check_manifest(out, digests)
            if reference is None:
                try:
                    sample.problems += workload.check(inputs, out, scale)
                except Exception as exc:  # an unreadable artifact fails the run
                    sample.problems.append(f"output check raised {exc!r}")
                if not sample.problems:
                    reference = digests
            elif digests != reference:
                changed = sorted(k for k in set(digests) | set(reference)
                                 if digests.get(k) != reference.get(k))
                sample.problems.append(f"artifacts differ from the first run: {changed}")
            if traced:
                with open(trace_path, encoding="utf-8") as fh:
                    sample.layers = tracer.layer_metrics(json.load(fh))
        sample.kernel_s = calibrate.kernel_s()
        runs.append(sample)
        setup += [setup_probe(env, wdir, sample.kernel_s) for _ in range(SETUP_PER_RUN)]
        untraced = [s for s in runs if not s.traced]
        enough = len(untraced) >= MIN_RUNS and (not trace or len(runs) > len(untraced))
        now = perf_counter()
        if enough and now - start + (now - iteration_start) > seconds:
            break
    return summarize(workload, scale, seed, seconds, trace, setup, runs)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def at_reference_speed(samples: list[Sample], name: str) -> list[float]:
    return [getattr(s, name) * (calibrate.REFERENCE_S / s.kernel_s) ** calibrate.SENSITIVITY
            for s in samples]


def summarize(workload, scale, seed, seconds, trace, setup, runs) -> dict:
    untraced = [s for s in runs if not s.traced]
    traced = [s for s in runs if s.traced]
    checked = setup + runs
    failed = sum(1 for s in checked if s.problems)
    end_to_end = {
        "wall_s": quartiles(at_reference_speed(untraced, "wall_s")),
        "cpu_s": quartiles(at_reference_speed(untraced, "cpu_s")),
        "peak_rss_mb": quartiles([s.peak_rss_mb for s in untraced]),
        "setup_s": quartiles(at_reference_speed(setup, "wall_s")),
    }
    measured = {
        "wall_s": quartiles([s.wall_s for s in untraced]),
        "cpu_s": quartiles([s.cpu_s for s in untraced]),
        "setup_s": quartiles([s.wall_s for s in setup]),
        "kernel_s": quartiles([s.kernel_s for s in runs]),
    }
    result = {
        "workload": workload.name,
        "why": workload.why,
        "load_model": LOAD_MODEL,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": asdict(scale),
        "attempted": len(checked),
        "failed": failed,
        "error_rate": failed / len(checked),
        "problems": [p for s in checked for p in s.problems],
        "end_to_end": {k: {**v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "measured": {k: {**v, "unit": "s"} for k, v in measured.items()},
        "reference_kernel_s": calibrate.REFERENCE_S,
        "kernel_sensitivity": calibrate.SENSITIVITY,
        "samples": {"setup": [asdict(s) for s in setup], "runs": [asdict(s) for s in runs]},
        "environment": environment(),
    }
    if trace:
        layers = {}
        for name, unit in tracer.UNITS.items():
            values = [s.layers[name] for s in traced if s.layers and name in s.layers]
            if name == "trace.overhead_s":
                values = [statistics.median(s.wall_s for s in traced)
                          - statistics.median(s.wall_s for s in untraced)]
            layers[name] = {**quartiles(values or [0.0]), "unit": unit}
        result["per_layer"] = layers
    return result


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError) as exc:  # show_config differs between numpy versions
        blas = {"unavailable": repr(exc)}
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "blas_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "git_revision": revision or "unavailable (not a git checkout)",
        "limits": LIMITS,
        "findings": FINDINGS,
    }


def report(result: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    print(f"workload {result['workload']}  seed {result['seed']}  ({result['load_model']})")
    print(f"  why: {result['why']}")
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = result["end_to_end"]
    for name, m in metrics.items():
        print(f"  {name:32s} {m['median']:12.6g} {m['unit']:6s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    if not result["trace"]:
        print(f"  measured, before scaling to the reference speed "
              f"({calibrate.REFERENCE_S} s per kernel):")
        for name, m in result["measured"].items():
            print(f"  {name:32s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    print(f"  {'error_rate':32s} {result['error_rate']:12.6g} ratio  "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spidereval", "cli.py")):
        print(f"error: no spidereval sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    final = report(result)
    print(f"  full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
