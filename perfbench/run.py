"""nqforge benchmark: exact checks on scaled families and on the fixtures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/nqforge and
fixtures/).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records the
environment.  Inputs are written under .perfbench_work/ in the checkout,
and so is the span file of a traced run.

Workloads (see WORKLOADS below for why each exists):

    verify-inn-gl3     nqforge verify on inn(gl(3))
    verify-gl3-action  nqforge verify on gl(3) acting on R^3
    morph-inn-gl3      nqforge check-morphism plus the over-point reduction
                       on the conjugation automorphism of inn(gl(3))
    corpus             every committed fixture and small members of each
                       family, through every subcommand that applies

The load is a closed loop: one process, one thread, one call at a time.
Every call goes through the public entry nqforge.cli.main(argv) or a public
library function, and its verdict (exit code, "ok", and the "routes agree"
or "formulations agree" row) is compared with the expected one.  A call
that differs or raises counts as failed; metrics are printed only when no
call failed.  NQFORGE_THREADS is removed from the environment, which
selects the sequential sweeps.

With --trace 0 a run measures, in this order:

    setup_s      median of repeated family generation, JSON write and
                 io.load_* parse of every input
    gate         the perturbed twins of the scaled workloads must fail
                 with their routes agreeing; untimed
    wall_s       median wall time of warm passes in this process
    cold_s       median time of import nqforge plus the first pass, each
                 in a fresh child interpreter, which checks its verdicts
                 too
    tuples_per_s canonical frame tuples the pass's sweeps cover (counted
                 from each input's rank and n) divided by wall_s
    peak_rss_mb  peak resident memory of this process

Warm passes and cold children alternate until --seconds have passed and
each ran the workload's min_samples times.

With --trace 1 a run alternates untraced and traced warm passes and reports
the per-layer metrics of perfbench/spans.py, medians over the traced passes,
plus trace_overhead_s (traced minus untraced pass).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import families  # noqa: E402  (the generators do not import nqforge)
import spans  # noqa: E402

COLD_TIMEOUT = 170
# set-up repeats until SETUP_SECONDS are spent, within these counts
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 200
SETUP_SECONDS = 0.5

# The 20 committed fixtures, with the subcommands that must fail on each.
# The broken ones are broken on purpose (see src/nqforge/fixtures.py); no
# other call may fail.
FIXTURES_FAILING = {
    "action_line.json": (),
    "action_line_corrupted_q.json": ("roundtrip", "from-q"),
    "action_line_perturbed.json": ("verify",),
    "empty.json": (),
    "jacobiator_point.json": (),
    "jacobiator_point_perturbed.json": ("verify",),
    "module_point.json": (),
    "module_point_perturbed.json": ("verify",),
    "morphism_doubled_action_line.json": ("check-morphism",),
    "morphism_identity_tangent_plane.json": (),
    "morphism_plane_to_line.json": (),
    "morphism_point_two_term.json": (),
    "morphism_point_two_term_doubled.json": ("check-morphism",),
    "morphism_rescale_two_term.json": (),
    "morphism_tangent_squaring.json": (),
    "morphism_tangent_squaring_broken.json": ("check-morphism",),
    "tangent_plane.json": (),
    "tangent_plane_perturbed.json": ("verify",),
    "two_term.json": (),
    "two_term_perturbed.json": ("verify",),
}

# the verdict checks, with the row that says their routes agree
CHECKS = {"verify": "routes agree", "check-morphism": "formulations agree",
          "over-point": None}


# ----- workloads -----


class Workload:
    """pass_cases(seed) are the inputs every timed pass runs; twin_cases(seed)
    are only gated.  over_point adds the library over-point reduction to
    every morphism.  min_samples is the least number of warm passes, and of
    cold children, behind each median."""

    def __init__(self, why, pass_cases, twin_cases=None, fixtures=False,
                 over_point=False, min_samples=2):
        self.why = why
        self.pass_cases = pass_cases
        self.twin_cases = twin_cases or (lambda seed: [])
        self.fixtures = fixtures
        self.over_point = over_point
        self.min_samples = min_samples


def _corpus_cases(seed):
    """Small members and their twins.  The twins are timed, so the seed
    keeps their declaration order (see families)."""
    cases = []
    for builder, args in (
        (families.tangent, (4,)),
        (families.gl_point, (3,)),
        (families.gl_action, (2,)),
        (families.inn, (2,)),
        (families.inn_conjugation, (2,)),
    ):
        cases += families.with_twin(builder, *args, seed=seed, reorder=False)
    return cases


WORKLOADS = {
    "verify-inn-gl3": Workload(
        "derived brackets (std_parts, commutators) and the identity sweep dominate; the linearity route is vacuous over a point",
        lambda seed: [families.inn(3, seed=seed)],
        lambda seed: [families.inn(3, seed=seed, perturbed=True)],
    ),
    "verify-gl3-action": Workload(
        "linearity probes and polynomial arithmetic dominate and derived brackets are light, so a derived-bracket speedup should not move it",
        lambda seed: [families.gl_action(3, seed=seed)],
        lambda seed: [families.gl_action(3, seed=seed, perturbed=True)],
    ),
    "morph-inn-gl3": Workload(
        "the only workload on the morphism sweeps, shuffles with dense components and the per-tuple to_algebroid rebuild",
        lambda seed: [families.inn_conjugation(3, seed=seed)],
        lambda seed: [families.inn_conjugation(3, seed=seed, perturbed=True)],
        over_point=True,
    ),
    "corpus": Workload(
        "many small inputs, early-exit failures, conversions and io/cli overhead: per-call set-up shows here, hot-path changes should not",
        _corpus_cases,
        fixtures=True,
        # short passes catch bursts of load from other tenants of a shared
        # machine; eight samples keep one burst out of the median
        min_samples=8,
    ),
}


# ----- calls and their expected verdicts -----


class Call:
    """One invocation: a CLI subcommand, or "over-point" for the library
    over-point reduction, on one file; expect_ok is the verdict it must
    give and tuples the canonical frame tuples its sweeps cover."""

    def __init__(self, command, path, expect_ok, tuples):
        self.command = command
        self.path = path
        self.expect_ok = expect_ok
        self.tuples = tuples


def _sweep_tuples(data, command):
    """Canonical frame tuples a full sweep of the command covers: identities
    up to n+2, brackets and morphisms up to n+1, linearity as tuples times
    slots times probes."""
    block = data["source"] if data.get("kind") == "morphism" else data
    frames = block.get("frames", {})
    rank = sum(len(v) for v in frames.values())
    n = max((int(k) for k in frames), default=0)
    if rank == 0:
        return 0

    def up_to(top):
        return sum(families.multisets(rank, r) for r in range(1, top + 1))

    if command in ("check-morphism", "over-point"):
        return up_to(n + 1)
    if command != "verify":
        return 0
    d = len(block.get("base_coordinates", []))
    probes = d + d * (d + 1) // 2
    linearity = probes * sum(
        families.multisets(rank, t) * t for t in range(1, n + 3)
    )
    return up_to(n + 2) + up_to(n + 1) + linearity


def _calls(path, data, valid, commands, failing=()):
    """Calls of the given commands on one file.  The verdict checks must
    pass on a valid input; every other command must pass unless listed as
    failing."""
    calls = []
    for cmd in commands:
        ok = (valid or cmd not in CHECKS) and cmd not in failing
        calls.append(Call(cmd, path, ok, _sweep_tuples(data, cmd)))
    return calls


def _every_command(data):
    """The subcommands that apply to a corpus file."""
    if data.get("kind") == "morphism":
        return ["check-morphism", "roundtrip"]
    return ["verify", "roundtrip", "to-q"] + (["from-q"] if "q" in data else [])


def _check_commands(data, over_point):
    """The scaled workloads run only the check their name says."""
    if data["kind"] == "morphism":
        return ["check-morphism"] + (["over-point"] if over_point else [])
    return ["verify"]


def _write_cases(cases, workdir):
    """Write each case's JSON; returns [(path, case)].

    An existing file is overwritten in place: truncating a file and writing
    it again makes some filesystems flush it to disk on close, which would
    time the disk instead of the set-up work."""
    out = []
    for case in cases:
        path = os.path.join(workdir, case.name + ".json")
        with open(path, "r+" if os.path.exists(path) else "w") as fh:
            fh.write(json.dumps(case.data))
            fh.truncate()
        out.append((path, case))
    return out


def build_inputs(workload, seed, workdir):
    """Generate and write every input; returns (pass calls, twin calls,
    paths to parse at set-up)."""
    wl = WORKLOADS[workload]
    written = _write_cases(wl.pass_cases(seed), workdir)
    twins = _write_cases(wl.twin_cases(seed), workdir)
    pass_calls, twin_calls, paths = [], [], []
    if wl.fixtures:
        for name, failing in FIXTURES_FAILING.items():
            path = os.path.join(FIXTURES, name)
            with open(path) as fh:
                data = json.load(fh)
            pass_calls += _calls(path, data, True, _every_command(data), failing)
            paths.append((path, data.get("kind", "structure")))
        for path, case in written:
            pass_calls += _calls(path, case.data, case.valid, _every_command(case.data))
    else:
        for path, case in written:
            pass_calls += _calls(path, case.data, case.valid,
                                 _check_commands(case.data, wl.over_point))
        for path, case in twins:
            twin_calls += _calls(path, case.data, case.valid,
                                 _check_commands(case.data, wl.over_point))
    paths += [(p, c.kind) for p, c in written + twins]
    return pass_calls, twin_calls, paths


# ----- running calls -----


class Runner:
    """Runs calls one at a time and checks each verdict."""

    def __init__(self):
        from nqforge import cli, morphism
        from nqforge import io as structio

        self.cli = cli
        self.morphism = morphism
        self.structio = structio
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = self.tracer.span("cli.main", self.cli.main, argv)
        return rc, json.loads(buf.getvalue())

    def _over_point(self, path):
        morph, source, target = self.structio.load_morphism(path)
        return self.morphism.check_over_point_reduction(morph, source, target).ok

    def _matches(self, call):
        if call.command == "over-point":
            return self._over_point(call.path) == call.expect_ok
        rc, report = self._cli([call.command, call.path, "--json"])
        if rc != (0 if call.expect_ok else 1) or report.get("ok") is not call.expect_ok:
            return False
        row = CHECKS.get(call.command)
        if row is None:
            return True
        return any(c["name"] == row and c["status"] == "pass" for c in report["checks"])

    def run(self, call):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call_id += 1
        try:
            ok = self._matches(call)
        except Exception:  # a raising call is a failed call; keep measuring
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print("verdict mismatch: %s %s" % (call.command, call.path), file=sys.stderr)

    def timed_pass(self, calls):
        start = time.perf_counter()
        for call in calls:
            self.run(call)
        return time.perf_counter() - start


def setup_once(workload, seed, workdir, structio):
    """Family generation, JSON write and io.load_* parse of every input."""
    start = time.perf_counter()
    _, _, paths = build_inputs(workload, seed, workdir)
    for path, kind in paths:
        if kind == "morphism":
            structio.load_morphism(path)
        else:
            structio.load_structure(path)
    return time.perf_counter() - start


# ----- environment -----


def _git_sha():
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a copy that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, passes):
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "NQFORGE_THREADS": "unset (sequential sweeps)",
        "samples_behind_each_median": passes,
    }


# ----- the two kinds of run -----


def _metric(value, unit):
    return {"value": value, "unit": unit}


def cold_pass(args, workdir):
    """Body of a cold child: import nqforge and run one pass, then print
    the time with the verdict counts."""
    pass_calls, _, _ = build_inputs(args.workload, args.seed, workdir)
    start = time.perf_counter()
    runner = Runner()
    runner.timed_pass(pass_calls)
    cold = time.perf_counter() - start
    print(json.dumps({"cold_s": cold, "attempted": runner.attempted,
                      "failed": runner.failed}))
    return 0


def cold_sample(args, workdir):
    """One cold pass in a fresh interpreter, waited for; returns the
    child's report."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--cold-pass", workdir],
        stdout=subprocess.PIPE, text=True, timeout=COLD_TIMEOUT,
    )
    if child.returncode != 0:
        return {"cold_s": None, "attempted": 1, "failed": 1}
    return json.loads(child.stdout.strip().splitlines()[-1])


def measure(args, workdir):
    pass_calls, twin_calls, _ = build_inputs(args.workload, args.seed, workdir)
    tuples = sum(c.tuples for c in pass_calls)
    runner = Runner()

    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        setups.append(setup_once(args.workload, args.seed, workdir, runner.structio))
    for call in twin_calls:
        runner.run(call)

    # Warm passes and cold children alternate, so that both see the same
    # stretch of a shared machine's load.
    least = WORKLOADS[args.workload].min_samples
    walls, colds = [], []
    start = time.perf_counter()
    while (len(walls) < least or len(colds) < least
           or time.perf_counter() - start < args.seconds):
        if len(walls) <= len(colds):
            walls.append(runner.timed_pass(pass_calls))
            continue
        report = cold_sample(args, workdir)
        runner.attempted += report["attempted"]
        runner.failed += report["failed"]
        if report["cold_s"] is None:
            break
        colds.append(report["cold_s"])

    wall = statistics.median(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": _metric(wall, "s"),
        "tuples_per_s": _metric(tuples / wall, "1/s"),
        "cold_s": _metric(statistics.median(colds) if colds else None, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    passes = {"wall_s": walls, "cold_s": colds, "setup_s": len(setups)}
    return runner, metrics, passes, None


def measure_traced(args, workdir):
    pass_calls, twin_calls, _ = build_inputs(args.workload, args.seed, workdir)
    runner = Runner()
    untraced = [runner.timed_pass(pass_calls)]
    for call in twin_calls:
        runner.run(call)

    traced, layers, first = [], [], None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < args.seconds:
        tracer = spans.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced.append(runner.timed_pass(pass_calls))
        finally:
            tracer.uninstall()
            runner.tracer = None
        layers.append(tracer.metrics())
        first = first or tracer  # its spans are the ones written out
        untraced.append(runner.timed_pass(pass_calls))

    metrics = {}
    for name in layers[0]:
        values = [m[name]["value"] for m in layers]
        metrics[name] = _metric(statistics.median(values), layers[0][name]["unit"])
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace_overhead_s"] = _metric(overhead, "s")
    passes = {"traced": traced, "untraced": untraced}
    return runner, metrics, passes, first


def write_trace(tracer, args, env):
    path = os.path.join(WORK, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({
            "env": env,
            "span_fields": ["name", "start", "end", "parent", "call"],
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
        }, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-pass", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "nqforge")) or not os.path.isdir(FIXTURES):
        print("error: run from a checkout holding src/nqforge and fixtures/",
              file=sys.stderr)
        return 2
    os.environ.pop("NQFORGE_THREADS", None)
    sys.path.insert(0, SRC)
    if args.cold_pass:
        return cold_pass(args, args.cold_pass)

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, "inputs-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        run = measure_traced if args.trace else measure
        runner, metrics, passes, tracer = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, passes)
    if tracer is not None:
        env["trace_file"] = os.path.relpath(write_trace(tracer, args, env), ROOT)
    print(json.dumps({"env": env}))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
