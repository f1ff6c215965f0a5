#!/usr/bin/env python3
"""The braidseq benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` of the
same tree (pure Python, nothing to compile).  One process does the work,
with no worker threads; ``reproduce`` runs the CLI in child processes, one
at a time, as a user does.

Workloads (see ``workloads.py`` for how inputs are built):

  reproduce      `braidseq reproduce thm1.1` and `thm5.2`, default
                 arguments, each in a fresh interpreter.  17 estimates, degree
                 5-35; the kernel and the convergence logic do the work.
                 One operation is one estimate; the seed does not apply.
  oracle_corpus  many tiny in-process estimates of random pA 3-braids (and
                 full-twist-padded forms) at library defaults, each compared
                 with the exact oracle.  Per-call set-up weighs heavily here.
  word_problem   `dynnikov.braids_equal` on degree-16 pairs, half equal and
                 half distinct by construction.  Runs the flip layer through
                 decode/apply_word/encode with no engine and no Aitken.

A round is one pass over the workload's fixed inputs; rounds repeat until
``--seconds`` have passed.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced, the second half with layer spans (see ``spans.py``), and the last
line carries the per-layer metrics, each per round.  The line before it is a
report with every metric, the sample counts and the machine; the same
report, and in traced runs the spans, are written under ``.perfbench_out/``.

End-to-end metrics (``--trace 0``):

  setup_s        median time for a fresh interpreter to import braidseq.cli
  wall_s         median round wall time
  ops_per_s      operations (estimates or verdicts) per second of rounds
  op_p50_ms, op_p90_ms
                 latency percentiles of the request kind with the highest
                 median: the slower reproduce target (a CLI run; only about
                 four per run, so its p90 lies between the slowest two), all
                 oracle_corpus operations, the equal word_problem pairs
  peak_rss_mb    peak resident memory (of the CLI children for reproduce)
  trusted_frac   share of operations that converged and, for estimates, lie
                 within tol of the exact reference

The report adds failed_frac, false_converged (per round) and max_abs_err.
They are 0 on some workloads, so they carry no regression bound.

A converged estimate off its exact reference by more than 1e-6, a wrong
word-problem verdict, a malformed CSV, a degree off its family law, or an
exit code that disagrees with the converged column stops the run with exit
code 3.  Smaller misses and non-convergence are counted and reported.

Which end-to-end metric each layer metric should move:

  families.*, standard.*   under 1 % of reproduce wall_s; a change to these
                           layers alone cannot show a gain here.
  fan.* (module _fan)      word_problem wall_s and ops_per_s; reproduce
                           should not move.
  kernel.*                 reproduce wall_s most, oracle_corpus partly,
                           word_problem not at all.
  dynnikov iteration counts and self_s
                           reproduce wall_s and trusted_frac; self_s should
                           not move oracle_corpus (one chunk per estimate).
  dynnikov act/braids_equal counters
                           word_problem only.
  tribraid.exact_s         oracle_corpus ops_per_s only.
  cli.self_s               CSV and manifest output, reproduce only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 150

perf = time.perf_counter


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BRAIDSEQ_TOL"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env) -> list[float]:
    """Fresh interpreter until `braidseq.cli` is imported, timed outside.

    One untimed run first, so bytecode caches exist as after an install.
    Output is captured so that the wait ends at pipe EOF: without pipes,
    ``subprocess`` polls for exit with sleeps of up to 50 ms.
    """
    cmd = [sys.executable, "-c", "import braidseq.cli"]
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = perf()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT, capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
        if k:
            times.append(perf() - t0)
    return times


# -- workloads ----------------------------------------------------------------
#
# ``round`` runs the workload's inputs once and returns (latencies, outcomes):
# (request kind, seconds) per timed request, and one Outcome per operation.


class Reproduce:
    tol = 1e-8                               # `braidseq reproduce` default

    def __init__(self, seed, env):
        import workloads
        self.workloads = workloads
        self.reference = workloads.load_reference()
        self.env = env
        self.runs = 0
        self.docs: list[dict] = []           # child span dumps, traced rounds
        self.check_words()

    def check_words(self):
        """The reference applies only to the words it was computed for."""
        from braidseq import families
        for target, family, spec in self.workloads.reproduce_specs():
            ref = self.reference[(target, family, spec.p)]
            word = families.generate(spec).word
            if self.workloads.word_digest(word) != ref["word_sha256"]:
                raise self.workloads.CheckFailed(
                    f"{target} {family} p={spec.p}: word differs from the one "
                    "in reference.json; rerun perfbench/linear_piece.py")

    def round(self, tracer=None):
        latencies, outcomes = [], []
        for target in self.workloads.REPRODUCE_TARGETS:
            if tracer is None:
                cmd = [sys.executable, "-m", "braidseq.cli", "reproduce", target]
            else:
                spans_path = OUT / f"child-{os.getpid()}-{self.runs}.json.gz"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                       str(self.runs), "reproduce", target]
            t0 = perf()
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            latencies.append((target, perf() - t0))
            if tracer is not None:
                self.docs.append(spans.load(spans_path))
                spans_path.unlink()
            self.runs += 1
            outcomes += self.workloads.check_reproduce(
                target, proc.returncode, proc.stdout, self.reference)
        return latencies, outcomes


class OracleCorpus:
    def __init__(self, seed, env):
        import workloads
        from braidseq import dynnikov, tribraid
        self.workloads, self.dynnikov, self.tribraid = workloads, dynnikov, tribraid
        self.tol = dynnikov.DEFAULT_TOL      # estimates run at library defaults
        self.cases = workloads.oracle_corpus(seed)
        self.docs: list[dict] = []

    def round(self, tracer=None):
        dyn, tri, wl = self.dynnikov, self.tribraid, self.workloads
        timed = []
        for k, case in enumerate(self.cases):
            if tracer is not None:
                tracer.op_id = k
            t0 = perf()
            est = dyn.entropy_estimate(case.word)
            exact = tri.exact_dilatation(case.pa_word).log
            timed.append((perf() - t0, est, exact))
        latencies, outcomes = [], []
        for (lat, est, exact), case in zip(timed, self.cases):
            latencies.append(("estimate", lat))
            err = abs(est.value - exact)
            if est.converged and err > wl.GROSS_ERR:
                raise wl.CheckFailed(f"{case.word.to_text()}: estimate {est.value!r} "
                                     f"off the exact {exact!r} by {err:.3e}")
            outcomes.append(wl.Outcome(est.converged, err))
        return latencies, outcomes


class WordProblem:
    tol = None                               # verdicts, no estimates

    def __init__(self, seed, env):
        import workloads
        from braidseq import dynnikov
        self.workloads, self.dynnikov = workloads, dynnikov
        self.pairs = workloads.word_problem_pairs(seed)
        self.docs: list[dict] = []

    def round(self, tracer=None):
        latencies, outcomes = [], []
        for k, pair in enumerate(self.pairs):
            if tracer is not None:
                tracer.op_id = k
            t0 = perf()
            verdict = self.dynnikov.braids_equal(pair.left, pair.right)
            kind = "equal" if pair.equal else "distinct"
            latencies.append((kind, perf() - t0))
            if bool(verdict) != pair.equal:
                raise self.workloads.CheckFailed(
                    f"pair {k}: verdict {verdict} but built {kind}")
            outcomes.append(self.workloads.Outcome(True))
        return latencies, outcomes


WORKLOADS = {"reproduce": Reproduce, "oracle_corpus": OracleCorpus,
             "word_problem": WordProblem}


class Tally:
    """Latency samples per request kind and outcome counts, kept as arrays
    and counters so that the benchmark's own memory stays flat."""

    def __init__(self, tol: float | None):
        self.tol = tol
        self.latency: dict[str, array] = {}
        self.attempted = self.failed = self.false_converged = 0
        self.max_abs_err = 0.0
        self.rounds = 0

    def add(self, latencies, outcomes) -> None:
        self.rounds += 1
        for kind, seconds in latencies:
            self.latency.setdefault(kind, array("d")).append(seconds)
        for o in outcomes:
            self.attempted += 1
            if not o.converged:
                self.failed += 1
            elif o.err is not None:
                self.max_abs_err = max(self.max_abs_err, o.err)
                self.false_converged += o.err > self.tol

    def correctness(self) -> dict:
        """``false_converged`` is per round, so it does not depend on how
        many rounds fit in the run."""
        return {
            "trusted_frac": ((self.attempted - self.failed - self.false_converged)
                             / self.attempted, "ratio"),
            "failed_frac": (self.failed / self.attempted, "ratio"),
            "false_converged": (self.false_converged / self.rounds, "count"),
            "max_abs_err": (self.max_abs_err, "log"),
        }

    def latency_quantiles(self) -> tuple[float, float]:
        """(p50, p90) of the request kind with the highest median latency:
        the slower reproduce target, the equal word-problem pairs.  Pooling
        kinds of very different cost would put p50 in the gap between them."""
        return max((quantiles(v) for v in self.latency.values()), key=lambda q: q[0])


def run_rounds(work, seconds: float, tally: Tally, tracer=None) -> list[float]:
    """Rounds until ``seconds`` have passed (the last one runs to its end);
    returns the wall time of each."""
    walls = []
    t_end = perf() + seconds
    while True:
        t0 = perf()
        latencies, outcomes = work.round(tracer)
        t1 = perf()
        walls.append(t1 - t0)
        tally.add(latencies, outcomes)
        if t1 >= t_end:
            return walls


# -- metrics ------------------------------------------------------------------

def quantiles(values) -> tuple[float, float]:
    """(p50, p90) of ``values``."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(workload: str, walls, tally: Tally, setup_times) -> dict:
    p50, p90 = tally.latency_quantiles()
    who = resource.RUSAGE_CHILDREN if workload == "reproduce" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (tally.attempted / sum(walls), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "trusted_frac": tally.correctness()["trusted_frac"],
    }


def per_layer(doc, plain, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, with the tracing overhead
    (median traced minus median untraced round)."""
    layer, layers = spans.layer_metrics(doc, int(sum(traced) * 1e9), len(traced))
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {k: (v, spans.unit(k)) for k, v in layer.items()}, layers


def machine(engines) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None                            # not a git checkout: see source_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "braidseq").glob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "engine": sorted(engines), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "braidseq" / "cli.py").is_file():
        print(f"braidseq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from braidseq import dynnikov
    from braidseq.words import BraidWord

    env = child_env()
    OUT.mkdir(exist_ok=True)
    layers = None
    try:
        setup_times = measure_setup(env)
        work = WORKLOADS[args.workload](args.seed, env)
        if args.workload != "reproduce":
            work.round()                     # warm caches; checked like the rest
        engines = {dynnikov.entropy_estimate(BraidWord(3, (-1, 2))).kernel}
        tally = Tally(work.tol)
        if not args.trace:
            walls = run_rounds(work, args.seconds, tally)
            metrics = end_to_end(args.workload, walls, tally, setup_times)
        else:
            plain = run_rounds(work, args.seconds / 2, tally)
            tracer = spans.Tracer()
            uninstall = None
            if args.workload != "reproduce":     # reproduce traces its children
                uninstall = spans.install(tracer)
            traced = run_rounds(work, args.seconds / 2, tally, tracer)
            if uninstall is not None:
                uninstall()
            doc = spans.merge([tracer.to_dict()] + work.docs)
            spans.dump(doc, OUT / f"{args.workload}-seed{args.seed}.spans.json.gz")
            engines.update(doc["engines"])
            metrics, layers = per_layer(doc, plain, traced)
            walls = plain + traced
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(engines),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                          {**metrics, **tally.correctness()}.items()},
              "layer_self_s": layers,
              "samples": {"rounds": len(walls), "round_wall_s": walls,
                          "latency_samples": {k: len(v) for k, v in tally.latency.items()},
                          "setup_s": setup_times}}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": True, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
