"""The benchmark's workloads: the CLI commands each one runs, in order.

Each command is a detmom CLI argument list.  ``{W}`` stands for the pool
size given to pooled commands and ``{seed}`` for the workload seed; both are
filled in by `argv`.  Commands run one at a time, each in a fresh
interpreter: a closed loop with a single client.  Why each workload was
chosen is in ``BENCHMARK.json``; which layers each should move is in
``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the kind of check its output gets.

    ``check`` is ``"golden"`` (stdout bytes and exit code equal the recorded
    ones), ``"mc"`` (the exact target equals the recorded rational and the
    estimate lies within 5 standard errors of it), ``"mc-target"`` (the
    exact target equals the recorded rational; the estimate is only required
    to be finite) or ``"exit0"``.  In every case a command must print the
    same stdout each time it runs within one benchmark run.
    """

    template: tuple[str, ...]
    check: str

    @property
    def subcommand(self) -> str:
        return self.template[0]

    @property
    def key(self) -> str:
        """The command as written, placeholders included; keys the goldens."""
        return " ".join(self.template)

    def argv(self, workers: int, seed: int) -> list[str]:
        return [part.format(W=workers, seed=seed) for part in self.template]


def _cmds(check: str, *lines: str) -> tuple[Command, ...]:
    return tuple(Command(tuple(line.split()), check) for line in lines)


# The four command groups.  The benchmark runs them as two workloads (below):
# on a shared 2-vCPU host the speed drifts over tens of seconds, and a group
# of a few seconds per pass needs a run of about a minute to average that
# out; four workloads of that length would not fit the benchmark's time.

# Closed forms and series: poly, series and formulas do nearly all the work;
# tables and sampling none.
CLOSED_FORMS = _cmds(
    "golden",
    "closed --k 4 --n 12 --basis raw",
    "closed --k 6 --n 12 --central-only",
    "closed --k 2 --n 60 --basis central",
    "series --k 6 --central-only --order 12",
    "series --k 4 --order 24 --format json",
)
# The same poly, series and formulas layers used differently: many tiny
# polynomials with warm caches in one process.  A change that speeds large
# polynomials but adds per-object cost, or drops a cache, shows in its
# split, verify_s.
CROSSCHECK = _cmds("exit0", "verify --suite all --seed {seed} --workers {W}")
# Brute-force enumeration dominates; poly only builds one final polynomial.
# The marked, odd-k oracle is the case an even-k first-row or conjugacy
# reduction bypasses; the last two commands must be refused at once by the
# budget.
ENUMERATE = _cmds(
    "golden",
    "oracle --k 2 --n 9 --workers {W}",
    "oracle --k 3 --n 4 --mode marked --workers {W}",
    "exhaustive --dist rademacher --k 4 --n 4",
    "exhaustive --dist discrete --values=-1,0,1 --probs=1/4,1/2,1/4 --k 4 --n 3",
    "oracle --k 4 --n 7",
    "exhaustive --dist rademacher --k 2 --n 5",
)
# Sampling and the symbolic exact target split the time in different known
# shares per command: a numeric-target change moves the last command most, a
# determinant-kernel change the first three.  det^k is heavy-tailed for the
# second and fourth command at these sample counts, so no standard-error
# band can check their estimates; only their exact targets are checked, and
# PROBES check their determinant kernels.
MONTECARLO = (
    *_cmds("mc", "mc --dist rademacher --k 4 --n 8 --samples 100000 "
                 "--seed {seed} --workers {W}"),
    *_cmds("mc-target", "mc --dist normal --k 6 --n 8 --samples 400000 "
                        "--seed {seed} --workers {W}"),
    *_cmds("mc", "mc --dist discrete --values=-2,-1,1,2 --probs=1/4,1/4,1/4,1/4 "
                 "--k 2 --n 12 --samples 8192 --seed {seed} --workers {W}"),
    *_cmds("mc-target", "mc --dist rademacher --k 4 --n 12 --samples 2000 "
                        "--seed {seed} --workers {W}"),
)

WORKLOADS: dict[str, tuple[Command, ...]] = {
    # The symbolic route and its cross-check: a polynomial-kernel change
    # shows here and hardly in `numeric`.
    "symbolic": CLOSED_FORMS + CROSSCHECK,
    # The brute-force and sampling routes: tables and sampling dominate.
    "numeric": ENUMERATE + MONTECARLO,
}

# Commands checked once per run, before the first pass, and not timed.  The
# heavy-tailed MONTECARLO commands leave the float LU path (normal, n=8) and
# the int64 Bareiss path at n=12 unchecked; det^2 at those sizes has a light
# enough tail for an informative band of 5 exact standard errors.
PROBES: dict[str, tuple[Command, ...]] = {
    "numeric": _cmds(
        "mc",
        "mc --dist normal --k 2 --n 8 --samples 20000 --seed {seed} --workers {W}",
        "mc --dist rademacher --k 2 --n 12 --samples 20000 --seed {seed} --workers {W}",
    ),
}

# Each has its own end-to-end split, <subcommand>_s, on the workloads that
# run it.
SUBCOMMANDS = ("closed", "series", "oracle", "exhaustive", "mc", "verify")
