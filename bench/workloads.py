"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  Inputs come only from the seed.  A workload yields its
timed schedule as blocks of ops; every block of a workload has the same
composition, so a run that stops at a block boundary measures the same mix
whatever the seed.  ``run`` executes one op and returns its raw output;
``check`` judges that output against answers that do not come from the code
under test.

- ``membership``: criterion 4 trials, ``level_membership`` and
  ``level_normal_form(...).is_zero()`` on one polynomial.  Dominated by
  ``taylor_shift`` and by rebuilding ``level_basis``; the same (grid, t)
  recurs, so shift kernels and basis caches show here.
- ``groebner``: ``buchberger_certifies(level_basis(grid, t))`` over criterion
  3's sweep.  Dominated by division; no ``taylor_shift`` and no repeated
  (grid, t) within a run, so shift and cache changes should not show.
- ``cli``: one ``combnull`` subprocess per op; interpreter start and imports
  dominate, so front-end and import-time changes show and kernels should not.
- ``blocking``: blocking-set searches and audits, the only workload that
  exercises ``covering``; no polynomial code runs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from itertools import product


def _axis_configs():
    """The six axis configs of criteria 3 and 4: {0} or {0,1}, psi 1 or 2."""
    out = []
    for S in ((0,), (0, 1)):
        for psi_vals in product((1, 2), repeat=len(S)):
            out.append((S, dict(zip(S, psi_vals))))
    return out


AXIS_CONFIGS = _axis_configs()


def _grid(cn, ring, combo):
    return cn.MultisetGrid.build(ring, [list(c[0]) for c in combo], [dict(c[1]) for c in combo])


COEFF_SPAN = 4  # random coefficients are drawn from -COEFF_SPAN..COEFF_SPAN


def _random_poly(cn, rng, ring, nvars, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        alpha = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[alpha] = ring.canon(rng.randint(-COEFF_SPAN, COEFF_SPAN))
    return cn.Poly(ring, nvars, terms)


def _balanced_walk(rng, n):
    """All 6^n tuples of axis configs, in a seeded order where each aligned
    run of six consecutive tuples uses every config once on every axis.

    The tuples split into the 6^(n-1) transversals
    ``{(x, x+u_2, ..., x+u_n) mod 6}``; the walk visits them in random order,
    under a random relabelling of the configs on each axis.
    """
    relabel = [rng.sample(range(6), 6) for _ in range(n)]
    offsets = list(product(range(6), repeat=n - 1))
    rng.shuffle(offsets)
    walk = []
    for off in offsets:
        for x in rng.sample(range(6), 6):
            idx = (x,) + tuple((x + u) % 6 for u in off)
            walk.append(tuple(AXIS_CONFIGS[relabel[k][i]] for k, i in enumerate(idx)))
    return walk


class Workload:
    """Common shape; subclasses generate inputs in ``__init__`` (set-up)."""

    name = ""
    trace_op_count = 0

    def blocks(self):
        raise NotImplementedError

    def warmup_ops(self):
        for block in self.blocks():
            yield from block

    def run(self, op):
        raise NotImplementedError

    def check(self, op, output) -> bool:
        raise NotImplementedError

    def trace_ops(self) -> list:
        """A fixed op list for the traced run, so its counts repeat per seed."""
        ops = []
        for block in self.blocks():
            ops.extend(block)
            if len(ops) >= self.trace_op_count:
                return ops[: self.trace_op_count]
        return ops

    def traced_runner(self):
        return self.run

    def layer_probes(self, untraced_op_s: float) -> dict:
        """Extra per-layer timings, given the mean untraced op time."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# -- membership ---------------------------------------------------------------


class Membership(Workload):
    """Criterion 4 trials.  A block holds, for each of the 24 (ring, n, t)
    configurations, one constructed member and three random polynomials;
    the pool of blocks is generated at set-up and cycled.  Each slot walks
    its own balanced order of all 6^n axis-config tuples, so every seed runs
    nearly the same mix of grids and the throughput does not hinge on a few
    draws of the heaviest ones."""

    name = "membership"
    POOL_BLOCKS = 96
    trace_op_count = 4 * 96

    def __init__(self, cn, seed, root):
        self.cn = cn
        rng = random.Random(seed)
        slots = [
            (ring, n, t, i)
            for ring in (cn.ZZ, cn.GF(5))
            for n in (1, 2, 3)
            for t in range(4)
            for i in range(4)
        ]
        walks = [_balanced_walk(rng, n) for _, n, _, _ in slots]
        self.pool = []
        for b in range(self.POOL_BLOCKS):
            block = []
            for (ring, n, t, i), walk in zip(slots, walks):
                grid = _grid(cn, ring, walk[b % len(walk)])
                member = i == 0
                if member:
                    f = cn.Poly.zero(ring, n)
                    for g in cn.level_basis(grid, t).members:
                        f = f + _random_poly(cn, rng, ring, n, 2, 2) * g
                else:
                    f = _random_poly(cn, rng, ring, n, 5, 7)
                block.append((grid, t, f, member))
            rng.shuffle(block)
            self.pool.append(block)

    def blocks(self):
        while True:
            yield from self.pool

    def run(self, op):
        grid, t, f, _ = op
        cn = self.cn
        return cn.level_membership(f, grid, t), cn.level_normal_form(f, grid, t).is_zero()

    def check(self, op, output) -> bool:
        vanishing, nf_zero = output
        # the two engines agree, and every constructed member is judged in
        return vanishing == nf_zero and (vanishing or not op[3])


# -- groebner -------------------------------------------------------------------


class Groebner(Workload):
    """Criterion 3's sweep: every axis config for n = 1..3 and t = 0..3,
    one pass per ring.  The first two passes are criterion 3 itself (ZZ and
    GF(5)); later passes continue over further prime fields so that no
    (grid, t) repeats within a run.  Each pass is in seeded order.  Warm-up
    uses GF(3), which the timed passes never use."""

    name = "groebner"
    PASS_PRIMES = (5, 7, 11, 13, 17, 19, 23)
    WARMUP_PRIME = 3
    BLOCK = 24  # ops per block; a pass of 1032 ops is 43 blocks
    trace_op_count = 480

    def __init__(self, cn, seed, root):
        self.cn = cn
        rng = random.Random(seed)
        rings = [cn.ZZ] + [cn.GF(p) for p in self.PASS_PRIMES]
        self.passes = []
        for ring in rings:
            items = self._sweep(ring)
            rng.shuffle(items)
            self.passes.append(items)
        self.warmup = self._sweep(cn.GF(self.WARMUP_PRIME))
        rng.shuffle(self.warmup)

    def _sweep(self, ring):
        items = []
        for n in (1, 2, 3):
            for combo in product(AXIS_CONFIGS, repeat=n):
                grid = _grid(self.cn, ring, combo)
                items.extend((grid, t) for t in range(4))
        return items

    def blocks(self):
        for items in self.passes:
            for i in range(0, len(items), self.BLOCK):
                yield items[i : i + self.BLOCK]

    def warmup_ops(self):
        return iter(self.warmup)

    def run(self, op):
        grid, t = op
        cn = self.cn
        return cn.buchberger_certifies(cn.level_basis(grid, t))

    def check(self, op, output) -> bool:
        # level bases are Groebner bases by theorem, for any monic axis polynomials
        return output is True


# -- blocking -------------------------------------------------------------------

# Minimal size of a t-fold affine blocking multiset in GF(q)^n, keyed (q, n, t).
# t = 1: n(q-1)+1 (Jamison 1977; Brouwer and Schrijver 1978).
# (2,2,2): every line of AG(2,2) is one of a parallel pair that partitions the
#   plane, so m >= 2t = 4, and the whole plane meets each line twice.
# (2,2,3): m >= 6 likewise, and 6 would force every line to weigh exactly 3,
#   which parity forbids (w01 = w10 and w01 + w10 = 3); weights
#   (w00, w01, w10, w11) = (1, 2, 2, 2) give 7.
# (2,3,2), (3,2,2), (3,2,3): checked by the exhaustive weight-vector count in
#   test_bench.py, which shares no code with combnull.covering.
MIN_BLOCKING_SIZE = {
    (2, 2, 1): 3,
    (3, 2, 1): 5,
    (2, 3, 1): 4,
    (2, 4, 1): 5,
    (2, 2, 2): 4,
    (2, 3, 2): 6,
    (2, 2, 3): 7,
    (3, 2, 2): 8,
    (3, 2, 3): 9,
}


def hyperplanes(q, n):
    """Every affine hyperplane of GF(q)^n as a frozenset of points, computed
    directly from its equation (normals not normalized; duplicates removed)."""
    points = list(product(range(q), repeat=n))
    planes = set()
    for eta in product(range(q), repeat=n):
        if any(eta):
            for c in range(q):
                planes.add(frozenset(p for p in points if sum(a * b for a, b in zip(eta, p)) % q == c))
    return planes


def blocks_t_fold(planes, points, t) -> bool:
    return all(sum(1 for p in points if p in plane) >= t for plane in planes)


class Blocking(Workload):
    """A block searches every instance once and audits twenty seeded
    multisets per instance (sizes around the minimum, so some block and some
    do not).  Searches take nearly all the time and set the throughput; the
    audits are 95% of the ops, so the median and p90 fall among audits,
    whose latencies spread smoothly, rather than on the edge between two
    search instances.  Audit answers come from the benchmark's own
    hyperplane count."""

    name = "blocking"
    INSTANCES = tuple(MIN_BLOCKING_SIZE)
    POOL_BLOCKS = 16
    AUDITS_PER_INSTANCE = 20
    trace_op_count = 2 * 189

    def __init__(self, cn, seed, root):
        self.cn = cn
        rng = random.Random(seed)
        self.planes = {(q, n): hyperplanes(q, n) for q, n, _ in self.INSTANCES}
        self.pool = []
        for _ in range(self.POOL_BLOCKS):
            block = []
            for inst in self.INSTANCES:
                q, n, t = inst
                block.append(("search", inst, None))
                space = list(product(range(q), repeat=n))
                for _ in range(self.AUDITS_PER_INSTANCE):
                    size = MIN_BLOCKING_SIZE[inst] + rng.choice((-1, 0, 1))
                    if t == 1:
                        pts = rng.sample(space, min(size, len(space)))
                    else:
                        pts = rng.choices(space, k=size)
                    block.append(("audit", inst, tuple(pts)))
            rng.shuffle(block)
            self.pool.append(block)

    def blocks(self):
        while True:
            yield from self.pool

    def run(self, op):
        kind, (q, n, t), pts = op
        if kind == "search":
            return self.cn.minimal_blocking_size(q, n, t)
        return self.cn.blocking_audit(q, n, t, list(pts))

    def check(self, op, output) -> bool:
        kind, inst, pts = op
        q, n, t = inst
        planes = self.planes[(q, n)]
        if kind == "search":
            size, example = output
            return (
                size == MIN_BLOCKING_SIZE[inst]
                and len(example) == size
                and blocks_t_fold(planes, [tuple(p) for p in example], t)
            )
        return (
            output.blocked == blocks_t_fold(planes, pts, t)
            and output.size == len(pts)
            and output.bound == (n + t - 1) * (q - 1) + 1
        )


# -- cli ------------------------------------------------------------------------

GRID_2x2 = "{S:[[0,1],[0,1]]}"
PGRID_2x2 = "{S:[[0,1],[0,1]], E:[[0],[0]]}"
CERT_PLACEHOLDER = "{cert}"

# Hand-checked expectations (derivations in the comments).
CERT_JSON = {
    # f = x1 * g1 * g2 with g1 = x1^2 - x1, g2 = x2^2 - x2, so over the level-2
    # basis (g2^2, g1 g2, g1^2) the quotients are (0, x1, 0), remainder 0.
    "basis": "I_t",
    "basis_polys": {
        "(0,2)": "x2^4 - 2*x2^3 + x2^2",
        "(1,1)": "x1^2*x2^2 - x1^2*x2 - x1*x2^2 + x1*x2",
        "(2,0)": "x1^4 - 2*x1^3 + x1^2",
    },
    "checks": {"identity": True, "remainder_reduced": True, "support": True},
    "degree_report": {"leading_cover": True},
    "nvars": 2,
    "poly": "x1^3*x2^2 - x1^3*x2 - x1^2*x2^2 + x1^2*x2",
    "quotients": {"(0,2)": "0", "(1,1)": "x1", "(2,0)": "0"},
    "remainder": "0",
    "ring": "ZZ",
    "t": 2,
}

# Each unit is one or more (argv, exit code, expected stdout) calls run back to
# back; the certificate and its verify form one unit (a write, then a read).
CLI_UNITS = (
    # g1^2 * g2 on {0,1} x {0,1,2} over GF(5): a multiple of the level-2 generator g1^2
    ((("membership", "--ring", "GF(5)", "--grid", "{S:[[0,1],[0,1,2]]}", "--t", "2",
       "--poly", "x1^4*x2^3 - 2*x1^3*x2^3 + x1^2*x2^3 - 3*x1^4*x2^2 + 6*x1^3*x2^2"
       " - 3*x1^2*x2^2 + 2*x1^4*x2 - 4*x1^3*x2 + 2*x1^2*x2"), 0, "true\n"),),
    # x2 * g1 vanishes only to order 1 at (0,1), so it is not in I_2
    ((("membership", "--ring", "ZZ", "--grid", GRID_2x2, "--t", "2",
       "--poly", "x1^2*x2 - x1*x2"), 1, "false\n"),),
    # modulo (x1^2 - x1, x2^2 - x2) every positive power of x_k reduces to x_k
    ((("normal-form", "--ring", "ZZ", "--grid", GRID_2x2, "--t", "1",
       "--poly", "x1^3*x2^2 + 2*x1^2 - 5"), 0, "x1*x2 + 2*x1 - 5\n"),),
    (
        (("certificate", "--ring", "ZZ", "--grid", GRID_2x2, "--t", "2",
          "--poly", "x1^3*x2^2 - x1^2*x2^2 - x1^3*x2 + x1^2*x2",
          "--format", "json", "--out", CERT_PLACEHOLDER), 0, CERT_JSON),
        (("verify", "--certificate", "@" + CERT_PLACEHOLDER), 0,
         "identity: True\nsupport: True\nremainder_reduced: True\nvalid: True\n"),
    ),
    # axis polynomials in distinct variables always form a Groebner basis
    ((("groebner-check", "--ring", "ZZ", "--basis", "x1^2-x1",
       "--basis", "x2^3-3*x2^2+2*x2"), 0, "certified: True\n"),),
    # simple vanishing on the 4 points of {0,1} x {0,2}: both counts are 4
    ((("groebner-check", "--ring", "ZZ", "--spec",
       '{"ring":"ZZ","S":[[0,1],[0,2]],"B":{"(0,0)":[[1,0],[0,1]],'
       '"(0,2)":[[1,0],[0,1]],"(1,0)":[[1,0],[0,1]],"(1,2)":[[1,0],[0,1]]}}',
       "--basis", "x1^2-x1", "--basis", "x2^2-2*x2"), 0,
      "condition (D) per axis: [True, True]\ngrid staircase count (zeta1): 4\n"
      "leading staircase count (zeta2): 4\nverdict: groebner\n"),),
    # f = (x1-1)(x2-1) is reduced, equals the off-puncture product, and
    # f(0,0) = 1, so the bound is 0*1 + (1 + 1) = 2 = deg f
    ((("punctured", "--ring", "ZZ", "--grid", PGRID_2x2, "--t", "1",
       "--poly", "x1*x2 - x1 - x2 + 1", "--analyze"), 0,
      "true\nnormal form: x1*x2 - x1 - x2 + 1\ndivisor: x1*x2 - x1 - x2 + 1\n"
      "cofactor: 1\ndegree bound: 2 (holds: True)\n"),),
    # value (t-1)*2 + (1 + 1) = 4; witness (x1^2 - x1)(x1 - 1)(x2 - 1) expanded
    ((("mixed", "--ring", "ZZ", "--grid", PGRID_2x2, "--t", "2", "--min-extra-degree"), 0,
      "4\nwitness: x1^3*x2 - x1^3 - 2*x1^2*x2 + 2*x1^2 + x1*x2 - x1\n"),),
    # the lines x = 0 and y = 0 of AG(2,3) meet every line; 5 = 2*(3-1)+1
    ((("cover", "--q", "3", "--n", "2", "--t", "1",
       "--points", "(0,0);(0,1);(0,2);(1,0);(2,0)"), 0,
      "blocked: True\nsize: 5 (bound 5)\n"),),
    # box 4 x 6 minus the 2 x 3 corner above (2,3): 24 - 6 = 18
    ((("count", "--alpha", "(2,3)", "--t", "2"), 0, "18\n"),),
    # x1*x2*(x1-1) is nonzero on {0,1,2}^2 only at (2,1), (2,2); mu (1,2) gives 2
    ((("alon-furedi", "--ring", "ZZ", "--S", "[[0,1,2],[0,1,2]]", "--beta", "(2,1)",
       "--poly", "x1^2*x2 - x1*x2"), 0,
      "mu: (1, 2)\nbound: 2\nactual nonzero count: 2\n"),),
)


class Cli(Workload):
    """One ``python -m combnull.cli`` subprocess per op, one child at a time.
    A block runs every table unit once in seeded order.  The traced run
    calls ``combnull.cli.main`` in-process instead and probes interpreter
    start and import time separately."""

    name = "cli"
    trace_op_count = 2 * sum(len(unit) for unit in CLI_UNITS)
    PROBE_REPS = 7

    def __init__(self, cn, seed, root):
        self.cn = cn
        self.cli = importlib.import_module("combnull.cli")
        self.seed = seed
        self.root = root
        self.tmp = root / "bench" / "out" / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.cert = self.tmp / f"cert-{os.getpid()}.json"
        self.units = [
            tuple((tuple(a.replace(CERT_PLACEHOLDER, str(self.cert)) for a in argv), code, out)
                  for argv, code, out in unit)
            for unit in CLI_UNITS
        ]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def blocks(self):
        rng = random.Random(self.seed)
        while True:
            units = list(self.units)
            rng.shuffle(units)
            yield [call for unit in units for call in unit]

    def warmup_ops(self):
        return iter([call for unit in self.units for call in unit])

    def _spawn(self, argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )

    def run(self, op):
        proc = self._spawn(("-m", "combnull.cli", *op[0]))
        return proc.returncode, proc.stdout

    def run_in_process(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(op[0]))
        return code, buf.getvalue()

    def traced_runner(self):
        return self.run_in_process

    def check(self, op, output) -> bool:
        code, stdout = output
        _, want_code, want_out = op
        if code != want_code:
            return False
        if isinstance(want_out, dict):
            try:
                return json.loads(stdout) == want_out
            except json.JSONDecodeError:
                return False
        return stdout == want_out

    def layer_probes(self, untraced_op_s: float) -> dict:
        """Median interpreter start, median import of combnull.cli less start,
        and the mean in-process ``main`` call."""
        def median_wall(argv):
            times = []
            for _ in range(self.PROBE_REPS):
                start = time.perf_counter()
                proc = self._spawn(argv)
                times.append(time.perf_counter() - start)
                if proc.returncode != 0:
                    raise RuntimeError(f"probe {argv} exited {proc.returncode}: {proc.stderr}")
            times.sort()
            return times[len(times) // 2]

        spawn = median_wall(("-c", "pass"))
        imported = median_wall(("-c", "import combnull.cli"))
        return {"cli.spawn_s": spawn, "cli.import_s": imported - spawn,
                "cli.main_s": untraced_op_s}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        self.cert.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Membership, Groebner, Cli, Blocking)}
