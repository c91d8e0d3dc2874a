"""The benchmark workloads: three sweeps, their union, and the CLI mix.

Each workload builds its inputs with lofs calls in ``setup`` (timed as
set-up), lists its units, runs one unit per ``run`` call (the only timed
code per unit), and checks and digests each output outside the timers.
Every name of lofs is looked up through the module handles at call time,
so the tracer's rebound wrappers are the ones called.

The sweeps use fixed, deterministic slices of the full exhaustive sweeps,
sized for one pass in a few seconds.  Each slice is a stride through the
full sweep, so its heavy units are kept in proportion: the pinned
counts below record that the largest carrier (64) and the largest square
set (243) are in the slice.  ``tiny`` selects a much smaller input set
for smoke tests; its counts are not pinned.
"""

from __future__ import annotations

import contextlib
import io
import os

import clidocs

DEFAULT_SEED = 1


class Workload:
    name = ""
    unit = ""
    # pinned work counts and output digest of the full-scale slice
    pinned = None

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def setup(self, lofs):
        """Build the inputs with lofs calls; the return value is the unit list."""
        raise NotImplementedError

    def prepare(self, workdir):
        """Benchmark-side preparation that is not set-up time (file writing)."""

    def pass_context(self):
        return contextlib.nullcontext()

    def run(self, lofs, unit):
        raise NotImplementedError

    def check(self, lofs, unit, output):
        """None when ``output`` is right, else a message."""
        raise NotImplementedError

    def digest(self, unit, output):
        """Bytes that stand for ``output`` in the pass digest."""
        raise NotImplementedError

    def count(self, counts, unit, output):
        """Add this unit's work to ``counts``."""
        counts[self.unit + "s"] = counts.get(self.unit + "s", 0) + 1

    def label(self, unit):
        return repr(unit)

    def part_of(self, unit):
        """(part name, unit name) under which ``unit`` is reported."""
        return self.name, self.unit

    def probe(self, lofs):
        """Untimed extra requests run after the passes: (report, problems)."""
        return {}, []

    def expected(self):
        """Pinned counts and digest for this run, or None when not pinned."""
        return None if self.tiny else self.pinned


def _reps(lofs, max_size):
    return [p for n in range(max_size + 1) for p in lofs.order.enumerate_preorders(n)]


class FactorSweep(Workload):
    """``factorise`` on every 8th monotone map between representatives of size <= 4."""

    name = "factor-sweep"
    unit = "map"
    STRIDE = 8
    pinned = {
        "maps": 10930,
        "carrier_sum": 202917,
        "max_carrier": 64,
        "digest": "f87d29980c997941a1efa0a690e250c42fe44afb3056dda4f0aa9260d7055d78",
    }

    def setup(self, lofs):
        order = lofs.order
        max_size, stride = (2, 1) if self.tiny else (4, self.STRIDE)
        reps = _reps(lofs, max_size)
        maps = []
        index = 0
        for X in reps:
            for Y in reps:
                for assign in order.monotone_assignments(X, Y):
                    if index % stride == 0:
                        maps.append(order.MonotoneMap(X, Y, assign))
                    index += 1
        return maps

    def run(self, lofs, f):
        return lofs.factorisation.factorise(f)

    def check(self, lofs, f, fact):
        if lofs.order.compose(fact.lam, fact.rho).assign != f.assign:
            return "left part then right part differs from f"
        if fact.K.n != len(fact.pairs):
            return "carrier size differs from its pair list"
        return None

    def digest(self, f, fact):
        return repr((fact.K.up, fact.lam.assign, fact.rho.assign, fact.pairs)).encode()

    def count(self, counts, f, fact):
        super().count(counts, f, fact)
        counts["carrier_sum"] = counts.get("carrier_sum", 0) + fact.K.n
        counts["max_carrier"] = max(counts.get("max_carrier", 0), fact.K.n)

    def label(self, f):
        return f"{f.src!r} -> {f.tgt!r} {list(f.assign)}"


class LiftSweep(Workload):
    """Least diagonals and KZ sections for (full map, algebra) pairs of size <= 3.

    The slice keeps pair (i, k), for the i-th full map and the k-th
    algebra, when i - k is a multiple of 12: every full map and every
    algebra appears, and so do the 243-square pairs.
    """

    name = "lift-sweep"
    unit = "pair"
    STRIDE = 12
    pinned = {
        "pairs": 974,
        "squares": 14621,
        "max_squares": 243,
        "full_maps": 146,
        "algebras": 80,
        "digest": "4466a7652d1cd10efba6b7a4e7e8b7d6d81532cdaad542e0512aa4b995d823c7",
    }

    def setup(self, lofs):
        order, fact = lofs.order, lofs.factorisation
        max_size, stride = (2, 1) if self.tiny else (3, self.STRIDE)
        reps = _reps(lofs, max_size)
        classes = {}
        for X in reps:
            for Y in reps:
                for f in order.hom_maps(X, Y):
                    classes.setdefault(order.arrow_canonical_key(f), f)
        fulls = [(f, fact.coalgebra_structure(f)) for f in classes.values() if order.is_full(f)]
        algebras = []
        for g in classes.values():
            w = fact.algebra_structure(g)
            if w is not None:
                algebras.append((g, w))
        self.sizes = {"full_maps": len(fulls), "algebras": len(algebras)}
        return [
            (f, s, g, p)
            for i, (f, s) in enumerate(fulls)
            for k, (g, p) in enumerate(algebras)
            if (i - k) % stride == 0
        ]

    def run(self, lofs, unit):
        f, s, g, p = unit
        sqs = lofs.order.squares(f, g)
        diag = lofs.factorisation.canonical_diag
        diagonals = [diag(sq, s, p) for sq in sqs]
        return sqs, diagonals, lofs.lifting.kz_orthogonal(f, g)

    def check(self, lofs, unit, output):
        order = lofs.order
        f, _, g, _ = unit
        sqs, diagonals, w = output
        if w is None:
            return "KZ witness missing"
        homs = order.hom_maps(f.tgt, g.src)
        for i, (sq, d) in enumerate(zip(sqs, diagonals)):
            if not order.maps_equivalent(order.compose(f, d), sq.h):
                return f"diagonal misses h on square {i}"
            if not order.maps_equivalent(order.compose(d, g), sq.k):
                return f"diagonal misses k on square {i}"
            if not order.maps_equivalent(homs[w.left_adjoint.assign[i]], d):
                return f"KZ section disagrees with the diagonal on square {i}"
        return None

    def digest(self, unit, output):
        sqs, diagonals, w = output
        return repr((
            [(sq.h.assign, sq.k.assign) for sq in sqs],
            [d.assign for d in diagonals],
            w.left_adjoint.assign,
            w.exact,
        )).encode()

    def count(self, counts, unit, output):
        super().count(counts, unit, output)
        n = len(output[0])
        counts["squares"] = counts.get("squares", 0) + n
        counts["max_squares"] = max(counts.get("max_squares", 0), n)
        counts.update(self.sizes)

    def label(self, unit):
        f, _, g, _ = unit
        return f"full {list(f.assign)}:{f.src.n}->{f.tgt.n} vs algebra {list(g.assign)}:{g.src.n}->{g.tgt.n}"


class KanClassify(Workload):
    """``kan_injective`` against all embeddings of size <= 4.

    Objects: every preorder of size <= 4, and every 8th of size 5 counted
    from position 49 of the size <= 5 enumeration, which keeps the
    slowest object (position 185).  Set-up pays the size-5 enumeration.
    """

    name = "kan-classify"
    unit = "object"
    pinned = {
        "objects": 65,
        "complete": 19,
        "family": 1589,
        "digest": "99d4ca64a4e9b78b0934284c87c206ea0398a090a7db1131bddba07166dbe5b6",
    }

    def setup(self, lofs):
        kan = lofs.kan
        gen_size, max_size = (3, 3) if self.tiny else (4, 5)
        self.family = kan.all_embeddings(gen_size)
        objects = _reps(lofs, max_size)
        return [A for i, A in enumerate(objects) if A.n < 5 or i % 8 == 1]

    def run(self, lofs, A):
        return lofs.kan.kan_injective(A, self.family)

    def check(self, lofs, A, injective):
        if injective != lofs.order.is_complete_lattice(A):
            return "Kan injectivity differs from being a complete lattice"
        return None

    def digest(self, A, injective):
        return repr((A.n, A.up, injective)).encode()

    def count(self, counts, A, injective):
        super().count(counts, A, injective)
        counts["complete"] = counts.get("complete", 0) + bool(injective)
        counts["family"] = len(self.family)

    def label(self, A):
        return repr(A)


class CliMixed(Workload):
    """One caller in a closed loop over ``lofs.cli.main``, stdout captured.

    Requests come from ``clidocs.generate(seed)``; the known-defect probes
    run after the timed passes and are reported, not timed.
    """

    name = "cli-mixed"
    unit = "request"
    REQUESTS = 2000
    pinned = {
        "requests": 2000,
        "malformed": 200,
        "probes": 20,
        "digest": "eb87846d6af8d6845043d12dcaf489b2822deb2904523e45c5b9cbe31d1e328e",
    }

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.requests, self.probes = clidocs.generate(seed, 40 if tiny else self.REQUESTS)
        self.workdir = None
        self.out = io.StringIO()

    def setup(self, lofs):
        return self.requests

    def prepare(self, workdir):
        self.workdir = workdir
        for req in self.requests + self.probes:
            for name, text in req.files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)

    @contextlib.contextmanager
    def pass_context(self):
        # relative paths keep file names (and so stdout) free of the work directory
        previous = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(io.StringIO()):
                yield
        finally:
            os.chdir(previous)

    def run(self, lofs, req):
        out = self.out
        out.seek(0)
        out.truncate()
        try:
            code = lofs.cli.main(req.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        return code, out.getvalue()

    def check(self, lofs, req, output):
        code, stdout = output
        if code not in req.expect:
            return f"exit {code}, expected one of {sorted(req.expect)}"
        if (code in (2, 3)) != (stdout == ""):
            return f"exit {code} with {len(stdout)} bytes on stdout"
        return None

    def digest(self, req, output):
        code, stdout = output
        return f"{req.index}:{code}:".encode() + stdout.encode()

    def count(self, counts, req, output):
        super().count(counts, req, output)
        counts["malformed"] = counts.get("malformed", 0) + (req.kind in clidocs.MALFORMED)
        counts["probes"] = len(self.probes)

    def label(self, req):
        return f"{req.kind}: lofs {' '.join(req.argv)}"

    def expected(self):
        return None if self.tiny or self.seed != DEFAULT_SEED else self.pinned

    def probe(self, lofs):
        """The known-defect requests: ({class: {outcome: count}}, problems)."""
        report, problems = {}, []
        with self.pass_context():
            for req in self.probes:
                raised, expected_exc = None, clidocs.DEFECTS[req.defect][0]
                try:
                    code, stdout = self.run(lofs, req)
                except Exception as exc:  # the defects raise out of cli.main
                    raised = type(exc).__name__
                if raised is not None:
                    outcome = f"raised {raised}"
                    if raised != expected_exc:
                        problems.append(f"{req.defect}: {outcome}")
                else:
                    outcome = f"exit {code}"
                    if code not in req.expect or stdout:
                        problems.append(f"{req.defect}: {outcome}")
                bucket = report.setdefault(req.defect, {})
                bucket[outcome] = bucket.get(outcome, 0) + 1
        return report, problems


class Sweeps(Workload):
    """The three sweeps in one pass: every ``factor-sweep`` map, then every
    ``lift-sweep`` pair, then every ``kan-classify`` object.

    A unit is ``(part index, part unit)``; each part sets up, runs, checks
    and digests its own units.  One longer run over all three parts
    measures more steadily on a shared host than three short ones, and
    per-part figures are reported beside the totals.
    """

    name = "sweeps"
    unit = "unit"
    PARTS = (FactorSweep, LiftSweep, KanClassify)
    pinned = {
        **{k: v for part in PARTS for k, v in part.pinned.items() if k != "digest"},
        "digest": "3bb461ce51e74fe00914cc5f4e2b513b99a8de6de3000609c978a8edb66124e7",
    }

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.parts = [part(seed, tiny) for part in self.PARTS]

    def setup(self, lofs):
        return [(i, u) for i, part in enumerate(self.parts) for u in part.setup(lofs)]

    def run(self, lofs, unit):
        i, u = unit
        return self.parts[i].run(lofs, u)

    def check(self, lofs, unit, output):
        i, u = unit
        return self.parts[i].check(lofs, u, output)

    def digest(self, unit, output):
        i, u = unit
        return self.parts[i].digest(u, output)

    def count(self, counts, unit, output):
        i, u = unit
        self.parts[i].count(counts, u, output)

    def label(self, unit):
        i, u = unit
        return f"{self.parts[i].name}: {self.parts[i].label(u)}"

    def part_of(self, unit):
        part = self.parts[unit[0]]
        return part.name, part.unit


WORKLOADS = {w.name: w for w in (FactorSweep, LiftSweep, KanClassify, CliMixed, Sweeps)}
