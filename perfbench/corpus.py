"""Seeded input generators for the benchmark, with independently tracked
expectations.

Nothing here imports moodkit.  The OMDL generator builds each model in
declaration order and tracks, as it goes, every count the MOOD ratios are
made of; those counts are the reference the metrics output is checked
against.  The CSV generator keeps the float columns it wrote, so the
regression reference never depends on moodkit's CSV reader.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# Diagnostic codes the invalid models inject, one per model.
INJECTED_CODES = ("CYCLE", "SHADOWING", "UNRESOLVED_NAME", "BAD_OVERRIDE")


@dataclass
class _Class:
    name: str
    parents: list[str]
    methods: list[tuple[str, bool, tuple[str, str] | None]] = field(default_factory=list)
    attributes: list[tuple[str, bool]] = field(default_factory=list)
    uses: list[str] = field(default_factory=list)
    tree: str = ""   # the root its first-parent line leads to


@dataclass(frozen=True)
class OmdlCase:
    """One OMDL source text and what moodkit must make of it.

    ``expected`` maps each metric to its (numerator, denominator) when the
    model is valid; ``code`` is the one diagnostic an invalid model must
    produce.
    """

    label: str
    kind: str              # "forest", "chain" or "invalid"
    classes: int
    source: str
    expected: dict | None
    code: str | None


class _ModelBuilder:
    """Grows a class model in declaration order and tracks its tallies."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.classes: list[_Class] = []
        self.by_name: dict[str, _Class] = {}
        self.ancestors: dict[str, set[str]] = {}
        # Available features per class as (origin class, name) pairs.
        self.avail_m: dict[str, set[tuple[str, str]]] = {}
        self.avail_a: dict[str, set[tuple[str, str]]] = {}
        self.fresh = 0
        self._counts: list[tuple[int, int]] = []

    def _feature_counts(self) -> tuple[int, int]:
        """(methods, attributes) for the next class.

        Drawn without replacement from blocks holding each of 2-8 methods
        and 1-5 attributes equally often, so totals, which set the metrics
        cost, vary little between seeds.
        """
        if not self._counts:
            methods = list(range(2, 9)) * 5
            attrs = list(range(1, 6)) * 7
            self.rng.shuffle(methods)
            self.rng.shuffle(attrs)
            self._counts = list(zip(methods, attrs))
        return self._counts.pop()

    def _fresh(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def add_class(self, parents: list[str]) -> _Class:
        rng = self.rng
        name = f"C{len(self.classes)}"
        anc: set[str] = set()
        for p in parents:
            anc.add(p)
            anc |= self.ancestors[p]
        tree = self.by_name[parents[0]].tree if parents else name
        cls = _Class(name, list(parents), tree=tree)

        n_methods, n_attrs = self._feature_counts()
        overrides: dict[str, tuple[str, str]] = {}
        if anc:
            ordered_anc = sorted(anc)
            for _ in range(n_methods // 3):
                target = rng.choice(ordered_anc)
                names = sorted({n for _, n in self.avail_m[target]} - set(overrides))
                if names:
                    meth = rng.choice(names)
                    overrides[meth] = (target, meth)
        for meth, target in overrides.items():
            cls.methods.append((meth, rng.random() < 0.4, target))
        while len(cls.methods) < n_methods:
            cls.methods.append((self._fresh("m"), rng.random() < 0.4, None))
        rng.shuffle(cls.methods)
        for _ in range(n_attrs):
            cls.attributes.append((self._fresh("a"), rng.random() < 0.6))

        local_m = {m for m, _, _ in cls.methods}
        local_a = {a for a, _ in cls.attributes}
        inh_m: set[tuple[str, str]] = set()
        inh_a: set[tuple[str, str]] = set()
        for p in parents:
            inh_m |= {f for f in self.avail_m[p] if f[1] not in local_m}
            inh_a |= {f for f in self.avail_a[p] if f[1] not in local_a}
        self.avail_m[name] = {(name, m) for m in local_m} | inh_m
        self.avail_a[name] = {(name, a) for a in local_a} | inh_a
        self.ancestors[name] = anc
        self.classes.append(cls)
        self.by_name[name] = cls
        return cls

    def add_uses(self):
        """0-3 client edges per class to random other classes: linear size."""
        names = [c.name for c in self.classes]
        if len(names) < 2:
            return
        for cls in self.classes:
            k = self.rng.randint(0, min(3, len(names) - 1))
            picks = set()
            while len(picks) < k:
                t = self.rng.choice(names)
                if t != cls.name:
                    picks.add(t)
            cls.uses = sorted(picks)

    def expected(self) -> dict[str, tuple[int, int]]:
        """(numerator, denominator) of each metric from the tracked sets."""
        dc = {c.name: 0 for c in self.classes}
        for c in self.classes:
            for a in self.ancestors[c.name]:
                dc[a] += 1
        mh = md = ah = ad = mi = ma = ai = aa = mo = pf_den = clients = 0
        for c in self.classes:
            n_m, n_a = len(c.methods), len(c.attributes)
            n_over = sum(1 for _, _, t in c.methods if t is not None)
            m_inh = len(self.avail_m[c.name]) - n_m
            a_inh = len(self.avail_a[c.name]) - n_a
            mh += sum(1 for _, hidden, _ in c.methods if hidden)
            md += n_m
            ah += sum(1 for _, hidden in c.attributes if hidden)
            ad += n_a
            mi += m_inh
            ma += n_m + m_inh
            ai += a_inh
            aa += n_a + a_inh
            mo += n_over
            pf_den += (n_m - n_over) * dc[c.name]
            anc = self.ancestors[c.name]
            clients += sum(1 for t in set(c.uses) if t != c.name and t not in anc)
        tc = len(self.classes)
        return {"mhf": (mh, md), "ahf": (ah, ad), "mif": (mi, ma),
                "aif": (ai, aa), "pf": (mo, pf_den),
                "cf": (clients, tc * tc - tc if tc >= 2 else 0)}

    def source(self, label: str) -> str:
        out = [f"// {label}"]
        for c in self.classes:
            head = f"class {c.name}"
            if c.parents:
                head += " extends " + ", ".join(c.parents)
            out.append(head + " {")
            for name, hidden, target in c.methods:
                vis = "hidden " if hidden else ""
                tail = f" overrides {target[0]}.{target[1]}" if target else ""
                out.append(f"    {vis}method {name}{tail};")
            for name, hidden in c.attributes:
                out.append(f"    {'hidden ' if hidden else 'visible '}attribute {name};")
            if c.uses:
                out.append("    uses " + ", ".join(c.uses) + ";")
            out.append("}")
        return "\n".join(out) + "\n"


# Share of the non-root classes of a forest at each depth 1..8.
DEPTH_PROFILE = (0.25, 0.25, 0.2, 0.12, 0.08, 0.05, 0.03, 0.02)
ROOT_SHARE = 0.12
DIAMOND_SHARE = 0.10


def _build_forest(rng: random.Random, n: int) -> _ModelBuilder:
    """Trees of depth <= 8; about 10% of classes get a second parent
    from their own tree, which closes a diamond.

    The number of classes at each depth is fixed by DEPTH_PROFILE and only
    the wiring is random: the metrics cost grows with depth, so a random
    depth mix would make two seeds' corpora differ in cost, not just in
    content.
    """
    b = _ModelBuilder(rng)
    roots = max(1, round(ROOT_SHARE * n))
    rest = n - roots
    diamonds = set(rng.sample(range(rest), round(DIAMOND_SHARE * rest)))
    by_depth: list[list[_Class]] = [[b.add_class([]) for _ in range(roots)]]
    bounds, acc = [], 0.0
    for share in DEPTH_PROFILE:
        acc += share
        bounds.append(acc * rest)
    for k in range(rest):
        depth = next(d for d, bound in enumerate(bounds, 1) if k < bound)
        depth = min(depth, len(by_depth))
        first = rng.choice(by_depth[depth - 1])
        parents = [first.name]
        if k in diamonds:
            cands = [c for level in by_depth[:depth] for c in level
                     if c.tree == first.tree and c is not first
                     and c.name not in b.ancestors[first.name]]
            if cands:
                parents.append(rng.choice(cands).name)
        cls = b.add_class(parents)
        if depth == len(by_depth):
            by_depth.append([])
        by_depth[depth].append(cls)
    b.add_uses()
    return b


def _build_chain(rng: random.Random, depth: int) -> _ModelBuilder:
    b = _ModelBuilder(rng)
    b.add_class([])
    for _ in range(depth - 1):
        b.add_class([b.classes[-1].name])
    b.add_uses()
    return b


def _inject(b: _ModelBuilder, code: str) -> None:
    """Add one defect that validate must report as exactly ``code``."""
    rng = b.rng
    with_parents = [c for c in b.classes if c.parents]
    if code == "CYCLE":
        # A class comes to extend one of its own descendants.
        child = rng.choice(with_parents)
        root = rng.choice(sorted(b.ancestors[child.name]))
        b.by_name[root].parents.append(child.name)
    elif code == "SHADOWING":
        # A new attribute reuses the name of one the class inherits.
        cands = [c for c in with_parents if len(b.avail_a[c.name]) > len(c.attributes)]
        cls = rng.choice(cands)
        local = {a for a, _ in cls.attributes}
        inherited = sorted(n for o, n in b.avail_a[cls.name] if n not in local)
        cls.attributes.append((rng.choice(inherited), False))
    elif code == "UNRESOLVED_NAME":
        cls = rng.choice(b.classes)
        cls.uses.append(f"Missing{b.fresh + 1}")
    elif code == "BAD_OVERRIDE":
        # Override a method of a class that is neither an ancestor nor a
        # descendant (a descendant's own method would then shadow it).
        def unrelated(cls):
            return [c for c in b.classes
                    if c.name != cls.name and c.name not in b.ancestors[cls.name]
                    and cls.name not in b.ancestors[c.name]]

        cls = rng.choice([c for c in b.classes if unrelated(c)])
        target = rng.choice(unrelated(cls))
        meth = next(m for m, _, t in target.methods if t is None)
        cls.methods.append((meth, False, (target.name, meth)))
    else:
        raise ValueError(f"unknown injected code {code!r}")


def _strata(k: int, lo: float, hi: float, offsets=None) -> list[int]:
    """k log-uniform sizes in [lo, hi], one in each of k equal strata, at
    ``offsets[i]`` within stratum i (the middle by default).

    Every seed gets the same size mix, so two seeds differ in how their
    models are wired, not in how many large models they drew.
    """
    ratio = math.log(hi / lo)
    offsets = [0.5] * k if offsets is None else offsets
    return [round(lo * math.exp(ratio * (i + off) / k)) for i, off in enumerate(offsets)]


# Per pass: the smallest forest, the number of deep chains and the number
# of invalid models (one per injected code).
FOREST_MIN = 10
CHAINS = 2
INVALID = len(INJECTED_CODES)


@dataclass(frozen=True)
class DesignMix:
    forests: int = 32
    forest_max: int = 250
    chain_min: int = 40
    chain_max: int = 60
    passes: int = 6


def _shifted(k: int, p: int, passes: int) -> list[float]:
    """Offsets within k strata for pass p: stratum i sits at the
    ((i + p) mod passes)-th of ``passes`` evenly spaced offsets."""
    return [((i + p) % passes + 0.5) / passes for i in range(k)]


def design_corpus(seed: int, mix: DesignMix = DesignMix()) -> list[list[OmdlCase]]:
    """Forests (log-uniform size), deep chains and models with one defect.

    Over the passes each stratum takes every one of ``passes`` offsets, so
    the jobs of a run cover a fine grid of sizes and latency percentiles
    fall between near neighbours.  Within a pass neighbouring strata take
    neighbouring offsets (alternate chains mirrored ones), so the largest
    models, which set a pass's cost, sit low in some strata and high in
    others: every pass costs about the same, and how many passes a run
    completes does not change its size mix.
    """
    rng = random.Random(f"design-{seed}")
    passes = []
    for p in range(mix.passes):
        cases: list[OmdlCase] = []
        sizes = _strata(mix.forests, FOREST_MIN, mix.forest_max,
                        _shifted(mix.forests, p, mix.passes))
        for i, n in enumerate(sizes):
            b = _build_forest(rng, n)
            label = f"p{p}-forest{i}-n{n}"
            cases.append(OmdlCase(label, "forest", n, b.source(label), b.expected(), None))
        span = mix.chain_max - mix.chain_min
        off = (p + 0.5) / mix.passes
        for i in range(CHAINS):
            at = off if i % 2 == 0 else 1 - off
            depth = mix.chain_min + round(span * (i + at) / CHAINS)
            b = _build_chain(rng, depth)
            label = f"p{p}-chain{i}-d{depth}"
            cases.append(OmdlCase(label, "chain", depth, b.source(label), b.expected(), None))
        sizes = _strata(INVALID, FOREST_MIN, mix.forest_max,
                        _shifted(INVALID, p, mix.passes))
        for i, n in enumerate(sizes):
            code = INJECTED_CODES[i % len(INJECTED_CODES)]
            b = _build_forest(rng, n)
            _inject(b, code)
            label = f"p{p}-invalid{i}-{code}-n{n}"
            cases.append(OmdlCase(label, "invalid", n, b.source(label), None, code))
        rng.shuffle(cases)
        passes.append(cases)
    return passes


def omdl_case(seed: int, n: int, code: str | None = None) -> OmdlCase:
    """One forest of n classes, with one injected defect when code is given."""
    rng = random.Random(f"omdl-{seed}-{n}-{code}")
    b = _build_forest(rng, n)
    if code is None:
        return OmdlCase(f"forest-n{n}", "forest", n, b.source(f"forest-n{n}"),
                        b.expected(), None)
    _inject(b, code)
    label = f"invalid-{code}-n{n}"
    return OmdlCase(label, "invalid", n, b.source(label), None, code)


# ------------------------------------------------------------ size data

COLUMNS = ("NOL", "NOC", "NOM", "NOA")


@dataclass(frozen=True)
class CsvCase:
    """One CSV text and the float table it was written from."""

    label: str
    rows: int
    text: str
    values: np.ndarray     # shape (rows, 4), columns NOL, NOC, NOM, NOA
    point: dict            # predictor values for predict: the column medians


def csv_text(values: np.ndarray) -> str:
    lines = [",".join(COLUMNS)]
    lines += [f"{int(a)},{int(b)},{int(c)},{int(d)}" for a, b, c, d in values.tolist()]
    return "\n".join(lines) + "\n"


def size_table(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Correlated log-normal size measures shaped like the paper's Table 1.

    Class counts are log-normal; lines, methods and attributes scale with
    them through per-system log-normal densities, so NOL spans about six
    orders of magnitude.
    """
    log_noc = rng.normal(2.3, 0.75, rows)
    log_nol = log_noc + rng.normal(2.3, 0.45, rows)
    log_nom = log_noc + rng.normal(0.8, 0.4, rows)
    log_noa = 0.6 * log_nom + 0.4 * log_noc + rng.normal(-0.1, 0.35, rows)
    table = np.column_stack([log_nol, log_noc, log_nom, log_noa])
    return np.maximum(1.0, np.rint(10.0 ** table))


@dataclass(frozen=True)
class SizeMix:
    # (fewest rows, most rows, jobs per pass), row counts log-uniform in
    # between; Table 1 itself is one more job per pass.  The jobs near 1,000
    # rows, where the 90th percentile falls, span a range of sizes so that
    # the percentile moves smoothly, not between two clusters, when the
    # machine's speed changes during a run.
    sizes: tuple[tuple[int, int, int], ...] = (
        (33, 33, 99), (500, 2000, 10), (10000, 10000, 4), (100000, 100000, 1))


def size_corpus(seed: int, table1_rows, mix: SizeMix = SizeMix()) -> list[CsvCase]:
    rng = np.random.default_rng([seed, 33])
    order = random.Random(f"size-{seed}")
    tables = [("table1", np.asarray(table1_rows, float))]
    for lo, hi, count in mix.sizes:
        tables += [(f"rows{rows}-{i}", size_table(rng, rows))
                   for i, rows in enumerate(_strata(count, lo, hi))]
    cases = [CsvCase(label, len(values), csv_text(values), values,
                     dict(zip(COLUMNS, np.median(values, axis=0).tolist())))
             for label, values in tables]
    order.shuffle(cases)
    return cases
