"""The three workloads: set-up, seeded inputs, one pass of ops, and the correctness gate.

A workload builds what its ops need in ``setup`` (timed as set-up), makes
its inputs from the seed in ``make_inputs`` (untimed), and returns one pass
of ops from ``ops``.  A pass always holds the same multiset of ops; the seed
chooses their order and their inputs.  Each op makes its public calls
through the ``Runner`` and checks the result before it returns.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import semifourier as sf
from semifourier import positivity

import reference as ref
from reference import OrderData, max_abs

# Acceptance tolerances, applied to residual / max(1, ||reference||).
TOL = {
    "inversion": 1e-9,
    "convolution": 1e-9,
    "plancherel": 1e-9,
    "choi": 1e-12,
    "reconstruction": 1e-8,
    "star": 1e-10,
    "multiplicativity": 1e-10,
    "schur": 1e-8,
    "irrep": 1e-10,
}

# Failures the program is known to produce today (ROADMAP item 4).  Only the
# scale sweep reaches them; a sweep op that fails this way is counted by kind
# and the run stays correct.  Anything else that fails breaks the gate.
KNOWN_DEFECTS = (
    ("stinespring", "ValueError", lambda a: a["scale"] < 1.0,
     "a tiny map keeps no GNS eigenpairs and numpy raises on an empty array"),
    ("stinespring", "ReconstructionFailure", lambda a: a["scale"] > 1.0,
     "the reconstruction bound 1e-6 is absolute, so a large map fails it"),
)


def is_known_defect(kind: str, outcome: str, attrs: dict) -> bool:
    return any(k == kind and o == outcome and cond(attrs) for k, o, cond, _ in KNOWN_DEFECTS)


class GateFailure(Exception):
    """A wrong verdict or a residual over its tolerance."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


class Gate:
    """Checks results and keeps the largest relative residual seen per identity."""

    def __init__(self):
        self.residuals: dict[str, float] = {}
        self.bochner_disagreements = 0

    def residual(self, name: str, residual: float, scale: float) -> None:
        rel = float(residual) / max(1.0, float(scale))
        self.residuals[name] = max(self.residuals.get(name, 0.0), rel)
        if not rel <= TOL[name]:
            raise GateFailure(f"residual:{name}", f"{name} residual {rel:.3e} > {TOL[name]:.0e}")

    def verdict(self, name: str, got, want) -> None:
        if want is not None and bool(got) != bool(want):
            raise GateFailure(f"verdict:{name}", f"{name} gave {got!r}, expected {want!r}")


@dataclass
class Op:
    kind: str
    attrs: dict
    run: object  # callable taking no arguments


def op_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0] % (2**31))


class Workload:
    name = ""

    def __init__(self, runner, seed: int, smoke: bool, root: Path, workdir: Path, t0: float):
        self.r = runner
        self.seed = seed
        self.smoke = smoke
        self.root = root        # repository root: sample_data/ and src/
        self.workdir = workdir  # scratch directory for files the ops write
        self.t0 = t0            # perf_counter() at the start of the interpreter
        self.gate = Gate()
        self.counts: dict[str, int] = {}

    def count(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), int(value))

    def count_structure(self, od: OrderData, irrep_dims) -> None:
        """Exact sizes, computed from the table: they set the work of every layer."""
        n = od.order
        self.count("semigroup.order", n)
        idems = [e for e in od.nonzero if od.table[e, e] == e]
        # idempotents e, f are D-related iff some x has dom(x) = e and ran(x) = f
        dclasses = {min(od.ran[od.nonzero[od.dom[od.nonzero] == e]]) for e in idems}
        self.count("semigroup.dclasses", len(dclasses))
        self.count("semigroup.validate_bytes", 2 * n**3 * 4)
        self.count("grouprep.max_group_order", max(od.subgroup_order(e) for e in idems))
        self.count("grouprep.irreps", len(irrep_dims))
        self.count("harmonic.max_irrep_dim", max(irrep_dims))

    def setup(self) -> None:
        raise NotImplementedError

    def make_inputs(self) -> None:
        raise NotImplementedError

    def ops(self, pass_no: int) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Extra in-process ops run once in a traced run only."""
        return []

    def sweep_ops(self) -> list[Op]:
        """Ops run once per run after the passes, outside the timed ops, that may
        fail with a known defect (ROADMAP item 4)."""
        return []


def _irrep_dims(reps) -> list[int]:
    return [rep.dim for rep in reps]


# --- rook4_maps ----------------------------------------------------------------

@dataclass
class MapInput:
    kind: str
    n: int
    f: object            # the map as built (natural or groupoid basis)
    natural: object      # the same tensor as a natural-basis map
    tilde: np.ndarray    # groupoid coefficients, computed by the benchmark
    pd: bool | None      # expected positive-definiteness verdict
    transforms: list = field(default_factory=list)  # FT matrices per irrep
    data: object = None  # FourierData, input of invert_to_map


class Rook4Maps(Workload):
    """Maps on the rook monoid I_4: transforms, inversion, convolution and PD."""

    name = "rook4_maps"

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.ref = "builtin:symmetric_inverse:2" if self.smoke else "builtin:symmetric_inverse:4"
        self.dims = (1, 2) if self.smoke else (1, 2, 4)

    def setup(self):
        table = self.r.call("semigroup.from_builtin", sf.from_builtin, self.ref)
        self.st = self.r.call("semigroup.inverse_structure", sf.inverse_structure, table)
        self.reps = self.r.call("harmonic.induced_irreps", sf.induced_irreps, self.st, seed=self.seed)

    def make_inputs(self):
        st = self.st
        od = OrderData(st.table.table, st.zero)
        rng = np.random.default_rng([self.seed, 1])
        self.inputs: dict[tuple[str, int], MapInput] = {}
        for n in self.dims:
            for kind in ("random", "gram"):
                if kind == "random":
                    nat = ref.random_values(rng, od.order, n)
                    nat[od.zero] = 0.0
                    tilde = od.to_groupoid(nat)
                    f = sf.MatrixMap(st, n, "natural", nat)
                    pd = False  # non-Hermitian values: never positive definite
                else:
                    tilde = ref.gram_values(od, n, rng)
                    nat = od.to_natural(tilde)
                    f = sf.MatrixMap(st, n, "groupoid", tilde)
                    pd = True
                x = MapInput(kind, n, f, sf.MatrixMap(st, n, "natural", nat), tilde, pd)
                x.data = sf.fourier_transform_all(f, self.reps)
                x.transforms = [t.matrix for t in x.data.transforms]
                self.inputs[(kind, n)] = x
        nz = od.nonzero
        self.samples = [int(s) for s in rng.choice(nz, size=min(3, len(nz)), replace=False)]
        # per D-class: |G_k| from dom/ran counts, irreps = conjugacy classes of G_k
        self.groups = [(od.subgroup_order(e), ref.conjugacy_class_count(g.table, g.inv))
                       for e, g in ((e, sf.maximal_subgroup(st, e)) for e in st.base_idempotents)]
        self.schur_weight = max(rk * order for rk, (order, _) in zip(st.ranks, self.groups))
        self.count_structure(od, _irrep_dims(self.reps))
        self.count("positivity.pd_matrix_dim", (od.order - 1) * max(self.dims))

    def ops(self, pass_no):
        out = []
        for (kind, n), x in self.inputs.items():
            y = self.inputs[("gram" if kind == "random" else "random", n)]
            a = {"map": kind, "n": n}
            out += [
                Op("to_groupoid", a, partial(self.to_groupoid, x)),
                Op("fourier_transform_all", a, partial(self.fourier, x)),
                Op("invert_to_map", a, partial(self.invert, x)),
                Op("plancherel_check", a, partial(self.plancherel, x, y)),
                Op("convolve", a, partial(self.convolve, x, y)),
                Op("pd_check_natural", a, partial(self.pd, x, "natural")),
                Op("pd_check_blocks", a, partial(self.pd, x, "blocks")),
            ]
            # At the largest n, groupoid PD and Bochner (300-350 ms each) would form
            # a cluster whose edge sits right at op_p90_ms, so the p90 would jump
            # between clusters from run to run; they run at the smaller dims.
            if n != max(self.dims):
                out += [Op("pd_check_groupoid", a, partial(self.pd, x, "groupoid")),
                        Op("bochner_check", a, partial(self.bochner, x))]
        # the maximal subgroups S_4 ... S_1 and their irreps, each with its own seed
        # (the time to split a group varies with the seed)
        for k in range(len(self.groups)):
            out.append(Op("unitary_irreps", {"dclass": k},
                          partial(self.subgroup, k, op_seed(self.seed, pass_no, k))))
        out.append(Op("schur_residual", {}, self.schur))
        return out

    def to_groupoid(self, x):
        g = self.r.call("harmonic.to_groupoid", sf.to_groupoid, x.natural)
        self.gate.residual("inversion", max_abs(g.values - x.tilde), max_abs(x.tilde))

    def fourier(self, x):
        data = self.r.call("harmonic.fourier_transform_all", sf.fourier_transform_all, x.f, self.reps)
        for s in self.samples:  # the transforms must invert back to the map
            got = self.r.call("harmonic.fourier_invert", sf.fourier_invert, data, s, check=True)
            self.gate.residual("inversion", max_abs(got - x.tilde[s]), max_abs(x.tilde))

    def invert(self, x):
        m = self.r.call("harmonic.invert_to_map", sf.harmonic.invert_to_map, x.data)
        self.gate.residual("inversion", max_abs(m.values - x.tilde), max_abs(x.tilde))

    def plancherel(self, x, y):
        lhs, rhs, _ = self.r.call("harmonic.plancherel_check", sf.plancherel_check, x.f, y.f, self.reps)
        self.gate.residual("plancherel", max_abs(lhs - rhs), max_abs(lhs))

    def convolve(self, x, y):
        c = self.r.call("maps.convolve", sf.convolve, x.natural, y.natural)
        data = self.r.call("harmonic.fourier_transform_all", sf.fourier_transform_all, c, self.reps,
                           check=True)
        for got, fx, fy in zip(data.transforms, x.transforms, y.transforms):
            want = fx @ fy
            self.gate.residual("convolution", max_abs(got.matrix - want), max_abs(want))

    def pd(self, x, mode):
        s = self.r.call(f"positivity.pd_check_{mode}", positivity.pd_check, x.f, mode)
        self.gate.verdict(f"pd_{mode}", s.verdict, x.pd)

    def bochner(self, x):
        rep = self.r.call("positivity.bochner_check", sf.bochner_check, x.f, self.reps)
        _check_bochner(self.gate, rep, x.pd)

    def subgroup(self, k, seed):
        g = self.r.call("semigroup.maximal_subgroup", sf.maximal_subgroup, self.st,
                        self.st.base_idempotents[k])
        irreps = self.r.call("grouprep.unitary_irreps", sf.unitary_irreps, g, seed=seed)
        order, classes = self.groups[k]
        self.gate.verdict("group_order", g.order == order, True)
        self.gate.verdict("irrep_count", len(irreps) == classes
                          and sum(rho.dim ** 2 for rho in irreps) == order, True)
        tab = np.asarray(g.table)
        for rho in irreps:  # a unitary homomorphism: rho(g) rho(h) = rho(gh)
            mats = np.asarray(rho.matrices)
            self.gate.residual("irrep", max_abs(np.einsum("gab,hbc->ghac", mats, mats) - mats[tab]), 1.0)
            self.gate.residual("irrep", max_abs(np.einsum("gab,gcb->gac", mats, mats.conj())
                                                - np.eye(rho.dim)), 1.0)

    def schur(self):
        v = self.r.call("harmonic.schur_residual", sf.schur_residual, self.st, self.reps)
        self.gate.residual("schur", v, self.schur_weight)


def _check_bochner(gate: Gate, rep, want: bool | None) -> None:
    if not rep.agrees:
        gate.bochner_disagreements += 1
    gate.verdict("bochner_agrees", rep.agrees, True)
    gate.verdict("bochner_pd", rep.pd.verdict, want)
    gate.verdict("bochner_transforms", rep.transforms_verdict, want)


# --- channels --------------------------------------------------------------------

@dataclass
class ChannelInput:
    kind: str
    n: int
    f: object
    choi: np.ndarray
    cp: bool | None


@dataclass
class DilationInput:
    kind: str
    n: int
    scale: float
    f: object


# log10 of the scale ranges of the stinespring inputs.  On matrix_units:8 the
# dilation works from c = 1e-10 to 1e7 (seeds 0-1, every map, one call per
# decade); the timed ops keep two decades clear of either edge.
DILATION_SCALES = (-8.0, 6.0)
SWEEP_SCALES = (-12.0, 12.0)


class Channels(Workload):
    """Maps on matrix units, where the Fourier transform is the Choi matrix."""

    name = "channels"
    KINDS = ("kraus", "transposed_kraus", "hermitian_nonpositive", "random")

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.m = 3 if self.smoke else 14
        self.m_dilation = 2 if self.smoke else 8
        self.dims = (1, 2)

    def setup(self):
        refs = (f"builtin:matrix_units:{self.m}", f"builtin:matrix_units:{self.m_dilation}")
        self.st, self.st_dil = [
            self.r.call("semigroup.inverse_structure", sf.inverse_structure,
                        self.r.call("semigroup.from_builtin", sf.from_builtin, ref))
            for ref in refs
        ]
        self.reps = self.r.call("harmonic.induced_irreps", sf.induced_irreps, self.st, seed=self.seed)

    def make_inputs(self):
        st, m = self.st, self.m
        rng = np.random.default_rng([self.seed, 2])
        idx = ref.unit_index(st.table.element_names, m)
        self.inputs: dict[tuple[str, int], ChannelInput] = {}
        for n in self.dims:
            for kind in self.KINDS:
                if kind == "random":
                    vals = ref.random_values(rng, st.table.order, n)
                    vals[st.zero] = 0.0
                    choi = ref.choi_from_values(vals, idx)
                else:
                    if kind == "hermitian_nonpositive":
                        choi = ref.hermitian_nonpositive_choi(m * n, rng)
                    else:
                        choi = ref.kraus_choi(m, n, 2, rng)
                        if kind == "transposed_kraus":
                            choi = ref.partial_transpose(choi, m, n)
                    vals = ref.values_from_choi(choi, idx, st.table.order, n)
                cp = ref.psd_verdict(choi)
                if kind == "kraus" and cp is not True:
                    raise RuntimeError("a Kraus map's Choi matrix must be PSD")
                f = sf.MatrixMap(st, n, "natural", vals)
                self.inputs[(kind, n)] = ChannelInput(kind, n, f, choi, cp)
        # convolve pairs each map with the next kind at the same n
        self.partner = {(k, n): (self.KINDS[(i + 1) % len(self.KINDS)], n)
                        for i, k in enumerate(self.KINDS) for n in self.dims}
        self.products = {key: x.choi @ self.inputs[self.partner[key]].choi
                         for key, x in self.inputs.items()}
        self.rho = positivity.identity_rep(m)

        # stinespring inputs: Kraus maps of every Kraus rank and Gram maps, in
        # ascending order of cost.  Each map is dilated twice, at two scales c
        # drawn log-uniformly: both ends of the range plus one draw per equal block
        # of decades, paired with the maps in ascending order.
        #  - timed ops: c in DILATION_SCALES, where stinespring works today;
        #  - the scale sweep: c in SWEEP_SCALES, the whole range of ROADMAP item 4,
        #    whose ends hit known defects.  It runs once per run after the timed
        #    passes, outside the ops, so its failures are counted apart from them.
        od = OrderData(self.st_dil.table.table, self.st_dil.zero)
        md = self.m_dilation
        idx_d = ref.unit_index(self.st_dil.table.element_names, md)
        kinds = [(r, n) for r in range(1, md + 1) for n in self.dims] + [(None, n) for n in self.dims]
        maps = []
        for rank, n in kinds:
            if rank is None:
                tilde = ref.gram_values(od, n, rng)
            else:
                choi = ref.kraus_choi(md, n, rank, rng)
                tilde = od.to_groupoid(ref.values_from_choi(choi, idx_d, od.order, n))
            maps.append((f"kraus{rank}" if rank else "gram", n, tilde))

        def dilations(lo: float, hi: float) -> list[DilationInput]:
            width = (hi - lo) / (len(maps) - 2)
            draws = [10.0 ** rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(len(maps) - 2)]
            return [DilationInput(kind, n, c, sf.MatrixMap(self.st_dil, n, "groupoid", c * tilde))
                    for (kind, n, tilde), c in zip(maps, [10.0 ** lo] + draws + [10.0 ** hi])]

        self.dilations = dilations(*DILATION_SCALES)
        self.sweep = dilations(*SWEEP_SCALES)

        self.count_structure(OrderData(st.table.table, st.zero), _irrep_dims(self.reps))
        self.count("positivity.pd_matrix_dim", (st.table.order - 1) * max(self.dims))
        self.count("positivity.mult_pairs", (od.order - 1) ** 2)

    def ops(self, pass_no):
        out = []
        for (kind, n), x in self.inputs.items():
            a = {"map": kind, "n": n}
            out += [
                Op("cp_check", a, partial(self.cp, x)),
                Op("choi", a, partial(self.choi, x)),
                Op("fourier_transform_all", a, partial(self.fourier, x)),
                Op("bochner_check", a, partial(self.bochner, x)),
                Op("pd_check_blocks", a, partial(self.pd_blocks, x)),
                Op("convolve", a, partial(self.convolve, (kind, n))),
            ]
        for n in self.dims:
            out.append(Op("cp_correspondence_probe", {"n": n},
                          partial(self.probe, n, op_seed(self.seed, pass_no, n))))
        return out + self.stinespring_ops(self.dilations)

    def stinespring_ops(self, inputs) -> list[Op]:
        return [Op("stinespring", {"map": z.kind, "n": z.n, "scale": z.scale}, partial(self.stinespring, z))
                for z in inputs]

    def sweep_ops(self):
        return self.stinespring_ops(self.sweep)

    def cp(self, x):
        ok, _ = self.r.call("positivity.cp_check", sf.cp_check, x.f)
        self.gate.verdict("cp", ok, x.cp)

    def choi(self, x):
        c = self.r.call("maps.choi", sf.choi, x.f)
        self.gate.residual("choi", max_abs(c.matrix - x.choi), max_abs(x.choi))

    def fourier(self, x):
        data = self.r.call("harmonic.fourier_transform_all", sf.fourier_transform_all, x.f, self.reps)
        self.gate.residual("choi", max_abs(data.transforms[0].matrix - x.choi), max_abs(x.choi))

    def bochner(self, x):
        rep = self.r.call("positivity.bochner_check", sf.bochner_check, x.f, self.reps)
        _check_bochner(self.gate, rep, x.cp)

    def pd_blocks(self, x):
        s = self.r.call("positivity.pd_check_blocks", positivity.pd_check, x.f, "blocks")
        self.gate.verdict("pd_blocks", s.verdict, x.cp)

    def convolve(self, key):
        x, y = self.inputs[key], self.inputs[self.partner[key]]
        c = self.r.call("maps.convolve", sf.convolve, x.f, y.f)
        data = self.r.call("harmonic.fourier_transform_all", sf.fourier_transform_all, c, self.reps,
                           check=True)
        want = self.products[key]
        self.gate.residual("convolution", max_abs(data.transforms[0].matrix - want), max_abs(want))

    def probe(self, n, seed):
        trials = 4
        rep = self.r.call("positivity.cp_correspondence_probe", sf.cp_correspondence_probe,
                          self.rho, self.st, trials=trials, seed=seed, n=n)
        self.gate.verdict("probe_perfect", rep.trials == trials and rep.perfect, True)

    def stinespring(self, z):
        d = self.r.call("positivity.stinespring", sf.stinespring, z.f)
        scale = max_abs(z.f.values)
        self.gate.residual("reconstruction", d.reconstruction_residual, scale)
        self.gate.residual("star", d.star_residual, scale)
        self.gate.residual("multiplicativity", d.multiplicativity_residual, scale)
        self.count("positivity.dilation_dim", d.dim)


# --- cli_verbs ---------------------------------------------------------------------

def _pd_expected(path: str) -> bool:
    """Sample maps: gram_* and kraus_* are PD/CP by construction; random_*, transpose_* are not."""
    return Path(path).name.startswith(("gram", "kraus"))


def _json_max_abs(obj) -> float:
    """Largest modulus in a JSON matrix ([re, im] pairs) or a dict of them."""
    if isinstance(obj, dict):
        return max((_json_max_abs(v) for v in obj.values()), default=0.0)
    a = np.asarray(obj, dtype=float)
    return float(np.sqrt((a ** 2).sum(axis=-1)).max()) if a.size else 0.0


class CliVerbs(Workload):
    """Every CLI verb on every applicable sample file, one process per op."""

    name = "cli_verbs"

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.cli_seed = self.seed % 100_003
        self.first: dict[tuple, bytes] = {}

    def setup(self):
        # the span starts with the interpreter, so it covers numpy and semifourier too
        self.cli = importlib.import_module("semifourier.cli")
        self.r.record("cli.import", self.t0, time.perf_counter())

    def argvs(self) -> list[list[str]]:
        d = "sample_data"
        maps = sorted(p.name for p in (self.root / d).glob("*.json") if not p.name.startswith("identity_rep"))
        mu = [m for m in maps if m.startswith(("kraus", "transpose"))]
        pairs = [("gram_i2_seed0.json", "random_i2_seed0.json"),
                 ("random_i2_seed1.json", "random_i2_seed0.json"),
                 ("random_i3_seed0.json", "random_i3_seed0.json"),
                 ("kraus_m2_seed1.json", "transpose_m2.json")]
        out = [["analyze", s] for s in ("builtin:symmetric_inverse:2", "builtin:symmetric_inverse:3",
                                         "builtin:matrix_units:2", "builtin:symmetric_inverse:4")]
        for m in maps:
            p = f"{d}/{m}"
            out += [["fourier", p], ["invert", p], ["stinespring", p],
                    ["check", p, "--which", "pd"], ["check", p, "--which", "bochner"]]
        out += [["check", f"{d}/{m}", "--which", "cp"] for m in mu]
        for a, b in pairs:
            out.append(["plancherel", f"{d}/{a}", f"{d}/{b}"])
            if not a.startswith("gram"):  # convolution is defined on natural-basis maps
                out.append(["convolve", f"{d}/{a}", f"{d}/{b}"])
        out.append(["cpprobe", f"{d}/identity_rep_m2.json"])
        if self.smoke:
            out = [out[0], out[4], out[5], out[-1]]
        return out

    def make_inputs(self):
        self.commands = self.argvs()
        files = [p for argv in self.commands for p in argv[1:] if p.endswith(".json")]
        self.map_files = sorted({p for p in files if "identity_rep" not in p})
        refs = {argv[1] for argv in self.commands if argv[0] == "analyze"}
        refs |= {json.loads((self.root / p).read_text())["semigroup"] for p in self.map_files}
        for r in sorted(refs):
            st = sf.inverse_structure(sf.from_builtin(r))
            self.count_structure(OrderData(st.table.table, st.zero),
                                 _irrep_dims(sf.induced_irreps(st, seed=self.cli_seed)))
        self.count("jsonio.bytes_in", sum((self.root / p).stat().st_size for p in files))

    def ops(self, pass_no):
        return [Op(argv[0], {"argv": " ".join(argv)}, partial(self.process, argv)) for argv in self.commands]

    def process(self, argv):
        cmd = [sys.executable, "-m", "semifourier.cli", "--seed", str(self.cli_seed)] + argv
        proc = self.r.call("cli.process", subprocess.run, cmd, cwd=self.root, capture_output=True)
        if proc.returncode != 0:
            raise GateFailure("exit_code", f"{' '.join(argv)} exited {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace')[-300:]}")
        key = tuple(argv)
        if key in self.first:
            self.gate.verdict("byte_identical", proc.stdout == self.first[key], True)
        else:
            self.first[key] = proc.stdout
            self.count("jsonio.bytes_out", sum(len(b) for b in self.first.values()))
            self.check_report(argv, json.loads(proc.stdout))

    def check_report(self, argv, report):
        res = report["result"]
        verb = argv[0]
        want = _pd_expected(argv[1]) if argv[1].endswith(".json") else None
        g = self.gate
        if verb in ("check", "stinespring"):
            obj = json.loads((self.root / argv[1]).read_text())
            order = ref.builtin_order(obj["semigroup"])
            self.count("positivity.pd_matrix_dim", (order - 1) * obj["target_dim"])
            if verb == "stinespring":
                self.count("positivity.mult_pairs", (order - 1) ** 2)
        if verb == "analyze":
            g.verdict("wedderburn", res["wedderburn"]["ok"] and res["groupoid_roundtrip_exact"]
                      and res["order"] == ref.builtin_order(argv[1]), True)
        elif verb == "fourier" and "choi_consistency_residual" in res:
            scale = max(_json_max_abs(t["matrix"]) for t in res["transforms"].values())
            g.residual("choi", res["choi_consistency_residual"], scale)
        elif verb == "invert":
            g.residual("inversion", res["roundtrip_residual"], _json_max_abs(res["natural_map"]))
        elif verb == "plancherel":
            g.residual("plancherel", res["residual"], _json_max_abs(res["lhs"]))
        elif verb == "convolve":
            g.residual("convolution", res["fourier_product_residual"], _json_max_abs(res["convolution"]))
        elif verb == "check" and res["which"] == "pd":
            g.verdict("pd_modes", res["agree"], True)
            g.verdict("pd", res["modes"]["natural"]["verdict"], want)
        elif verb == "check" and res["which"] == "cp":
            g.verdict("cp", res["verdict"], want)
        elif verb == "check":
            g.verdict("bochner_agrees", res["agree"], True)
            g.verdict("bochner_pd", res["pd_verdict"], want)
        elif verb == "stinespring":
            g.verdict("stinespring", res["verdict"] == "ok", want)
            if want:
                scale = _json_max_abs(obj["values"])
                for name in ("reconstruction", "star", "multiplicativity"):
                    g.residual(name, res["residuals"][name], scale)
                self.count("positivity.dilation_dim", res["dilation_dim"])
        elif verb == "cpprobe":
            g.verdict("probe_perfect", res["perfect"], True)

    def probes(self):
        """In-process jsonio.load_map per sample map and cli.main per argv (traced runs only)."""
        from semifourier import jsonio

        return ([Op("load_map", {"path": p}, partial(self.load, jsonio, p)) for p in self.map_files]
                + [Op("main", {"argv": " ".join(argv)}, partial(self.main, argv)) for argv in self.commands])

    def load(self, jsonio, path):
        f = self.r.call("jsonio.load_map", jsonio.load_map, self.root / path)
        obj = json.loads((self.root / path).read_text())
        self.gate.verdict("load_map", f.dim == obj["target_dim"] and f.basis == obj["basis"], True)

    def main(self, argv):
        out = self.workdir / "report.json"
        code = self.r.call("cli.main", self.cli.main,
                           ["--seed", str(self.cli_seed), "--out", str(out)] + argv)
        self.gate.verdict("exit_code", code == 0, True)
        key = tuple(argv)
        if key in self.first:
            self.gate.verdict("byte_identical", out.read_bytes() == self.first[key], True)


WORKLOADS = {cls.name: cls for cls in (Rook4Maps, Channels, CliVerbs)}
