"""The three workloads: what one job does, and how its output is checked.

Each workload has ``cases`` (one pass over the corpus, built by ``setup``),
``run_job(case, tracer)`` which takes one case through the pipeline and
returns its output, and ``check(case, output)`` which returns a list of
failures, each a (kind, message) pair.  Only moodkit's public names are
used.  Checks run outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import moodkit
import numpy as np

import corpus
from spans import NULL_TRACER

# Documented absolute accuracy of moodkit's tail probabilities ("~1e-13"
# on reg_inc_beta).  Fixed before the first run; p-values further from
# scipy than this are failures.
P_ABS_TOL = 1e-13
# Errors up to this size are the known accuracy defect at large residual
# df (largest seen in 20 runs: 8.4e-11) and have kind "p_accuracy";
# anything larger is a wrong p-value, kind "p_value".
P_DEFECT_MAX = 1e-9
# Each coefficient's contribution to the fitted values, |db_j| * ||x_j||,
# must stay within this share of ||y||: a backward-stable QR meets it
# with orders of magnitude to spare, a perturbed coefficient does not.
COEF_TOL = 1e-9
SE_REL_TOL = 1e-8
ANOVA_REL_TOL = 1e-9
# Models at most this large are also checked against tests/oracles.
ORACLE_MAX_CLASSES = 30
# Inputs of at most this many rows also take the plot / CSV write path.
WRITE_SIDE_MAX_ROWS = 1000
SERIES = ("NOC", "NOM", "NOA")
SVG_NS = "{http://www.w3.org/2000/svg}"


class Workload:
    """Defaults shared by the workloads.

    ``passes`` holds the cases of each pass over the corpus; a run takes
    them in turn and starts again from the first when it needs more.
    """

    passes: list[list]

    @property
    def cases(self) -> list:
        return [case for cases in self.passes for case in cases]

    def collect(self, out: dict) -> dict:
        """Gather what a job left outside the process; runs after its pass."""
        return out

    def probe(self, tr):
        """Extra traced measurements taken once per traced pass."""


class DesignMetrics(Workload):
    """omdl.parse -> validate -> compute_all -> JSON, as ``moodkit metrics``."""

    name = "design_metrics"

    def __init__(self, mix: corpus.DesignMix = corpus.DesignMix()):
        self.mix = mix
        self.passes: list[list[corpus.OmdlCase]] = []
        self._sample: set[str] = set()

    def setup(self, seed: int):
        self.passes = corpus.design_corpus(seed, self.mix)
        self._sample = {c.label for c in self.passes[0]}

    def warm_up(self):
        forests = sorted((c for c in self.passes[0] if c.kind == "forest"),
                         key=lambda c: c.classes)
        self.run_job(forests[len(forests) // 2], NULL_TRACER)

    def size(self, case) -> int:
        return case.classes

    def run_job(self, case, tr) -> dict:
        with tr.span("omdl.parse"):
            doc = moodkit.parse(case.source)
        with tr.span("class_model.validate"):
            diags = moodkit.validate(doc.model)
        tr.count("class_model.diagnostics", len(diags))
        if diags:
            return {"codes": [d.code for d in diags]}
        with tr.span("metrics.compute_all"):
            report = moodkit.compute_all(doc.model)
        tr.count("metrics.classes", len(doc.model))
        with tr.span("cli.render"):
            text = json.dumps(report.to_json(), indent=2)
        return {"json": text}

    def check(self, case, out: dict) -> list[tuple[str, str]]:
        if "raised" in out:
            return [("raised", out["raised"])]
        if case.kind == "invalid":
            if out.get("codes") != [case.code]:
                return [("diagnostics", f"{case.label}: want [{case.code}], "
                                        f"got {out.get('codes')}")]
            return []
        if "json" not in out:
            return [("diagnostics", f"{case.label}: valid model rejected: "
                                    f"{out.get('codes')}")]
        fails = check_report(case, out["json"])
        if not fails and case.label in self._sample:
            fails = self._cross_check(case)
        return fails

    def _cross_check(self, case) -> list[tuple[str, str]]:
        """Round-trip the model; check small ones against tests/oracles too.
        Run on the first pass's models, a sample of the corpus."""
        model = moodkit.parse(case.source).model
        fails = []
        if moodkit.parse(moodkit.render(model)).model != model:
            fails.append(("round_trip", f"{case.label}: parse(render(m)) != m"))
        if case.classes <= ORACLE_MAX_CLASSES:
            from tests.oracles import metric_oracle
            want = {k: tuple(v) for k, v in case.expected.items()}
            if metric_oracle(model) != want:
                fails.append(("oracle", f"{case.label}: generator and "
                                        "tests.oracles disagree"))
        return fails


def check_report(case, text: str) -> list[tuple[str, str]]:
    """Compare a metrics JSON report with the generator's tallies."""
    report = json.loads(text)
    fails = []
    if report["tc"] != case.classes:
        fails.append(("metrics", f"{case.label}: tc {report['tc']} != {case.classes}"))
    for key, (num, den) in case.expected.items():
        got = (report[key]["numerator"], report[key]["denominator"])
        if got != (num, den):
            fails.append(("metrics", f"{case.label}: {key} {got} != {(num, den)}"))
        elif den and report[key]["value"] != num / den:
            fails.append(("metrics", f"{case.label}: {key} value mismatch"))
    return fails


class _Reference:
    """Least-squares reference for one response, from numpy alone."""

    def __init__(self, values: np.ndarray, response: int):
        preds = [j for j in range(4) if j != response]
        self.preds = preds
        x = np.column_stack([np.ones(len(values))] + [values[:, j] for j in preds])
        y = values[:, response]
        self.beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ self.beta
        df = len(y) - x.shape[1]
        r = np.linalg.qr(x, mode="r")
        rinv = np.linalg.inv(r)
        self.se = np.sqrt(float(resid @ resid) / df * np.sum(rinv * rinv, axis=1))
        self.col_norms = np.linalg.norm(x, axis=0)
        self.y_norm = float(np.linalg.norm(y))
        self.df = df


class SizeRegression(Workload):
    """read_csv -> fit_all_interchange -> predict -> JSON, plus, for small
    inputs, the plot and ``dataset --format csv`` write side."""

    name = "size_regression"

    def __init__(self, mix: corpus.SizeMix = corpus.SizeMix()):
        self.mix = mix
        self.passes: list[list[corpus.CsvCase]] = []
        self._refs: dict[str, list[_Reference]] = {}
        self.max_p_err = 0.0

    def setup(self, seed: int):
        table1 = moodkit.builtin_table1().rows
        self.passes = [corpus.size_corpus(seed, table1, self.mix)]
        self._refs = {}

    def warm_up(self):
        self.run_job(next(c for c in self.cases if c.label == "table1"), NULL_TRACER)

    def size(self, case) -> int:
        return case.rows

    def run_job(self, case, tr) -> dict:
        with tr.span("dataset.read_csv"):
            data = moodkit.read_csv(io.StringIO(case.text), provenance=case.label)
        tr.count("dataset.rows", data.n_rows)
        with tr.span("regression.fit"):
            fits = moodkit.fit_all_interchange(data)
        tr.count("regression.fits", len(fits))
        if tr.active:
            # Re-evaluate each fit's own tails, as a sibling of the fit.
            with tr.span("special.tail"):
                calls = 0
                for f in fits:
                    df = f.anova.df_residual
                    for c in f.coefficients:
                        moodkit.t_two_sided_p(c.t_stat, df)
                    moodkit.f_upper_p(f.anova.f_stat, f.anova.df_regression, df)
                    calls += len(f.coefficients) + 1
            tr.count("special.tail_calls", calls)
        with tr.span("regression.predict"):
            preds = [moodkit.predict(f, case.point) for f in fits]
        with tr.span("cli.render"):
            text = json.dumps({"fits": [f.to_json() for f in fits],
                               "predictions": preds}, indent=2)
        out = {"json": text}
        if case.rows <= WRITE_SIDE_MAX_ROWS:
            with tr.span("dataset.scatter"):
                series = moodkit.scatter(data, "NOL", list(SERIES), log10=True)
            with tr.span("dataset.svg"):
                out["svg"] = [moodkit.svg_scatter(s) for s in series]
            with tr.span("dataset.write_csv"):
                buf = io.StringIO()
                moodkit.write_csv(data, buf)
                out["csv"] = buf.getvalue()
            out["points"] = [s.points for s in series]
        return out

    def references(self, case) -> list[_Reference]:
        if case.label not in self._refs:
            self._refs[case.label] = [_Reference(case.values, j) for j in range(4)]
        return self._refs[case.label]

    def check(self, case, out: dict) -> list[tuple[str, str]]:
        if "raised" in out:
            return [("raised", out["raised"])]
        payload = json.loads(out["json"])
        refs = self.references(case)
        fails, p_err = check_fits(case.label, payload["fits"], refs, case.rows)
        self.max_p_err = max(self.max_p_err, p_err)
        for ref, got in zip(refs, payload["predictions"]):
            fails += check_prediction(case.label, ref, case.point, got)
        if case.rows <= WRITE_SIDE_MAX_ROWS:
            fails += self._check_write_side(case, out)
        return fails

    def _check_write_side(self, case, out) -> list[tuple[str, str]]:
        fails = []
        if out["csv"] != case.text:
            fails.append(("write_csv", f"{case.label}: write_csv output differs"))
        logs = np.log10(case.values)
        for k, (name, pts, svg) in enumerate(zip(SERIES, out["points"], out["svg"])):
            want = logs[:, [0, 1 + k]]
            if len(pts) != case.rows or not np.allclose(
                    np.asarray(pts), want, rtol=1e-14, atol=1e-14):
                fails.append(("scatter", f"{case.label}: {name} points differ"))
            fails += check_svg(f"{case.label}/{name}", svg, case.rows)
        return fails


def check_fits(label: str, fits: list[dict], refs: list[_Reference],
               rows: int) -> tuple[list[tuple[str, str]], float]:
    """Compare four interchange fits (as JSON) with the numpy references and
    their p-values with scipy, evaluated at moodkit's own statistics.

    Returns the failures and the largest absolute p-value error seen.
    """
    from scipy import stats
    fails = []
    worst = 0.0
    if [f["spec"]["response"] for f in fits] != list(corpus.COLUMNS):
        return [("fit", f"{label}: responses {[f['spec']['response'] for f in fits]}")], worst
    for fit, ref in zip(fits, refs):
        resp = fit["spec"]["response"]
        where = f"{label}/{resp}"
        if fit["n"] != rows:
            fails.append(("fit", f"{where}: n {fit['n']} != {rows}"))
        coefs = fit["coefficients"]
        want_names = ["intercept"] + [corpus.COLUMNS[j] for j in ref.preds]
        if [c["name"] for c in coefs] != want_names:
            fails.append(("fit", f"{where}: terms {[c['name'] for c in coefs]}"))
            continue
        beta = np.array([c["beta"] for c in coefs])
        se = np.array([c["std_error"] for c in coefs])
        contrib = np.abs(beta - ref.beta) * ref.col_norms
        if np.any(contrib > COEF_TOL * ref.y_norm):
            fails.append(("fit", f"{where}: coefficients differ from lstsq by "
                                 f"{float(contrib.max() / ref.y_norm):.2e} of ||y||"))
        if np.any(np.abs(se - ref.se) > SE_REL_TOL * ref.se):
            fails.append(("fit", f"{where}: standard errors differ from the QR reference"))
        a = fit["anova"]
        if abs(a["ss_regression"] + a["ss_residual"] - a["ss_total"]) > \
                ANOVA_REL_TOL * a["ss_total"]:
            fails.append(("anova", f"{where}: ss_regression + ss_residual != ss_total"))
        if a["df_residual"] != ref.df or a["df_regression"] != 3 or a["df_total"] != rows - 1:
            fails.append(("anova", f"{where}: degrees of freedom"))
        df = a["df_residual"]
        p_err = abs(a["p_value"] - float(stats.f.sf(a["f_stat"], a["df_regression"], df)))
        for c in coefs:
            p_err = max(p_err, abs(c["p"] - float(2.0 * stats.t.sf(abs(c["t"]), df))))
        worst = max(worst, p_err)
        if p_err > P_ABS_TOL:
            kind = "p_accuracy" if p_err <= P_DEFECT_MAX else "p_value"
            fails.append((kind, f"{where}: p-value off scipy by {p_err:.1e} "
                                f"at df={df} (documented ~{P_ABS_TOL:g})"))
    return fails, worst


def check_prediction(label: str, ref: _Reference, inputs: dict,
                     got: float) -> list[tuple[str, str]]:
    """Compare ``predict`` at ``inputs`` with the reference equation."""
    xs = [1.0] + [inputs[corpus.COLUMNS[j]] for j in ref.preds]
    want = float(np.dot(ref.beta, xs))
    if abs(got - want) > COEF_TOL * float(np.sum(np.abs(ref.beta) * np.abs(xs))):
        return [("predict", f"{label}: prediction {got} != {want}")]
    return []


def check_svg(label: str, svg: str, points: int) -> list[tuple[str, str]]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [("svg", f"{label}: not well-formed XML: {exc}")]
    circles = root.findall(f"{SVG_NS}circle")
    if root.tag != f"{SVG_NS}svg" or len(circles) != points:
        return [("svg", f"{label}: {len(circles)} points drawn, want {points}")]
    return []


# ------------------------------------------------------------- cli_cold

TABLE1_PREDICT = ("NOC", "NOM", "NOA")


@dataclass(frozen=True)
class CliCase:
    label: str
    sub: str
    argv: tuple[str, ...]
    exit: int
    omdl: corpus.OmdlCase | None = None
    values: dict | None = None


class CliCold(Workload):
    """One ``python -m moodkit.cli`` subprocess per job, one after another."""

    name = "cli_cold"

    def __init__(self, root: str, workdir: str, model_classes: int = 30):
        self.root = root
        self.workdir = workdir
        self.model_classes = model_classes
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.env.pop("MOODKIT_FORMAT", None)
        self.passes: list[list[CliCase]] = []
        self._plots = 0
        self._table1 = None
        self._refs = None

    def setup(self, seed: int):
        rng = random.Random(f"cli-{seed}")
        self._table1 = np.asarray(moodkit.builtin_table1().rows, float)
        os.makedirs(self.workdir, exist_ok=True)
        valid = corpus.omdl_case(seed, self.model_classes)
        invalid = corpus.omdl_case(seed, self.model_classes,
                                   rng.choice(corpus.INJECTED_CODES))
        paths = {}
        for case in (valid, invalid):
            paths[case.kind] = os.path.join(self.workdir, f"{case.kind}.omdl")
            with open(paths[case.kind], "w", encoding="utf-8") as fh:
                fh.write(case.source)
        values = {k: float(rng.randint(10, 5000)) for k in TABLE1_PREDICT}
        flags = tuple(a for k, v in values.items() for a in (f"--{k}", repr(v)))
        table1 = "builtin:table1"
        self.passes = [[
            CliCase("metrics", "metrics", ("metrics", paths["forest"], "--format", "json"),
                    0, omdl=valid),
            CliCase("metrics-invalid", "metrics", ("metrics", paths["invalid"]),
                    3, omdl=invalid),
            CliCase("fit", "fit", ("fit", table1, "--response", "all", "--format", "json"), 0),
            CliCase("predict", "predict", ("predict", table1, "--response", "NOL")
                    + flags + ("--format", "json"), 0, values=values),
            CliCase("dataset", "dataset", ("dataset", table1, "--format", "csv"), 0),
            CliCase("plot", "plot", ("plot", table1, "--x", "NOL", "--y", ",".join(SERIES),
                                     "--log10", "--svg", "--out"), 0),
        ]]
        self._refs = [_Reference(self._table1, j) for j in range(4)]

    def warm_up(self):
        """One untimed run per argv, so every .pyc exists before timing."""
        for case in self.cases:
            self.collect(self.run_job(case, NULL_TRACER))

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def run_job(self, case, tr) -> dict:
        argv = list(case.argv)
        out_dir = None
        if case.sub == "plot":
            self._plots += 1
            out_dir = os.path.join(self.workdir, f"plot{self._plots}")
            argv.append(out_dir)
        with tr.span(f"cli.{case.sub}"):
            proc = self.python("-m", "moodkit.cli", *argv)
        return {"exit": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "out_dir": out_dir}

    def collect(self, out: dict) -> dict:
        """Read the files ``plot`` wrote, then remove its output directory."""
        out_dir = out.pop("out_dir", None)
        if out_dir is not None:
            files = {}
            for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    files[name] = fh.read()
            out["files"] = files
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def probe(self, tr):
        """Bare interpreter and bare import, each as its own span."""
        with tr.span("cli.interpreter"):
            self.python("-c", "pass")
        with tr.span("cli.import"):
            self.python("-c", "import moodkit.cli")

    def check(self, case, out: dict) -> list[tuple[str, str]]:
        label = case.label
        if "raised" in out:
            return [("raised", out["raised"])]
        if out["exit"] != case.exit:
            return [("exit", f"{label}: exit {out['exit']}, want {case.exit}: "
                             f"{out['stderr'][-300:]}")]
        if "Traceback" in out["stderr"]:
            return [("traceback", f"{label}: traceback on stderr")]
        if case.sub == "metrics":
            if case.exit == 3:
                if f"moodkit: {case.omdl.code}" not in out["stderr"]:
                    return [("diagnostics", f"{label}: {case.omdl.code} not reported")]
                return []
            return check_report(case.omdl, out["stdout"])
        if case.sub == "fit":
            return check_fits(label, json.loads(out["stdout"]), self._refs,
                              len(self._table1))[0]
        if case.sub == "predict":
            return check_prediction(label, self._refs[0], case.values,
                                    json.loads(out["stdout"])["prediction"])
        if case.sub == "dataset":
            if out["stdout"] != corpus.csv_text(self._table1):
                return [("dataset", f"{label}: CSV differs from Table 1")]
            return []
        # plot: exactly the three SVG files, each well-formed with 33 points.
        want = sorted(f"{name}_vs_NOL_log10.svg" for name in SERIES)
        if sorted(out["files"]) != want:
            return [("plot", f"{label}: wrote {sorted(out['files'])}, want {want}")]
        fails = []
        for name, text in out["files"].items():
            fails += check_svg(f"{label}/{name}", text, len(self._table1))
        return fails


def by_name(name: str, root: str, workdir: str):
    if name == "design_metrics":
        return DesignMetrics()
    if name == "size_regression":
        return SizeRegression()
    if name == "cli_cold":
        return CliCold(root, workdir)
    raise ValueError(f"unknown workload {name!r}")

