import collections
import json
import math
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import moodkit
from moodkit.cli import main


VALID_MODEL = """\
class Base {
    method run;
    hidden method init;
    attribute size;
}
class Derived extends Base {
    method run overrides Base.run;
    method extra;
}
class Helper {
    uses Derived;
    hidden attribute cache;
}
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "demo.omdl"
    path.write_text(VALID_MODEL)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_metrics_json(model_file, capsys):
    code, out, err = run(capsys, "metrics", model_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"mhf", "ahf", "mif", "aif", "pf", "cf", "tc"}
    assert payload["tc"] == 3
    assert payload["cf"]["numerator"] == 1
    assert payload["cf"]["denominator"] == 6


def test_metrics_table_and_csv(model_file, capsys):
    code, out, _ = run(capsys, "metrics", model_file)
    assert code == 0
    assert "MHF" in out and "classes: 3" in out
    code, out, _ = run(capsys, "metrics", model_file, "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "metric,value,numerator,denominator,undefined_reason"


def test_metrics_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "metrics", "/no/such/file.omdl")
    assert code == 1
    assert "i/o" in err


def test_metrics_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.omdl"
    path.write_text("class A extends { }")
    code, _, err = run(capsys, "metrics", str(path))
    assert code == 2
    assert "expected identifier" in err


def test_metrics_non_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.omdl"
    path.write_bytes(b"class A {\n  method f\xff;\n}\n")
    code, _, err = run(capsys, "metrics", str(path))
    assert code == 2
    assert "PARSE: 2:11:" in err and "0xff" in err


def test_metrics_reads_cr_and_crlf_line_endings(tmp_path, capsys):
    for newline in (b"\r", b"\r\n"):
        path = tmp_path / "eol.omdl"
        path.write_bytes(newline.join(
            [b"// two classes", b"class A { }", b"class B extends A { }", b""]))
        code, out, _ = run(capsys, "metrics", str(path))
        assert code == 0 and "classes: 2" in out


def test_metrics_validation_failure(tmp_path, capsys):
    path = tmp_path / "cycle.omdl"
    path.write_text("class A extends B { }\nclass B extends A { }\n")
    code, _, err = run(capsys, "metrics", str(path))
    assert code == 3
    assert "CYCLE" in err


def test_fit_builtin_table_format(capsys):
    code, out, _ = run(capsys, "fit", "builtin:table1", "--response", "NOL")
    assert code == 0
    assert "-9458.918" in out
    assert "421.994" in out
    assert "2734.947" in out
    assert "0.996" in out


def test_fit_json_golden_fields(capsys):
    code, out, _ = run(capsys, "fit", "builtin:table1", "--response", "NOC",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    betas = {c["name"]: c["beta"] for c in payload["coefficients"]}
    assert round(betas["intercept"], 3) == 24.439
    assert round(betas["NOL"], 3) == 0.002
    assert payload["anova"]["df_total"] == 32
    assert round(payload["anova"]["f_stat"], 3) == 2788.435


def test_fit_response_all(capsys):
    code, out, _ = run(capsys, "fit", "builtin:table1", "--response", "all",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [f["spec"]["response"] for f in payload] == [
        "NOL", "NOC", "NOM", "NOA"]
    for f in payload:
        a = f["anova"]
        assert a["ss_regression"] + a["ss_residual"] == pytest.approx(
            a["ss_total"], rel=1e-9)


def test_fit_alias_response(capsys):
    code, out, _ = run(capsys, "fit", "builtin:table1", "--response", "LOC",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["spec"]["response"] == "NOL"


def test_fit_unknown_column_is_domain_error(capsys):
    code, _, err = run(capsys, "fit", "builtin:table1", "--response", "ZZZ")
    assert code == 4
    assert "UNKNOWN_COLUMN" in err


def test_fit_unknown_builtin_token(capsys):
    code, _, err = run(capsys, "fit", "builtin:zzz", "--response", "NOL")
    assert code == 2
    assert "builtin" in err


def test_fit_csv_from_file(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,3\n2,5\n3,7\n4,9\n")
    code, out, _ = run(capsys, "fit", str(path), "--response", "y",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    betas = {c["name"]: c["beta"] for c in payload["coefficients"]}
    assert betas["intercept"] == pytest.approx(1.0, abs=1e-9)
    assert betas["x"] == pytest.approx(2.0, rel=1e-9)


def test_fit_malformed_csv_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1\n")
    code, _, err = run(capsys, "fit", str(path), "--response", "y")
    assert code == 2
    assert "MALFORMED_ROW" in err


def test_fit_non_numeric_csv_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,apple\n")
    code, _, err = run(capsys, "fit", str(path), "--response", "y")
    assert code == 2
    assert "NON_NUMERIC" in err


@pytest.mark.parametrize("header", ["a,a,y", "NOL,LOC,y"])
def test_fit_bad_csv_header_is_parse_error(tmp_path, capsys, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1,2,3\n")
    code, _, err = run(capsys, "fit", str(path), "--response", "y")
    assert code == 2
    assert "MALFORMED_ROW" in err and "line 1" in err


@pytest.mark.parametrize("text", ["\n", "\nNOL,NOC\n1,2\n"])
def test_fit_blank_csv_header_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    code, _, err = run(capsys, "fit", str(path), "--response", "NOL")
    assert code == 2
    assert "MALFORMED_ROW" in err and "line 1" in err


def test_dataset_non_utf8_header_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"NOL,N\xffOC\n1,2\n")
    code, _, err = run(capsys, "dataset", str(path))
    assert code == 2
    assert "MALFORMED_ROW" in err and "line 1" in err and "0xff" in err


def test_predict_golden(capsys):
    code, out, _ = run(capsys, "predict", "builtin:table1",
                       "--response", "NOL",
                       "--NOC", "65", "--NOM", "1446", "--NOA", "537")
    assert code == 0
    assert float(out.strip()) == pytest.approx(13747.81, abs=0.01)


def test_predict_equals_flag_form(capsys):
    code, out, _ = run(capsys, "predict", "builtin:table1",
                       "--response", "NOL",
                       "--NOC=65", "--NOM=1446", "--NOA=537")
    assert code == 0
    assert float(out.strip()) == pytest.approx(13747.81, abs=0.01)


def test_predict_missing_value_flag(capsys):
    code, _, err = run(capsys, "predict", "builtin:table1",
                       "--response", "NOL", "--NOC", "65", "--NOM", "1446")
    assert code == 4
    assert "NOA" in err


def test_predict_zero_inputs_give_intercept(capsys):
    code, out, _ = run(capsys, "predict", "builtin:table1",
                       "--response", "NOL",
                       "--NOC", "0", "--NOM", "0", "--NOA", "0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(-9458.918, abs=1e-3)


def test_predict_bad_value_is_usage_error(capsys):
    code, _, err = run(capsys, "predict", "builtin:table1",
                       "--response", "NOL",
                       "--NOC", "sixty-five", "--NOM", "1446", "--NOA", "537")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_predict_non_finite_value_is_usage_error(capsys, value):
    code, out, err = run(capsys, "predict", "builtin:table1",
                         "--response", "NOL", "--format", "json",
                         "--NOC", value, "--NOM", "1", "--NOA", "1")
    assert code == 2 and out == ""
    assert "finite" in err


def test_predict_overflowing_result_is_domain_error(capsys):
    code, out, err = run(capsys, "predict", "builtin:table1",
                         "--response", "NOL", "--format", "json",
                         "--NOC", "1e308", "--NOM", "1e308", "--NOA", "1e308")
    assert code == 4 and out == ""
    assert "DOMAIN" in err


def test_predict_columns_named_like_option_prefixes(tmp_path, capsys):
    # --out, --form and --res are prefixes of --output, --format and
    # --response; predict must read them as column flags.
    src = tmp_path / "d.csv"
    src.write_text("y,out,form,res\n1,2,3,4\n2,1,5,3\n3,5,1,1\n"
                   "4,3,2,5\n5,9,7,2\n6,2,2,8\n")
    point = {"out": 3.0, "form": 2.0, "res": 1.0}
    code, out, err = run(capsys, "predict", str(src), "--response", "y",
                         "--out", "3", "--form", "2", "--res", "1",
                         "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["inputs"] == point
    with open(src, newline="") as fh:
        data = moodkit.read_csv(fh)
    spec = moodkit.ModelSpec(response="y", predictors=("out", "form", "res"))
    assert payload["prediction"] == moodkit.predict(moodkit.fit(data, spec), point)


def test_extras_rejected_outside_predict(capsys):
    code, _, err = run(capsys, "fit", "builtin:table1", "--response", "NOL",
                       "--NOC", "65")
    assert code == 2
    assert "unrecognized" in err


def test_dataset_csv_output(capsys):
    code, out, _ = run(capsys, "dataset", "builtin:table1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NOL,NOC,NOM,NOA"
    assert lines[1] == "15837,65,1446,537"
    assert len(lines) == 34


def test_dataset_json_output(capsys):
    code, out, _ = run(capsys, "dataset", "builtin:table1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["NOL", "NOC", "NOM", "NOA"]
    assert len(payload["rows"]) == 33


def test_output_file_option(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "dataset", "builtin:table1",
                       "--format", "json", "-o", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["provenance"] == "paper-table-1"


def test_plot_csv_files(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    code, out, _ = run(capsys, "plot", "builtin:table1", "--x", "NOL",
                       "--y", "NOC,NOM,NOA", "--out", str(out_dir))
    assert code == 0
    for y in ("NOC", "NOM", "NOA"):
        path = out_dir / f"{y}_vs_NOL.csv"
        assert path.exists()
    lines = (out_dir / "NOC_vs_NOL.csv").read_text().splitlines()
    assert lines[0] == "NOL,NOC"
    assert len(lines) == 34
    x0, y0 = lines[1].split(",")
    assert float(x0) == 15837.0 and float(y0) == 65.0


def test_plot_log10_matches_oracle(tmp_path, capsys):
    from moodkit import builtin_table1
    out_dir = tmp_path / "plots"
    code, _, _ = run(capsys, "plot", "builtin:table1", "--x", "NOL",
                     "--y", "NOC", "--log10", "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "NOC_vs_NOL_log10.csv").read_text().splitlines()
    assert lines[0] == "NOL_log10,NOC_log10"
    data = builtin_table1()
    for line, row in zip(lines[1:], data.rows):
        x, y = (float(v) for v in line.split(","))
        assert x == pytest.approx(math.log10(row[0]), abs=1e-9)
        assert y == pytest.approx(math.log10(row[1]), abs=1e-9)


def test_plot_svg(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    code, _, _ = run(capsys, "plot", "builtin:table1", "--x", "NOL",
                     "--y", "NOC", "--svg", "--out", str(out_dir))
    assert code == 0
    svg = (out_dir / "NOC_vs_NOL.svg").read_text()
    assert svg.count("<circle") == 33


def test_plot_nonpositive_under_log10(tmp_path, capsys):
    src = tmp_path / "d.csv"
    src.write_text("x,y\n1,0\n2,5\n")
    code, _, err = run(capsys, "plot", str(src), "--x", "x", "--y", "y",
                       "--log10", "--out", str(tmp_path / "p"))
    assert code == 4
    assert "NONPOSITIVE_VALUE" in err


def test_plot_bad_column(tmp_path, capsys):
    code, _, err = run(capsys, "plot", "builtin:table1", "--x", "NOL",
                       "--y", "missing", "--out", str(tmp_path / "p"))
    assert code == 4
    assert "UNKNOWN_COLUMN" in err


def test_plot_output_stays_inside_out_dir(tmp_path, capsys):
    src = tmp_path / "d.csv"
    src.write_text("NOL,../../escape\n1,2\n3,5\n")
    out_dir = tmp_path / "a" / "b" / "out"
    code, _, err = run(capsys, "plot", str(src), "--x", "NOL",
                       "--y", "../../escape", "--svg", "--out", str(out_dir))
    assert code == 2
    assert "file name" in err
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert written == [src]


def test_format_env_default(model_file, capsys, monkeypatch):
    monkeypatch.setenv("MOODKIT_FORMAT", "json")
    code, out, _ = run(capsys, "metrics", model_file)
    assert code == 0
    json.loads(out)


def test_format_env_invalid(model_file, capsys, monkeypatch):
    monkeypatch.setenv("MOODKIT_FORMAT", "yaml")
    code, _, err = run(capsys, "metrics", model_file)
    assert code == 2
    assert "MOODKIT_FORMAT" in err


def test_format_flag_beats_env(model_file, capsys, monkeypatch):
    monkeypatch.setenv("MOODKIT_FORMAT", "json")
    code, out, _ = run(capsys, "metrics", model_file, "--format", "csv")
    assert code == 0
    assert out.startswith("metric,")


def test_json_output_deterministic(model_file, capsys):
    _, out1, _ = run(capsys, "metrics", model_file, "--format", "json")
    _, out2, _ = run(capsys, "metrics", model_file, "--format", "json")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["fit", "builtin:table1"]) == 2  # missing --response
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_cli_import_does_not_load_numpy():
    src_dir = os.path.dirname(os.path.dirname(moodkit.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    code = "import moodkit.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


_FUZZ_COLUMNS = ["NOL", "NOC", "NOM", "NOA", "nol", "x", "<&>", "é", "",
                 " ", "a b", "..", "../z", "a/b"]
_FUZZ_CELLS = ["0", "1", "-2", "3.5", "1e300", "-1e300", "1e-300", "inf",
               "nan", "", "abc", "1,5", "\"7\"", " 4 "]
_FUZZ_OMDL = ["class", "extends", "method", "attribute", "uses", "overrides",
              "visible", "hidden", "A", "B", "C", "run", "{", "}", ";", ",",
              ".", "//x", "\n", "\r\n", "#", "\udcff"]  # \udcff: a raw 0xff byte
_FUZZ_CLASSES = ["class D extends D { }", "class E extends Nope { }",
                 "class F { uses Nope; }", "class G extends Base { method run; }",
                 "class H extends Base { method f overrides Helper.f; }",
                 "class Base { }"]


def _fuzz_csv(rng):
    """Random CSV bytes and the column names in their header."""
    if rng.random() < 0.1:
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        return blob, []
    width = rng.randint(1, 5)
    names = _FUZZ_COLUMNS if rng.random() < 0.2 else _FUZZ_COLUMNS[:8]
    header = rng.sample(names, width)
    lines = [",".join(header)]
    for _ in range(rng.randint(0, 12)):
        cells = [str(rng.randint(1, 10 ** rng.randint(1, 6)))
                 for _ in range(width + (rng.random() < 0.02))]
        if cells and rng.random() < 0.05:
            cells[rng.randrange(len(cells))] = rng.choice(_FUZZ_CELLS)
        lines.append(",".join(cells))
    return ("\r\n" if rng.random() < 0.2 else "\n").join(lines).encode(), header


def _fuzz_omdl(rng):
    if rng.random() < 0.5:
        text = VALID_MODEL
        for _ in range(rng.randint(0, 2)):
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + rng.choice(_FUZZ_OMDL) + text[cut:]
        if rng.random() < 0.5:
            text += rng.choice(_FUZZ_CLASSES) + "\n"
    else:
        text = " ".join(rng.choice(_FUZZ_OMDL)
                        for _ in range(rng.randint(0, 30)))
    return text.encode("utf-8", "surrogateescape")


def _fuzz_argv(rng, header, csv_path, omdl_path, out_file, out_dir):
    pick = rng.choice
    column = lambda: pick(header * 3 + _FUZZ_COLUMNS + ["all", "noa"])
    command = pick(["metrics", "fit", "predict", "dataset", "plot"] * 3
                   + ["-h", "bogus"])
    source = pick([csv_path] * 6 + ["builtin:table1", "builtin:nope",
                                    omdl_path, csv_path + ".missing"])
    if command == "metrics":
        source = pick([omdl_path] * 8 + [csv_path, omdl_path + ".missing"])
    argv = [command, source]
    if command in ("fit", "predict"):
        argv += ["--response", column()]
    if command == "predict":
        for _ in range(rng.randint(0, 3)):
            argv += ["--" + column(), pick(["2", "0", "-1e5", "1e308", "x"])]
    if command == "plot":
        argv += ["--out", out_dir, "--x", column(), "--y",
                 ",".join(column() for _ in range(rng.randint(1, 3)))]
        argv += [flag for flag in ("--log10", "--svg") if rng.random() < 0.5]
    elif rng.random() < 0.5:
        argv += ["--format", pick(["table", "json", "csv"] * 3 + ["yaml"])]
    if command != "plot" and rng.random() < 0.3:
        argv += ["-o", out_file]
    if rng.random() < 0.2:
        noise = pick(["--x", "--svg", "--out", "--", "-q", "--x=1", "--format"])
        argv.insert(rng.randint(1, len(argv)), noise)
    return argv


def test_fuzz_whole_cli(tmp_path, capsys, monkeypatch):
    # Any input bytes and any argv end in a documented exit code with a
    # one-line message, write only to the -o file or into --out, and every
    # SVG written is well-formed.
    rng = random.Random(8)
    inputs, out_root = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    monkeypatch.chdir(inputs)
    csv_path, omdl_path = str(inputs / "d.csv"), str(inputs / "m.omdl")
    out_file, out_dir = str(out_root / "result.txt"), str(out_root / "plots")
    codes, svgs = collections.Counter(), 0
    for _ in range(600):
        blob, header = _fuzz_csv(rng)
        (inputs / "d.csv").write_bytes(blob)
        (inputs / "m.omdl").write_bytes(_fuzz_omdl(rng))
        out_root.mkdir()
        monkeypatch.delenv("MOODKIT_FORMAT", raising=False)
        if rng.random() < 0.1:
            monkeypatch.setenv("MOODKIT_FORMAT", rng.choice(["json", "xml"]))
        argv = _fuzz_argv(rng, header, csv_path, omdl_path, out_file, out_dir)
        try:
            code = main(argv)
        except Exception as exc:  # would be a traceback at the command line
            pytest.fail(f"{argv!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        assert sorted(os.listdir(tmp_path)) == ["in", "out"]
        assert sorted(os.listdir(inputs)) == ["d.csv", "m.omdl"]
        for path in out_root.rglob("*"):
            assert str(path) in (out_file, out_dir) or (
                str(path.parent) == out_dir), (argv, path)
            if path.suffix == ".svg":
                ET.parse(path)
                svgs += 1
        codes[code] += 1
        shutil.rmtree(out_root)
    # the cases reach success, each kind of failure, and the SVG writer
    assert set(codes) == {0, 1, 2, 3, 4}, codes
    assert svgs > 0, codes
