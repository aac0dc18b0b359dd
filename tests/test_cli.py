import hashlib
import json
import math

import numpy as np
import pytest

from predlab import cli
from predlab.cli import build_parser, main, parse_predictor_spec, parse_source_spec
from predlab import PI1, MuxPredictor
from predlab.adversary import theorem1_experiment
from predlab.loss import CSV_COLUMNS, write_tidy_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_source_spec_grammar(tmp_path):
    assert parse_source_spec("periodic:01").spec == "periodic:01"
    assert parse_source_spec("champernowne").symbol_at(3) == 1
    assert parse_source_spec("coin:9").symbol_at(1) in (0, 1)
    path = tmp_path / "x.txt"
    path.write_text("01\n", encoding="ascii")
    assert parse_source_spec(f"file:{path}").symbol_at(2) == 1
    with pytest.raises(ValueError):
        parse_source_spec("fibonacci")


def test_predictor_spec_grammar():
    assert parse_predictor_spec("uniform").predict() == (0.5, 0.5)
    assert parse_predictor_spec("kt").predict() == (0.5, 0.5)
    assert parse_predictor_spec("mix:3").predict()[0] == pytest.approx(0.5, abs=1e-12)
    assert isinstance(parse_predictor_spec("mux:periodic:01", trunc=100), MuxPredictor)
    p0, p1 = parse_predictor_spec("dirac:periodic:10").predict()
    assert (p0, p1) == (0.0, 1.0)
    with pytest.raises(ValueError):
        parse_predictor_spec("oracle")


def test_chain_info_emits_constants(capsys):
    code, out = run_cli(capsys, "chain", "info", "--max-n", "10",
                        "--trunc", "1000000")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi"][0] == pytest.approx(0.6079271, abs=1e-5)
    assert payload["p"][0] == 0.25
    assert payload["f11"][1] == pytest.approx(5.0 / 36.0, rel=1e-12)
    assert payload["mean_return_time"]["estimate"] == pytest.approx(
        math.pi**2 / 6.0, abs=1e-5
    )
    assert payload["config"]["command"] == "chain info"


def test_mux_marginal_json(capsys):
    code, out = run_cli(capsys, "mux", "marginal", "--target", "periodic:01",
                        "--query", "0", "--trunc", "10000")
    assert code == 0
    payload = json.loads(out)
    lower = 2.0 ** payload["lower_log2"]
    upper = 2.0 ** payload["upper_log2"]
    assert lower <= 0.75 <= upper
    assert payload["width"] <= 0.6079271018540267 / 10000
    assert payload["trunc"] == 10000
    # an impossible word is no error: its tracked mass is zero and its
    # enclosure is the dropped mass pi1/J alone
    code, out = run_cli(capsys, "mux", "marginal", "--target", "periodic:0",
                        "--query", "1", "--trunc", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_log2"] == "-inf"
    assert payload["width"] == PI1 / 100


def test_mux_marginal_width_budget_exit_code(capsys):
    code, _ = run_cli(capsys, "mux", "marginal", "--target", "periodic:01",
                      "--query", "0", "--trunc", "100", "--max-width", "1e-9")
    assert code == 3


@pytest.mark.parametrize(("budget", "expected"), [("nan", 2), ("-1", 2), ("1e-12", 3)])
@pytest.mark.parametrize("command", [
    ["mux", "marginal", "--target", "periodic:01", "--query", "0", "--trunc", "10"],
    ["theorem1", "--rho", "kt", "-n", "20", "--trunc", "200"],
])
def test_width_budget_exit_codes(tmp_path, capsys, command, budget, expected):
    # NaN would silently pass every width and a negative budget fail every
    # run, so both are usage errors; a budget no run can meet exits 3
    code = main([*command, f"--max-width={budget}", "--out", str(tmp_path / "run")])
    assert code == expected
    assert ("width budget must be >= 0" in capsys.readouterr().err) == (expected == 2)
    assert not (tmp_path / "run").exists()


def test_mux_sample_deterministic(capsys):
    code, out1 = run_cli(capsys, "mux", "sample", "--target", "periodic:01",
                         "-n", "200", "--seed", "11")
    assert code == 0
    _, out2 = run_cli(capsys, "mux", "sample", "--target", "periodic:01",
                      "-n", "200", "--seed", "11")
    assert out1 == out2
    assert set(out1.strip()) <= {"0", "1"}
    assert len(out1.strip()) == 200


def test_mux_sample_out_file_holds_the_printed_line(tmp_path, capsys):
    path = tmp_path / "nested" / "sample.txt"  # its parent is made too
    code, out = run_cli(capsys, "mux", "sample", "--target", "coin:2",
                        "-n", "300", "--seed", "4", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")
    assert out.endswith("\n") and len(out) == 301 and set(out[:-1]) <= {"0", "1"}


def test_loss_run_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "loss_run"
    code, out = run_cli(capsys, "loss", "--rho", "kt", "--target", "periodic:01",
                        "-n", "100", "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["predictor_spec"] == "kt"
    assert summary["cesaro_kl_final"] > 0.0
    header = (out_dir / "trace.csv").read_text().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_theorem1_run_and_byte_identical_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    args = ["theorem1", "--rho", "kt", "-n", "60", "--trunc", "500",
            "--out", str(out_dir)]
    names = ("x.txt", "summary.json", "rho_trace.csv", "mux_trace.csv",
             "tidy.csv")
    code, _ = run_cli(capsys, *args)
    assert code == 0
    first = {name: (out_dir / name).read_bytes() for name in names}
    code, _ = run_cli(capsys, *args)  # identical config, rerun in place
    assert code == 0
    for name in names:
        assert (out_dir / name).read_bytes() == first[name], name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["rho_cesaro_final"] >= 1.0
    assert summary["per_step_min_rho_loss"] >= 1.0
    assert summary["mux_cumulative_bits"] <= summary["mux_cumulative_bound"] + 1e-6
    tidy_header = (out_dir / "tidy.csv").read_text().splitlines()[0]
    assert tidy_header == "t,metric,value"


@pytest.mark.parametrize("rho", ["kt", "dirac:periodic:01"])
def test_theorem1_tidy_csv_equals_the_one_written_from_floats(tmp_path, capsys, rho):
    # tidy.csv takes the cesaro_kl fields the trace files wrote; the bytes
    # are those that write_tidy_csv writes from the float arrays (the Dirac
    # target's inf fields included)
    code, _ = run_cli(capsys, "theorem1", "--rho", rho, "-n", "60", "--trunc", "500",
                      "--out", str(tmp_path / "run"))
    assert code == 0
    run = theorem1_experiment(parse_predictor_spec(rho, trunc=500), 60, trunc=500)
    write_tidy_csv(tmp_path / "tidy.csv", {
        "rho_cesaro_kl": run.rho_trace.cesaro_kl,
        "mux_cesaro_kl": run.mux_trace.cesaro_kl,
        "bound_per_step": run.bound_per_step,
    })
    assert (tmp_path / "run" / "tidy.csv").read_bytes() == (tmp_path / "tidy.csv").read_bytes()


def test_theorem1_inf_serialized_as_string(tmp_path, capsys):
    # a Dirac target yields +inf losses; the JSON must stay parseable
    code, _ = run_cli(capsys, "theorem1", "--rho", "dirac:periodic:01", "-n", "20",
                      "--trunc", "200", "--out", str(tmp_path / "d"))
    assert code == 0
    summary = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert summary["rho_cesaro_final"] == "inf"


def test_theorem1_reports_adversary_symbols_built(tmp_path, capsys):
    # the tracking measure at J = 200 reads the sequence up to J + 64
    code, _ = run_cli(capsys, "theorem1", "--rho", "mix:3", "-n", "20",
                      "--trunc", "200", "--out", str(tmp_path / "m"))
    assert code == 0
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    assert summary["adversary_symbols_built"] == 264


@pytest.mark.parametrize("rho", ["uniform", "kt"])
def test_theorem1_adversary_builds_an_eighth_past_the_first_table(tmp_path, capsys, rho):
    # these sequences keep the never-reset block alive, so the tables grow
    # once past J + 64, by an eighth: 10,064 + 1,258 symbols
    code, _ = run_cli(capsys, "theorem1", "--rho", rho, "-n", "500",
                      "--trunc", "10000", "--out", str(tmp_path / "r"))
    assert code == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["adversary_symbols_built"] == 11_322


def test_ergodicity_frequencies(capsys):
    code, out = run_cli(capsys, "ergodicity", "--target", "periodic:01",
                        "-n", "100000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert 0.73 <= payload["freq_0"] <= 0.77
    assert payload["freq_0"] + payload["freq_1"] == pytest.approx(1.0, abs=1e-12)
    assert payload["word_freqs"]["11"] == 0.0  # a 1 is always followed by a 0
    assert payload["window_check"]["max_abs_z"] <= 3.0


@pytest.mark.parametrize("n", [51, 2])
def test_ergodicity_too_short_for_the_window_check(capsys, n):
    # the check compares windows at offsets 1 and 50 and needs n >= 52
    code, out = run_cli(capsys, "ergodicity", "--target", "periodic:01",
                        "-n", str(n), "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["window_check"] == {"k": 3, "offset_a": 1, "offset_b": 50,
                                       "stride": 100, "max_abs_z": None}
    lengths = {len(w) for w in payload["word_freqs"]}
    assert lengths == {k for k in (1, 2, 3) if k <= n}
    for k in lengths:
        assert math.fsum(v for w, v in payload["word_freqs"].items()
                         if len(w) == k) == pytest.approx(1.0, abs=1e-12)


def _not_plain_json(obj, where="payload"):
    """Where obj holds anything but a dict, list, str, bool, None, a Python
    int or a float other than NaN, and the type found there."""
    if isinstance(obj, dict):
        return [bad for k, v in obj.items() for bad in _not_plain_json(v, f"{where}[{k!r}]")]
    if isinstance(obj, list):
        return [bad for i, v in enumerate(obj) for bad in _not_plain_json(v, f"{where}[{i}]")]
    if obj is None or isinstance(obj, (str, bool)):
        return []
    if isinstance(obj, int) and not isinstance(obj, np.integer):
        return []
    if isinstance(obj, float) and not math.isnan(obj):
        return []
    return [(where, type(obj).__name__)]


@pytest.mark.parametrize("argv", [
    ["chain", "info"],
    ["mux", "marginal", "--target", "coin:7", "--query", "0110", "--trunc", "500"],
    ["mux", "marginal", "--target", "periodic:0", "--query", "01", "--trunc", "500"],
    ["ergodicity", "--target", "coin:7", "-n", "2000", "--seed", "3"],
    ["ergodicity", "--target", "periodic:01", "-n", "20", "--seed", "1"],
    ["loss", "--rho", "dirac:periodic:0", "--target", "periodic:01", "-n", "20",
     "--out", "{out}"],
    ["theorem1", "--rho", "dirac:periodic:01", "-n", "20", "--trunc", "200",
     "--out", "{out}"],
], ids=["chain-info", "marginal", "marginal-impossible", "ergodicity",
        "ergodicity-too-short", "loss-dirac-miss", "theorem1-dirac"])
def test_payloads_hold_only_plain_json_values(tmp_path, capsys, monkeypatch, argv):
    # _jsonable rewrites only infinite floats: a NaN would be written as the
    # non-JSON token NaN, and a numpy integer would make json raise TypeError;
    # the payload is caught before json sees it, so the test names the value
    payloads = []
    monkeypatch.setattr(cli, "_dump_json", lambda payload, path: payloads.append(payload) or "")
    code, _ = run_cli(capsys, *(a.replace("{out}", str(tmp_path / "run")) for a in argv))
    assert code == 0 and len(payloads) == 1
    assert _not_plain_json(payloads[0]) == []


# SHA-256 of the ergodicity stdout on periodic:011, seed 3, per horizon n
ERGODICITY_STDOUT_SHA256 = {
    1: "d0e5580b081a0ce222918ea0bbe5d1b12ff2decb1fd24ca9c1becbefe6f6b341",
    2: "809c74f489c033caf78f8890634309c6d61dc9571cd1f59409c0a5e2d3475391",
    52: "94091434fa11e0008b646c8f2c7f285b530cc75cabc572772b31399bbe27216f",
    1000: "7d6d0fddfb3ad560d268e503c53720a8840566173241cacacc6bef87c66e1215",
}


@pytest.mark.parametrize("n", sorted(ERGODICITY_STDOUT_SHA256))
def test_ergodicity_stdout_is_pinned(capsys, n):
    code, out = run_cli(capsys, "ergodicity", "--target", "periodic:011",
                        "-n", str(n), "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ERGODICITY_STDOUT_SHA256[n]


def test_parser_is_built_once_and_reused(capsys):
    calls = [["ergodicity", "--target", "periodic:01", "-n", "bogus", "--seed", "1"],
             ["ergodicity", "--target", "periodic:011", "-n", "300", "--seed", "4"],
             ["chain", "info", "--max-n", "3", "--trunc", "100"]]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    reused = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    assert [code for code, _ in reused] == [2, 0, 0]
    for argv, result in zip(calls, reused):
        build_parser.cache_clear()
        assert run(argv) == result


def test_flags_without_effect_are_gone(tmp_path, capsys):
    # the adversary is deterministic and sampling is exact: neither flag exists
    out = tmp_path / "t"
    assert main(["theorem1", "--rho", "kt", "-n", "5", "--seed", "1",
                 "--out", str(out)]) == 2
    assert main(["ergodicity", "--target", "periodic:01", "-n", "10",
                 "--seed", "1", "--trunc", "100"]) == 2
    code, _ = run_cli(capsys, "theorem1", "--rho", "kt", "-n", "5",
                      "--trunc", "50", "--out", str(out))
    assert code == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["seed"] is None and config["trunc"] == 50
    code, text = run_cli(capsys, "ergodicity", "--target", "periodic:01",
                         "-n", "1000", "--seed", "1")
    assert code == 0
    config = json.loads(text)["config"]
    assert config["trunc"] is None and config["seed"] == 1
    # loss reads --trunc only for a mux: rho
    for rho, trunc in (("kt", None), ("mux:periodic:01", 50)):
        code, text = run_cli(capsys, "loss", "--rho", rho, "--target", "periodic:01",
                             "-n", "20", "--trunc", "50", "--out", str(tmp_path / f"loss-{trunc}"))
        assert code == 0 and json.loads(text)["config"]["trunc"] == trunc


def test_usage_errors_exit_2(capsys):
    assert main(["chain", "info", "--bogus-flag"]) == 2
    assert main([]) == 2
    assert main(["loss", "--rho", "nope", "--target", "periodic:01", "-n", "5",
                 "--out", "/tmp/predlab-nope"]) == 2


def test_file_source_roundtrip_through_cli(tmp_path, capsys):
    path = tmp_path / "bits.txt"
    path.write_text("0101010101\n", encoding="ascii")
    code, out = run_cli(capsys, "mux", "marginal", "--target", f"file:{path}",
                        "--query", "0", "--trunc", "5")
    assert code == 0
    payload = json.loads(out)
    assert 2.0 ** payload["upper_log2"] <= 1.0
