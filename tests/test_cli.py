import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nesthilb
from nesthilb import cli
from nesthilb.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hilb_command(capsys):
    code, out = run(capsys, "hilb", "I2:5")
    assert code == 0 and "(1,5,2)" in out


def test_hilb_json_schema(capsys):
    code, out = run(capsys, "hilb", "8points", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["hilbert_function"] == [1, 4, 3]
    assert payload["colength"] == 8


def test_betti_staircase(capsys):
    code, out = run(capsys, "betti", "I2:4")
    assert code == 0 and out.splitlines()[1].startswith("total:")


def test_tangent_json_layout(capsys):
    code, out = run(capsys, "tangent", "I1:4,2 > I2:4", "--json")
    payload = json.loads(out)
    assert payload["degrees"]["-1"] == 4
    assert payload["t_neg"] == 4 and payload["theta_rank"] == 4
    assert payload["tnt"] == "certified"
    assert payload["field"] == "rational"


def test_tangent_reproducible_bytes(capsys):
    _, out1 = run(capsys, "tangent", "8points", "--json", "--field", "prime:32003")
    _, out2 = run(capsys, "tangent", "8points", "--json", "--field", "prime:32003")
    assert out1 == out2


def test_tnt_exit_codes(capsys):
    code, _ = run(capsys, "tnt", "8points")
    assert code == 0
    code, _ = run(capsys, "tnt", "m^2:2")
    assert code == 1


def test_gap_command(capsys):
    code, out = run(capsys, "gap", "10", "3", "--json")
    payload = json.loads(out)
    assert payload["gap"] == -7
    assert payload["verdict"] == "non_smoothable_by_dimension"


def test_thmc_command(capsys):
    code, out = run(capsys, "thmC", "8", "--json")
    payload = json.loads(out)
    assert payload["stratum_dim"] == payload["smoothable_dim"] == 44
    assert payload["iarrobino"]["colength"] == 78


def test_hom_command(capsys):
    code, out = run(capsys, "hom",
                    "m^3:4 / generic:q=(1,4,10,18,10),seed=12",
                    "generic:q=(1,4,3),seed=11 / m^3:4",
                    "--field", "prime:32003", "--json")
    payload = json.loads(out)
    assert payload["dims"] == {"-1": 126}


def test_hom_top_degree_zero_is_honoured(capsys):
    argv = ["hom", "m^1:2 / 0", "R / m^1:2", "--json"]
    assert json.loads(run(capsys, *argv)[1])["dims"] == {"-1": 2}
    code, out = run(capsys, *argv, "--hi", "0")
    assert code == 0 and json.loads(out)["dims"] == {}


@pytest.mark.parametrize("source, target", [("m^1:2 / 0", "R / m^0:2"),
                                            ("R / m^0:2", "R / m^2:2")])
def test_hom_into_or_out_of_the_zero_module(capsys, source, target):
    code, out = run(capsys, "hom", source, target, "--json")
    assert code == 0 and json.loads(out)["total"] == 0


def test_sandwich_command(capsys):
    code, out = run(capsys, "sandwich", "I1:4,2 > I2:4", "-j", "1", "-k", "2",
                    "--json")
    payload = json.loads(out)
    assert payload["jump_minus1"] == 4 and payload["identity_discrepancy"] == 0


def test_census_command(capsys, tmp_path):
    store = tmp_path / "c.jsonl"
    csv = tmp_path / "c.csv"
    code, out = run(capsys, "census", "--nmin", "4", "--nmax", "4",
                    "--store", str(store), "--csv", str(csv))
    assert code == 0 and "5 new records" in out
    code, out = run(capsys, "census", "--nmin", "4", "--nmax", "4",
                    "--store", str(store))
    assert "0 new records" in out
    assert csv.read_text().startswith("n\\s,")


def test_census_csv_needs_store(capsys, tmp_path):
    with pytest.raises(SystemExit) as ex:
        main(["census", "--nmin", "4", "--nmax", "4", "--csv", str(tmp_path / "c.csv")])
    assert ex.value.code == 2
    assert "--store" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_census_with_two_worker_processes(capsys, tmp_path):
    env = dict(os.environ, NESTHILB_THREADS="2")
    src = str(Path(nesthilb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    store = tmp_path / "c.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "nesthilb.cli", "census", "--nmin", "4", "--nmax", "5",
         "--json", "--store", str(store)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, out = run(capsys, "census", "--nmin", "4", "--nmax", "5", "--json")
    strip = lambda text: [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                          for line in text.splitlines()]
    assert code == 0 and len(strip(out)) == 11
    assert strip(proc.stdout) == strip(store.read_text()) == strip(out)


def test_census_below_n_4_exits_2_before_opening_its_store(capsys, tmp_path):
    store = tmp_path / "S"
    assert main(["census", "--nmin", "3", "--nmax", "4", "--store", str(store)]) == 2
    assert "census needs n >= 4" in capsys.readouterr().err
    assert not store.exists()


def test_census_rejects_a_non_integer_worker_count(capsys, monkeypatch):
    monkeypatch.setenv("NESTHILB_THREADS", "abc")
    assert main(["census", "--nmin", "4", "--nmax", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nesthilb census: error: NESTHILB_THREADS must be an "
                            "integer, got 'abc'\n")


def test_verify_filter_unknown(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_verify", lambda *a, **k: ran.append(a) or [])
    for spec in ("nosuchfixture", "sandwich_jump,nosuchfixture"):
        assert main(["verify", "--filter", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("nesthilb verify: error: unknown fixture name(s) nosuchfixture;")
    assert not ran  # no fixture runs


def test_verify_single_fixture(capsys):
    code, out = run(capsys, "verify", "--filter", "dimension_formulas")
    assert code == 0 and "PASS" in out


def test_verify_tiny_prime_skips(capsys):
    # the whole suite passes over F_2: only the two fixtures whose numbers
    # need a large prime or QQ are skipped, and the fixtures that fix their
    # own field run
    code, out = run(capsys, "verify", "--field", "prime:2")
    assert code == 0
    skipped = [line.split()[1] for line in out.splitlines() if line.startswith("SKIP")]
    assert skipped == ["hilbert_families", "prepend_max_formula"]
    assert "need QQ or a prime of at least 1000" in out


SUBCOMMAND_OPTIONS = {
    "hilb": {"--field", "--json", "--n", "--cutoff"},
    "betti": {"--field", "--json", "--n", "--cutoff"},
    "tangent": {"--field", "--json", "--n", "-e"},
    "tnt": {"--field", "--json", "--n"},
    "hom": {"--field", "--json", "--n", "--hi"},
    "sandwich": {"--field", "--json", "--n", "-j", "-k"},
    "census": {"--field", "--json", "--seed", "--nmin", "--nmax", "--store", "--csv"},
    "verify": {"--field", "--filter"},
    "gap": {"--json"},
    "thmC": {"--json"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings
                  if s not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert got == SUBCOMMAND_OPTIONS
    assert sum(len(v) for v in got.values()) == 35


@pytest.mark.parametrize("argv", [
    ["gap", "10", "3", "--n", "5"],  # --n would overwrite the positional n
    ["tangent", "I1:4,2 > I2:4", "--cutoff", "1"],
])
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["hilb", "nosuch:4"], "cannot parse ideal spec 'nosuch:4'"),
    (["hilb", "I2:4", "--field", "prime:32004"], "modulus must be prime: 32004"),
    (["hilb", "I2:4", "--field", "prime:1000000007"], "modulus out of range"),
    (["hom", "R / 0", "m^2:2 / 0"], "R/0 is not finite"),
    (["hilb", "I2:4", "--cutoff", "1"], "a cutoff does not apply to 'I2:4'"),
    (["hilb", "I1:4,2", "--cutoff", "1"], "a cutoff does not apply to 'I1:4,2'"),
    (["hilb", "m^2:3", "--cutoff", "1"], "a cutoff does not apply to 'm^2:3'"),
    (["betti", "8points", "--cutoff", "3"], "a cutoff does not apply to '8points'"),
    (["hilb", "generic:q=(1,3,2),seed=1", "--cutoff", "2"],
     "a cutoff does not apply to 'generic:q=(1,3,2),seed=1'"),
    (["hilb", "delta:4", "--cutoff", "0"], "generator of degree 2 above cutoff 0"),
    (["hilb", "J:4", "--cutoff", "0"], "generator of degree 2 above cutoff 0"),
    (["hilb", "twistedcone", "--cutoff", "0"], "generator of degree 2 above cutoff 0"),
    (["hilb", "I2:4", "--field", "prime:abc"], "cannot parse field spec 'prime:abc'"),
    (["hilb", "generic:q=(1,4,x),seed=1"],
     "cannot parse ideal spec 'generic:q=(1,4,x),seed=1': 'x' is not an integer"),
    (["hilb", "generic:q=(1,4,2),seed=x"],
     "cannot parse ideal spec 'generic:q=(1,4,2),seed=x': 'x' is not an integer"),
    (["hilb", "generic:q=(1,4,2),seed=1,n=abc"],
     "cannot parse ideal spec 'generic:q=(1,4,2),seed=1,n=abc': 'abc' is not an integer"),
    (["census", "--nmin", "2", "--nmax", "3", "--json"], "census needs n >= 4, got nmin=2"),
])
def test_input_errors_exit_2_with_one_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"nesthilb {argv[0]}: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
