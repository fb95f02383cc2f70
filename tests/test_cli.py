import importlib
import json
import os
import pkgutil
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from exteq import files
from exteq.automata import words_up_to
from exteq.cli import cmd_dispatch
from exteq.errors import SchemaError
from exteq.extension import RHO
from exteq.instances import default_language_spec, quaternion8
from exteq.reduction import Pipeline
from exteq.words import DEFAULT_STATE_CAP, state_cap

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, capsys=None):
    code = cmd_dispatch(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


@pytest.fixture
def q8_eqs(tmp_path):
    def write(equations, constants=None):
        obj = {
            "format_version": 1,
            "variables": ["x"],
            "constants": constants
            or {"z": {"g": "", "a": {"free": [], "torsion": [1]}}},
            "equations": equations,
        }
        path = tmp_path / "eqs.json"
        path.write_text(json.dumps(obj))
        return str(path)

    return write


# -- file formats -------------------------------------------------------


def _kernel_json(a) -> dict:
    return {"free": list(a.free), "torsion": list(a.tors)}


def test_extension_roundtrip():
    # every field of each bundled file reads back from the loaded extension
    for name in ("quaternion8", "modular16", "dihedral_z", "t1s"):
        obj = files.load_json(str(DATA / f"{name}.json"))
        ext = files.extension_from_json(obj)
        pres = obj["presentation"]
        assert ext.base.alphabet.letters == tuple(
            x for g in pres["generators"] for x in (g, g.upper())
        )
        assert ext.base.relators == tuple(pres["relators"])
        for key in ("delta", "sc_fraction"):
            want = pres.get(key)
            assert getattr(ext.base, key) == (want and Fraction(want)), (name, key)
        assert obj["kernel"] == {"rank": ext.kernel.rank, "torsion": list(ext.kernel.torsion)}
        assert obj["relator_values"] == [_kernel_json(a) for a in ext.relator_lifts]


def test_schema_error_names_path():
    obj = files.load_json(str(DATA / "quaternion8.json"))
    del obj["kernel"]["torsion"]
    with pytest.raises(SchemaError, match=r"kernel\.torsion"):
        files.extension_from_json(obj, "extension")
    obj2 = files.load_json(str(DATA / "quaternion8.json"))
    obj2["relator_values"][0]["free"] = ["x"]
    with pytest.raises(SchemaError, match=r"relator_values\[0\]\.free"):
        files.extension_from_json(obj2, "extension")


def test_equation_system_roundtrip():
    ext = quaternion8()
    obj = {
        "format_version": 1,
        "variables": ["x", "y"],
        "constants": {"c": {"g": "st", "a": {"free": [], "torsion": [1]}}},
        "equations": ["x y C", "x x"],
    }
    sys_ = files.equation_system_from_json(obj, ext)
    assert sys_.variables == ("x", "y")
    assert sys_.equations == (("x", "y", "C"), ("x", "x"))
    (name, c), = sys_.constants.items()
    assert name == "c" and c.ext is ext and c.coords == RHO
    assert (c.g, _kernel_json(c.a)) == ("st", {"free": [], "torsion": [1]})


def test_partial_automaton_completed_with_sink():
    obj = {
        "format_version": 1,
        "generators": ["a"],
        "n_states": 2,
        "initial": 0,
        "accepting": [1],
        "transitions": [{"a": 1}, {"a": 1, "A": 0}],
    }
    M, report = files.automaton_from_json(obj)
    assert report["completed_with_sink"]
    assert M.n_states == 3
    assert M.accepts("a")
    # the missing edge leads to the dead sink
    assert M.run("A") == 2 and not M.accepts("A")
    full = files.automaton_to_json(M)
    M2, report2 = files.automaton_from_json(full)
    assert not report2["completed_with_sink"]
    assert files.automaton_to_json(M2) == full


# -- subcommands and exit codes -----------------------------------------


def test_check_presentation(capsys):
    code, out = run_cli(
        "check-presentation", str(DATA / "genus2.json"), capsys=capsys
    )
    assert code == 0
    assert "passed" in out


def test_ball_json_output(capsys):
    code, out = run_cli(
        "--json", "ball", str(DATA / "quaternion8.json"), "--radius", "3",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sizes"] == [1, 3, 4, 4]
    assert payload["closed"] is True
    # every word but the identity holds a rewrite key of the Klein
    # presentation, so each of the 4 x 4 edges is reduced
    assert payload["reduced_edges"] == 16


def test_ball_reports_reduced_edges(capsys):
    code, out = run_cli(
        "--json", "ball", str(DATA / "genus2.json"), "--radius", "4",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    n_edges = payload["sizes"][-1] * 8
    assert 0 < payload["reduced_edges"] < n_edges // 10
    assert payload["closed"] is False
    code, out = run_cli(
        "ball", str(DATA / "genus2.json"), "--radius", "4", capsys=capsys
    )
    assert f"edges sent to the reducer: {payload['reduced_edges']} of {n_edges}" in out


def test_cocycle_table(capsys):
    code, out = run_cli(
        "--json", "cocycle-table", str(DATA / "dihedral_z.json"),
        "--radius", "1", capsys=capsys,
    )
    assert code == 0
    table = json.loads(out)["table"]
    by_pair = {(r["g"], r["h"]): r for r in table}
    # s^2 = z shows up as sigma_rho(s, s) = 1
    assert by_pair[("s", "s")]["sigma_rho"] == [1]
    assert by_pair[("", "")]["sigma_rho"] == [0]


def test_verify_invariants_radius_zero(capsys):
    code, _ = run_cli(
        "verify-invariants", str(DATA / "quaternion8.json"),
        "--radius", "0", capsys=capsys,
    )
    assert code == 0


def test_build_radius_zero(capsys):
    # the walk judges only the empty word, over a ball of radius 1, the
    # least the cocycle tables take
    code, out = run_cli("--json", "build", str(DATA / "quaternion8.json"),
                        "--r-validate", "0", capsys=capsys)
    assert (code, json.loads(out)["validated_radius"]) == (0, 0)


def _build_file(tmp_path, capsys):
    """Run `exteq build` on Q8 and return the written file with the stack
    that Pipeline.build gives for the same bounds."""
    out_path = tmp_path / "pipeline.json"
    code, _ = run_cli("build", str(DATA / "quaternion8.json"),
                      "--out", str(out_path), capsys=capsys)
    assert code == 0
    written = files.load_json(str(out_path))
    assert written["validated_radius"] == 6
    return written, Pipeline.build(quaternion8(), kappa2=2, R_validate=6)


def test_build_automata_writes_file(tmp_path, capsys):
    # the written L is F's graph, the L that solve uses
    written, pipe = _build_file(tmp_path, capsys)
    M, report = files.automaton_from_json(written["fpa"]["automaton"])
    assert not report["completed_with_sink"]
    want = pipe.F.graph
    assert M.n_states == want.n_states
    assert M.accepting == want.accepting
    for w in words_up_to(want.alphabet, 4):
        assert M.accepts(w) == want.accepts(w), w


# the ids name the retired commands whose output is now one part of the
# file that `exteq build` writes
@pytest.mark.parametrize("part", ["fpa", "ppa"], ids=["build-fpa", "build-ppa"])
def test_build_fpa_and_ppa_write_their_automata(tmp_path, capsys, part):
    # languages, not numbering: the same stack as Pipeline.build, compared
    # by state count, accepting set or branches, and words up to length 4
    build, pipe = _build_file(tmp_path, capsys)
    written = build[part]
    M, report = files.automaton_from_json(written["automaton"])
    assert not report["completed_with_sink"]
    if part == "fpa":
        want = pipe.F.graph
        assert written["accepting"] == sorted(pipe.F.live)
        assert written["readout"] == {
            str(s): {x: files.kernel_element_to_json(pipe.F.a_of(s, x))
                     for x in want.alphabet.letters}
            for s in sorted(pipe.F.live)
        }
    else:
        want = pipe.D.fsa
        rank = pipe.ext.kernel.rank
        assert written["branches"] == [
            {"bits": list(d.coords()[:rank]), "torsion": list(d.coords()[rank:])}
            for d in pipe.D.branch_values()
        ]
    assert M.n_states == want.n_states
    assert M.accepting == want.accepting
    for w in words_up_to(want.alphabet, 4):
        assert M.accepts(w) == want.accepts(w), w


@pytest.mark.parametrize("command", ["build-automata", "build-fpa", "build-ppa"])
def test_retired_build_commands_exit_3(capsys, command):
    # `exteq build` writes what the three wrote, from one build
    with pytest.raises(SystemExit) as e:
        cmd_dispatch([command, str(DATA / "quaternion8.json")])
    assert e.value.code == 3
    assert command in capsys.readouterr().err


def _readme_commands():
    """The argument lists of the `exteq` lines in the README's Command
    line block, and the eqs.json its heredoc writes."""
    text = (DATA.parent / "README.md").read_text()
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    eqs = block.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:]
            for line in lines if line.startswith("exteq ")], eqs


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # a removed or renamed subcommand or option exits 3; demo-t1s exits
    # 1 by design
    commands, eqs = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "check-presentation", "ball", "cocycle-table", "build",
        "verify-invariants", "solve", "lift", "demo-t1s",
    ]
    (tmp_path / "eqs.json").write_text(eqs)
    (tmp_path / "data").symlink_to(DATA)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        try:
            code = cmd_dispatch(argv)
        except SystemExit as e:
            code = e.code
        assert code != 3, argv


def test_verify_invariants_builds_one_ball(monkeypatch, capsys):
    # the PPA check reads the pipeline's ball instead of building its own
    import exteq
    from exteq import words

    original, calls = words.build_ball, []

    def counted(p, radius):
        calls.append(radius)
        return original(p, radius)

    for info in pkgutil.iter_modules(exteq.__path__):
        module = importlib.import_module(f"exteq.{info.name}")
        if getattr(module, "build_ball", None) is original:
            monkeypatch.setattr(module, "build_ball", counted)
    (argv,) = [a for a in _readme_commands()[0] if a[0] == "verify-invariants"]
    monkeypatch.chdir(DATA.parent)
    code, out = run_cli(*argv, capsys=capsys)
    assert (code, calls) == (0, [6])
    assert out == (
        "FPA key property to radius 4: passed\n"
        "PPA key property to radius 4: passed\n"
    )


def test_verify_invariants_builds_one_cocycle_table(monkeypatch, capsys):
    # the PPA check reads the tables the validation walk filled
    from exteq.extension import BallCocycles

    original, built = BallCocycles.__init__, []

    def counted(self, ext, ball):
        built.append(ball)
        original(self, ext, ball)

    monkeypatch.setattr(BallCocycles, "__init__", counted)
    (argv,) = [a for a in _readme_commands()[0] if a[0] == "verify-invariants"]
    monkeypatch.chdir(DATA.parent)
    code, out = run_cli(*argv, capsys=capsys)
    assert (code, len(built)) == (0, 1)
    assert out.endswith("PPA key property to radius 4: passed\n")


def test_verify_invariants_t1s_radius_5_exits_3_at_the_pair_cap(capsys):
    # the L-words to length 5 against their compatible v to length 3 make
    # 8,939,113 (w, v) pairs, over the default cap; the check refuses them
    # before evaluating any
    code = run_cli("verify-invariants", str(DATA / "t1s.json"),
                   "--radius", "5", "--r-validate", "5")[0]
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "FPA key-property check" in err and "8939113" in err


@pytest.mark.parametrize("field, value", [("delta", None), ("delta", "7"),
                                          ("sc_fraction", None)])
def test_t1s_language_spec_ignores_metadata(tmp_path, capsys, field, value):
    # the spec is picked by the group, so a file whose delta or sc_fraction
    # differs from the bundled one builds the same FPA and PPA
    obj = files.load_json(str(DATA / "t1s.json"))
    if value is None:
        del obj["presentation"][field]
    else:
        obj["presentation"][field] = value
    spec = default_language_spec(files.extension_from_json(obj).base)
    assert (spec.nu, spec.window) == (0, None)
    path = tmp_path / "t1s.json"
    path.write_text(json.dumps(obj))
    built = [run_cli("build", str(f), "--r-validate", "5", capsys=capsys)
             for f in (path, DATA / "t1s.json")]
    assert built[0] == built[1] and built[0][0] == 0


def test_demo_t1s_names_its_radius(capsys):
    # the obstruction holds only as far as the families were validated,
    # and they fail one step further
    code, out = run_cli("--json", "demo-t1s", capsys=capsys)
    assert (code, json.loads(out)["radius"]) == (1, {"validated": 5, "fails": 6})
    code, out = run_cli("demo-t1s", capsys=capsys)
    assert (
        "obstruction: 0 = -2\n"
        "the obstruction rests on predictor families validated to radius 5;"
        " they fail at radius 6\n"
    ) in out
    code = run_cli("build", str(DATA / "t1s.json"), "--r-validate", "6")[0]
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "not observed during synthesis" in err  # ValueSetUnstable


def test_verify_invariants_q8_exits_3_under_a_small_cap(monkeypatch, capsys):
    # all 4^12 words of length 12 would be 16.7M; the pairs are counted
    # over the FPA's graph, so the check refuses before listing any word
    from exteq import fpa_ppa

    listed = []
    monkeypatch.setattr(fpa_ppa, "_live_words", lambda *a: listed.append(a))
    monkeypatch.setenv("EXTEQ_CAP_STATES", "100")
    code = run_cli("verify-invariants", str(DATA / "quaternion8.json"),
                   "--radius", "12")[0]
    out, err = capsys.readouterr()
    assert (code, out, listed) == (3, "", [])
    assert "FPA key-property check to radius 12 would evaluate 22073" in err


def test_verify_invariants_q8_radius_12_lists_only_live_words(capsys):
    # 22,073 pairs, under the default cap; both checks extend only words
    # that can still reach an accepting state, not all 4^12 of length 12
    code, out = run_cli("verify-invariants", str(DATA / "quaternion8.json"),
                        "--radius", "12", capsys=capsys)
    assert (code, out) == (0, "FPA key property to radius 12: passed\n"
                              "PPA key property to radius 12: passed\n")


def test_python_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-m", "exteq.cli", "--json", "ball",
         str(DATA / "quaternion8.json"), "--radius", "1"],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["sizes"] == [1, 3]


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-1"])
def test_bad_state_cap_variable_exits_3(monkeypatch, capsys, value):
    monkeypatch.setenv("EXTEQ_CAP_STATES", value)
    assert run_cli("ball", str(DATA / "quaternion8.json"), "--radius", "1") == (3, "")
    assert "EXTEQ_CAP_STATES" in capsys.readouterr().err


def test_empty_state_cap_variable_means_default(monkeypatch):
    monkeypatch.setenv("EXTEQ_CAP_STATES", "")
    assert state_cap() == DEFAULT_STATE_CAP
    monkeypatch.setenv("EXTEQ_CAP_STATES", "7")
    assert state_cap() == 7


def test_solve_rejects_hint_letters_outside_alphabet(
    q8_eqs, tmp_path, capsys, monkeypatch
):
    def no_build(*args, **kwargs):
        raise AssertionError("hints must be checked before the build")

    monkeypatch.setattr(Pipeline, "build", no_build)
    path = tmp_path / "hints.json"
    path.write_text(json.dumps([{"x": "st"}, {"x": "sq"}]))
    code, _ = run_cli("solve", str(DATA / "quaternion8.json"), q8_eqs(["x x Z"]),
                      "--hints", str(path))
    assert code == 3
    assert f"{path}[1].x: letter 'q' not in alphabet" in capsys.readouterr().err


def test_solve_exit_codes(q8_eqs, capsys):
    ext_path = str(DATA / "quaternion8.json")
    common = ["--mode", "finite-complete", "--kappa2", "2",
              "--oracle-bound", "2", "--r-validate", "6"]
    code, _ = run_cli("solve", ext_path, q8_eqs(["x x Z"]), *common,
                      capsys=capsys)
    assert code == 0
    code, _ = run_cli("solve", ext_path, q8_eqs(["x x x x Z"]), *common,
                      capsys=capsys)
    assert code == 2
    code, out = run_cli("--json", "solve", ext_path, q8_eqs(["x x x x Z"]),
                        "--mode", "sound", "--kappa2", "1",
                        "--theta-cap", "5", "--r-validate", "6",
                        capsys=capsys)
    assert code == 1
    assert json.loads(out)["status"] == "no-solution-within-bounds"


def test_certificate_roundtrip(q8_eqs, tmp_path, capsys):
    ext_path = str(DATA / "quaternion8.json")
    eqs_path = q8_eqs(["x x Z"])
    cert_path = str(tmp_path / "cert.json")
    code, _ = run_cli(
        "solve", ext_path, eqs_path, "--mode", "finite-complete",
        "--kappa2", "2", "--oracle-bound", "2", "--r-validate", "6",
        "--cert", cert_path, capsys=capsys,
    )
    assert code == 0
    code, out = run_cli(
        "lift", "--verify", "--extension", ext_path,
        "--equations", eqs_path, cert_path, capsys=capsys,
    )
    assert code == 0 and "verified" in out
    # tampering is detected
    cert = json.loads(Path(cert_path).read_text())
    cert["assignment"]["x"]["g"] = ""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out = run_cli(
        "lift", "--verify", "--extension", ext_path,
        "--equations", eqs_path, str(bad), capsys=capsys,
    )
    assert code == 4 and "FAILED" in out


def test_certificate_key_set(q8_eqs, tmp_path, capsys):
    # the keys a certificate is written with, and the config it records
    cert_path = tmp_path / "cert.json"
    code, _ = run_cli(
        "solve", str(DATA / "quaternion8.json"), q8_eqs(["x x Z"]),
        "--cert", str(cert_path), capsys=capsys,
    )
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert set(cert) == {
        "format_version", "extension_digest", "equations_digest", "config",
        "validation", "t", "vsol", "wsol", "cells", "assignment",
    }
    assert set(cert["config"]) == {
        "r_validate", "ball_radius", "kappa2", "oracle_bound", "mode", "theta_cap",
    }
    assert cert["format_version"] == files.FORMAT_VERSION


def test_certificate_with_retired_config_keys_verifies(q8_eqs, tmp_path, capsys):
    # certificates written while `solve` still took --r-learn record
    # r_learn and seed in their config; verification reads neither
    ext_path = str(DATA / "quaternion8.json")
    eqs_path = q8_eqs(["x x Z"])
    cert_path = tmp_path / "cert.json"
    code, _ = run_cli(
        "solve", ext_path, eqs_path, "--mode", "finite-complete",
        "--cert", str(cert_path), capsys=capsys,
    )
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert "r_learn" not in cert["config"] and "seed" not in cert["config"]
    cert["config"].update(r_learn=4, seed=0)
    cert_path.write_text(json.dumps(cert))
    code, out = run_cli(
        "lift", "--verify", "--extension", ext_path,
        "--equations", eqs_path, str(cert_path), capsys=capsys,
    )
    assert code == 0 and "verified" in out


def test_retired_cap_option_exits_3(capsys):
    # EXTEQ_CAP_STATES is the one state cap
    with pytest.raises(SystemExit) as e:
        cmd_dispatch(["ball", str(DATA / "quaternion8.json"), "--radius", "1",
                      "--cap", "0"])
    assert e.value.code == 3
    assert "--cap" in capsys.readouterr().err


def test_declared_identity_symbol_exits_3(q8_eqs, capsys):
    # "1" pads short rows as the identity, so a declared "1" would be
    # confused with it: x = 1 with 1 declared as s is not x = 1
    path = q8_eqs(["x"], {"1": {"g": "s", "a": {"free": [], "torsion": [0]}}})
    for mode in ("finite-complete", "sound"):
        code, _ = run_cli("solve", str(DATA / "quaternion8.json"), path,
                          "--mode", mode)
        assert code == 3
        err = capsys.readouterr().err
        assert f"{path}:" in err and "'1'" in err


def test_retired_r_learn_option_exits_3(capsys):
    with pytest.raises(SystemExit) as e:
        cmd_dispatch(["solve", str(DATA / "quaternion8.json"), "eqs.json",
                      "--r-learn", "4"])
    assert e.value.code == 3
    assert "--r-learn" in capsys.readouterr().err


def test_usage_errors_exit_above_two(capsys):
    with pytest.raises(SystemExit) as e:
        cmd_dispatch(["solve"])
    assert e.value.code == 3
    with pytest.raises(SystemExit) as e:
        cmd_dispatch(["lift", "--verify", "nonexistent.json"])
    assert e.value.code == 3
    ext_path = str(DATA / "quaternion8.json")
    for argv in (
        ["ball", ext_path, "--radius", "-1"],
        ["verify-invariants", ext_path, "--radius", "-1"],
        ["cocycle-table", ext_path, "--radius", "-1"],
        ["solve", ext_path, "eqs.json", "--ball-radius", "-3"],
    ):
        with pytest.raises(SystemExit) as e:
            cmd_dispatch(argv)
        assert e.value.code == 3, argv
        assert "radius must be >= 0" in capsys.readouterr().err
    # rejected while parsing: neither file exists, and a missing file
    # would exit 3 without SystemExit
    for argv, option in (
        (["build", "missing.json", "--r-validate", "-1"], "--r-validate"),
        (["solve", "missing.json", "eqs.json", "--kappa2", "-1"], "--kappa2"),
        (["solve", "missing.json", "eqs.json", "--oracle-bound", "-1"],
         "--oracle-bound"),
        (["solve", "missing.json", "eqs.json", "--theta-cap", "-1"], "--theta-cap"),
    ):
        with pytest.raises(SystemExit) as e:
            cmd_dispatch(argv)
        assert e.value.code == 3, argv
        assert f"argument {option}: bound must be >= 0" in capsys.readouterr().err


MALFORMED_SHAPE = [
    [{"g": "s", "a": [0]}],
    {"x": "s"},
    {"x": {"g": "s"}},
    {"x": {"g": 5, "a": [0]}},
    {"x": {"g": "s", "a": ["0"]}},
    {"x": {"g": "s", "a": [True]}},
]
# well-formed in shape, so only --verify, which reads Q8, rejects them
WRONG_FOR_Q8 = [
    {"x": {"g": "s", "a": [1, 2, 3]}},
    {"x": {"g": "q", "a": [0]}},
]


@pytest.mark.parametrize("assignment", MALFORMED_SHAPE + WRONG_FOR_Q8)
def test_lift_rejects_malformed_assignment(q8_eqs, tmp_path, capsys, assignment):
    cert = {"assignment": assignment, "extension_digest": "",
            "equations_digest": ""}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    verify = ("--verify", "--extension", str(DATA / "quaternion8.json"),
              "--equations", q8_eqs(["x x Z"]))
    where = f"{path}.assignment"
    runs = [(), verify]
    if assignment in WRONG_FOR_Q8:
        where, runs = f"{path}.assignment.x", [verify]
    for extra in runs:
        assert run_cli("lift", str(path), *extra) == (3, ""), extra
        assert where in capsys.readouterr().err, extra


@pytest.mark.parametrize("hints", [{"x": "s"}, [{"x": 5}], ["s"]])
def test_solve_rejects_malformed_hints(q8_eqs, tmp_path, capsys, hints):
    path = tmp_path / "hints.json"
    path.write_text(json.dumps(hints))
    code, _ = run_cli("solve", str(DATA / "quaternion8.json"), q8_eqs(["x x Z"]),
                      "--hints", str(path))
    assert code == 3
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("delta", [1], "delta"),
    ("delta", {}, "delta"),
    ("delta", "x", "delta"),
    ("sc_fraction", [1], "sc_fraction"),
    ("sc_fraction", {}, "sc_fraction"),
    ("sc_fraction", "1/0", "sc_fraction"),
    ("generators", ["a", "B", "c", "d"], "generators"),
    ("generators", ["a", "b", "c", "c", "d"], "generators"),
    ("generators", ["a", "b", "c", "d", "\u00df"], "generators"),
    ("relators", ["abABcdCD", ""], "relators[1]"),
    ("relators", ["aAbBcdCD"], "relators[0]"),
    ("relators", ["abABcdCDA"], "relators[0]"),
    ("format_version", True, "format_version"),
])
def test_check_presentation_rejects_malformed_fields(
    tmp_path, capsys, field, value, where
):
    obj = files.load_json(str(DATA / "t1s.json"))
    obj["presentation"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check-presentation", str(path)) == (3, "")
    assert f"{path}.presentation.{where}" in capsys.readouterr().err


_Q8_Z = {"g": "", "a": {"free": [], "torsion": [1]}}


@pytest.mark.parametrize("field, value, where", [
    ("format_version", True, "format_version"),
    ("constants", {"z": {"g": "", "a": {"free": [], "torsion": [True]}}},
     "constants.z.a.torsion"),
    ("variables", ["x", "x"], "variable 'x' declared twice"),
    ("variables", ["x", ""], "empty name"),
])
def test_solve_rejects_malformed_equations(tmp_path, capsys, field, value, where):
    obj = {"format_version": 1, "variables": ["x"], "constants": {"z": _Q8_Z},
           "equations": ["x x Z"]}
    obj[field] = value
    path = tmp_path / "eqs.json"
    path.write_text(json.dumps(obj))
    code, _ = run_cli("solve", str(DATA / "quaternion8.json"), str(path),
                      "--mode", "finite-complete")
    assert code == 3
    err = capsys.readouterr().err
    assert str(path) in err and where in err


def test_extension_kernel_rejects_booleans(q8_eqs, tmp_path, capsys):
    obj = files.load_json(str(DATA / "quaternion8.json"))
    obj["relator_values"][0]["torsion"] = [True]
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(obj))
    assert run_cli("solve", str(path), q8_eqs(["x x Z"])) == (3, "")
    assert f"{path}.relator_values[0].torsion" in capsys.readouterr().err


def test_repeated_key_exits_3(tmp_path, capsys):
    # z declared twice, first as z, then as the identity: the second
    # must not silently win (x x Z would solve as x = 1)
    path = tmp_path / "eqs.json"
    path.write_text(
        '{"format_version": 1, "variables": ["x"], "constants": {'
        '"z": {"g": "", "a": {"free": [], "torsion": [1]}}, '
        '"z": {"g": "", "a": {"free": [], "torsion": [0]}}}, '
        '"equations": ["x x Z"]}'
    )
    code, _ = run_cli("solve", str(DATA / "quaternion8.json"), str(path))
    assert code == 3
    err = capsys.readouterr().err
    assert str(path) in err and "'z'" in err and "repeated" in err
    with pytest.raises(SchemaError, match="repeated"):
        files.load_json(str(path))


@pytest.mark.parametrize("text", ["3", "true", "null"])
@pytest.mark.parametrize("command", [["check-presentation"], ["ball", "--radius", "1"]])
def test_non_object_presentation_exits_3(tmp_path, capsys, text, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli(command[0], str(path), *command[1:]) == (3, "")
    assert str(path) in capsys.readouterr().err


def test_schema_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format_version\": 1}")
    code, _ = run_cli("ball", str(bad), "--radius", "1", capsys=capsys)
    assert code == 3


def test_entry_point_installed():
    which = subprocess.run(["exteq", "--help"], capture_output=True, text=True)
    assert which.returncode == 0
    assert "demo-t1s" in which.stdout
