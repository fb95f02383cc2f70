"""Regression lock on the sound-mode Theta stream over the frozen corpus.

Each corpus system is solved in sound mode with theta_cap=20 and no
hints, on pipelines built at the `exteq solve` defaults.  The report
counters and a sha256 of every Theta tuple the stream yielded (its
`to_jsonable()` plus each cell's end state s' and constant a, read off F)
must stay exactly as recorded, so a change to how the tuples or their
automata are computed cannot shift a verdict, a counter or a tuple
unnoticed.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from exteq import files, reduction
from exteq.extension import identity
from exteq.instances import modular16, quaternion8
from exteq.reduction import Pipeline, SolveConfig, solve

# (status, thetas_tried, w_unsolvable, oracle_exhausted, theta_truncated,
#  tuples yielded, obstructions, sha256 of the yielded tuples), in corpus order
FROZEN = [
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}],
     "1fe38facbdae207178a3e2316a92c1dcc414bea3dceee7964889ca5eca3d8e9c"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}],
     "4449bdbae2477afc114fe758fc5ff1c40e9b412e0ccb9ff44fd44c3205cfd2d6"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"reason": "row 1 right-hand side has no kernel preimage"}],
     "0d6c60342b2e3f5f55539db93e7a1349e1916cf28a9c49f70fe5ca780c9a38c1"),
    ("no-solution-within-bounds", 20, 14, 6, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"coordinate": 0, "combination": [1], "value": 1, "modulus": 2}],
     "a754223105c143ccbeff07dc1b6db715600ace9a3b1d6a42ee8aca370d14d935"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"coordinate": 0, "combination": [1, 1, -1], "value": 1, "modulus": 2}, {"reason": "row 1 right-hand side has no kernel preimage"}, {"reason": "row 0 right-hand side has no kernel preimage"}, {"reason": "row 2 right-hand side has no kernel preimage"}],
     "1ff3c6544718981ceb13c47a46ca70ce923420b83bf6ec3592709a0d218b62b0"),
    ("no-solution-within-bounds", 20, 15, 5, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"coordinate": 0, "combination": [1], "value": 1, "modulus": 2}],
     "be47d12ff24cf1a5b513991a7be074e1cfc519601b5d7d615b8cdbec37f00aeb"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"reason": "row 4 right-hand side has no kernel preimage"}, {"reason": "row 3 right-hand side has no kernel preimage"}, {"reason": "row 1 right-hand side has no kernel preimage"}, {"coordinate": 0, "combination": [0, 0, 1, 0, 0], "value": 1, "modulus": 2}],
     "f3480e1ce8bce1d022929da22800a31c14a08f31817258178da6884ee8936a60"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 1 right-hand side has no kernel preimage"}, {"reason": "row 6 right-hand side has no kernel preimage"}, {"reason": "row 3 right-hand side has no kernel preimage"}],
     "baf33058f8828650b3d45e862265bd5702e215b006460147f859d2ac44d04808"),
    ("no-solution-within-bounds", 20, 19, 1, True, 21,
     [{"reason": "row 1 right-hand side has no kernel preimage"}, {"reason": "row 2 right-hand side has no kernel preimage"}, {"reason": "row 3 right-hand side has no kernel preimage"}, {"reason": "row 5 right-hand side has no kernel preimage"}, {"reason": "row 4 right-hand side has no kernel preimage"}],
     "b66afbc08d157e13d041e8d2661286d3800df5a2c93b2e7b6d8d5625563c4d05"),
    ("no-solution-within-bounds", 20, 19, 1, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"reason": "row 3 right-hand side has no kernel preimage"}, {"reason": "row 2 right-hand side has no kernel preimage"}, {"reason": "row 1 right-hand side has no kernel preimage"}],
     "6d62aa6d3040ff8d1c6f1e2c8c9af5158233054a5825d82c9747622fb1050dbf"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}],
     "165fe87e0c860e067a2bf1eb67444f7c05f023663ade1eb2f40ce0909ed35b02"),
    ("no-solution-within-bounds", 20, 16, 4, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"reason": "row 1 right-hand side has no kernel preimage"}],
     "1c3d350d993e31aa4b636bef91ca43f77d5506a75108f292b2f9323e9a457373"),
    ("no-solution-within-bounds", 20, 14, 6, True, 21,
     [{"coordinate": 0, "combination": [1], "value": 3, "modulus": 4}, {"coordinate": 0, "combination": [1], "value": 2, "modulus": 4}],
     "f2ac46b79b5542adff82917aedefa7408c3c549df608418d4a481b728c81dacd"),
    ("no-solution-within-bounds", 20, 18, 2, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}, {"coordinate": 0, "combination": [1, -1], "value": -1, "modulus": 4}, {"coordinate": 0, "combination": [1, -1], "value": -2, "modulus": 4}, {"coordinate": 0, "combination": [1, -1], "value": 2, "modulus": 4}],
     "7ca7f8437ef64608782d5fe814f1a9047b1e73fd02fa7de0f539c02766fc328f"),
    ("solved", 1, 0, 0, None, 1,
     [],
     "1351e0a85f5a22ca5613598902720e2b8e5724d056b625178d96ee543239ea09"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}],
     "47f623eed6e6f978b70346d7a3bff5323db5bd92190cb0136141e7b72e65615d"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 1 right-hand side has no kernel preimage"}],
     "2e4a041a9326b9dfeec8709cc12c391301241b8a369e0d7d6b8bfcf82fb154c2"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}],
     "ce02a092e365b559b00ddc1fa464168ae420df61a5c95a2d57d625e578bb47a6"),
    ("no-solution-within-bounds", 20, 20, 0, True, 21,
     [{"reason": "row 0 right-hand side has no kernel preimage"}],
     "fa8d1956d73a23e357444064346ca7deebdd832cb2c0646f0c953d69875693f5"),
    ("no-solution-within-bounds", 20, 11, 9, True, 21,
     [{"coordinate": 0, "combination": [1], "value": 1, "modulus": 4}, {"coordinate": 0, "combination": [1], "value": 3, "modulus": 4}],
     "f2ac46b79b5542adff82917aedefa7408c3c549df608418d4a481b728c81dacd"),
]


def _digest(thetas, F) -> str:
    entries = []
    for t in thetas:
        cells = [
            [reduction._cell(F, s, c) for s, c in zip(s_row, c_row)]
            for s_row, c_row in zip(t.s, t.c)
        ]
        entries.append([
            t.to_jsonable(),
            [[sp for _, sp in row] for row in cells],
            [[list(a.coords()) for a, _ in row] for row in cells],
        ])
    blob = json.dumps(entries, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus_pipes():
    return {
        "quaternion8": Pipeline.build(quaternion8(), kappa2=2),
        "modular16": Pipeline.build(modular16(), kappa2=2),
    }


def test_sound_theta_stream_frozen(corpus_pipes, monkeypatch):
    data = Path(__file__).resolve().parent.parent / "data"
    corpus = files.load_json(str(data / "corpus.json"))["systems"]
    assert len(corpus) == len(FROZEN)
    yielded = []
    original = reduction.enumerate_theta

    def recording(*args, **kwargs):
        for t in original(*args, **kwargs):
            yielded.append(t)
            yield t

    monkeypatch.setattr(reduction, "enumerate_theta", recording)
    for i, (entry, frozen) in enumerate(zip(corpus, FROZEN)):
        pipe = corpus_pipes[entry["extension"]]
        sys_ = files.equation_system_from_json(entry["system"], pipe.ext)
        yielded.clear()
        out = solve(sys_, pipe, SolveConfig(mode="sound", theta_cap=20))
        r = out.report
        got = (
            out.status,
            r["thetas_tried"],
            r["w_unsolvable"],
            r["oracle_exhausted"],
            r.get("theta_truncated"),
            len(yielded),
            r["obstructions"],
            _digest(yielded, pipe.F),
        )
        assert got == frozen, f"corpus[{i}]"


# -- finite-complete verdicts ---------------------------------------------
#
# The README system (x^2 = z over Q8) and the 20 corpus systems, solved in
# finite-complete mode with oracle bound 2 on the same pipelines.  Each
# entry is (status, gamma_solutions, thetas_tried, w_unsolvable,
# oracle_exhausted, sha256 of the solved assignment's section coordinates
# or None).

README_SYSTEM = {
    "format_version": 1,
    "variables": ["x"],
    "constants": {"z": {"g": "", "a": {"free": [], "torsion": [1]}}},
    "equations": ["x x Z"],
}

FROZEN_FINITE_COMPLETE = [
    ('solved', None, 2, 1, 0, 'a67650652dda73206fc22656181ecbf3598d6209182986ca473b027eaa5693c4'),
    ('unsolvable', 0, 0, 0, 0, None),
    ('solved', None, 1, 0, 0, '92119bd0a6d7ac4c5f6647019aa7978b90e4aae6bd7eaa291d28184249ecf045'),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 1, 1, 1, 0, None),
    ('solved', None, 1, 0, 0, '2cd8264a2f10cab70e207b247bbd4795ff0f9bb0288b214531266bc453289957'),
    ('solved', None, 1, 0, 0, '128197b45e7dcdcd7c2e2c73b657e69e7eb77a91739d2918514088c13e952459'),
    ('solved', None, 1, 0, 0, '92119bd0a6d7ac4c5f6647019aa7978b90e4aae6bd7eaa291d28184249ecf045'),
    ('unsolvable', 0, 0, 0, 0, None),
    ('solved', None, 1, 0, 0, '8885bfc8cfb10c4291bf08186c99ce41b67cee6595e0c2c78b6b589e1356ded4'),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 0, 0, 0, 0, None),
    ('solved', None, 1, 0, 0, 'ac147f5d44d1cb81a95c1f9cb51a4f071604072e1d5df1c682e04917a539a27f'),
    ('solved', None, 1, 0, 0, 'bd7230e07a3c54a2da830960a269b00d58216b6e45cdf0f6fb633c813e66742f'),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 0, 0, 0, 0, None),
    ('unsolvable', 0, 0, 0, 0, None),
    ('solved', None, 1, 0, 0, 'ac147f5d44d1cb81a95c1f9cb51a4f071604072e1d5df1c682e04917a539a27f'),
]


def _assignment_digest(assignment):
    if assignment is None:
        return None
    blob = json.dumps(
        sorted(
            [var, el.coords, el.g, list(el.a.coords())]
            for var, el in assignment.items()
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _finite_complete_cases():
    data = Path(__file__).resolve().parent.parent / "data"
    corpus = files.load_json(str(data / "corpus.json"))["systems"]
    return [("quaternion8", README_SYSTEM)] + [
        (entry["extension"], entry["system"]) for entry in corpus
    ]


def _finite_complete_verdicts(corpus_pipes):
    rows = []
    for ext_name, system in _finite_complete_cases():
        pipe = corpus_pipes[ext_name]
        sys_ = files.equation_system_from_json(system, pipe.ext)
        out = solve(
            sys_, pipe, SolveConfig(mode="finite-complete", oracle_bound=2)
        )
        r = out.report
        rows.append((
            out.status,
            r.get("gamma_solutions"),
            r["thetas_tried"],
            r["w_unsolvable"],
            r["oracle_exhausted"],
            _assignment_digest(out.assignment),
        ))
    return rows


def test_finite_complete_verdicts_frozen(corpus_pipes):
    got = _finite_complete_verdicts(corpus_pipes)
    assert len(got) == len(FROZEN_FINITE_COMPLETE)
    for i, (row, frozen) in enumerate(zip(got, FROZEN_FINITE_COMPLETE)):
        assert row == frozen, f"case {i}"


# -- witness tuples use the witness ---------------------------------------
#
# solve takes a witness tuple's V-solution from witness_theta instead of
# searching for it.  That changes no verdict because the witness is the
# oracle's first solution on every such tuple, and it needs no oracle;
# a witness that V_t rejects is an anomaly, never a proof of Unsolvable.


def _base_solutions(pipe, sys_):
    for combo in itertools.product(pipe.ball.words, repeat=len(sys_.variables)):
        gamma = dict(zip(sys_.variables, combo))
        if reduction.check_in_base(sys_, pipe.ext.base, gamma):
            yield gamma


def test_witness_is_the_oracles_first_solution(corpus_pipes):
    n = 0
    for ext_name, system in _finite_complete_cases():
        pipe = corpus_pipes[ext_name]
        ext = pipe.ext
        sys_ = files.equation_system_from_json(system, ext)
        tri = reduction.triangularize(sys_, identity(ext))
        for gamma in _base_solutions(pipe, sys_):
            gfull = reduction.extend_to_fresh(tri, ext.base, gamma)
            t, vsol = reduction.witness_theta(tri, pipe, gfull)
            V = reduction.build_Vt(t, tri, pipe)
            assert V.check(vsol)
            res = reduction.vf_oracle_solve(V, 2)
            assert res.found and res.assignment == vsol
            n += 1
    # every solved case has a base solution, and so does case 7
    assert n == 19


def test_finite_complete_verdicts_need_no_oracle(corpus_pipes, monkeypatch):
    def no_oracle(V, bound):
        raise AssertionError("oracle called in finite-complete mode")

    monkeypatch.setattr(reduction, "vf_oracle_solve", no_oracle)
    assert _finite_complete_verdicts(corpus_pipes) == FROZEN_FINITE_COMPLETE


def test_rejected_witness_is_an_anomaly_not_unsolvable(corpus_pipes, monkeypatch):
    # a witness that V_t rejects must not be exhausted away into a proof
    # of unsolvability, whatever the oracle would say
    monkeypatch.setattr(reduction.VSystem, "check", lambda self, a: False)
    monkeypatch.setattr(
        reduction, "vf_oracle_solve",
        lambda V, bound: reduction.OracleOutcome(reduction.EXHAUSTED_BOUND),
    )
    reached = 0
    for (ext_name, system), frozen in zip(_finite_complete_cases(), FROZEN_FINITE_COMPLETE):
        pipe = corpus_pipes[ext_name]
        sys_ = files.equation_system_from_json(system, pipe.ext)
        out = solve(sys_, pipe, SolveConfig(mode="finite-complete", oracle_bound=2))
        r = out.report
        if r["thetas_tried"] > r["w_unsolvable"]:
            reached += 1
            assert out.status == "no-solution-within-bounds"
            assert "witness solution rejected by V_t" in r["anomalies"]
        else:
            assert (out.status, r["anomalies"]) == (frozen[0], [])
    assert reached
