"""Per-layer tracing of exteq from outside the program.

The tracer replaces public functions of each layer, in every exteq module
that imported them, by timing wrappers, and restores the originals on
close.  Stage-level calls (ball, L, families, products, each step of the
Theta stream, W_t, V_t, oracle, lemma, lift) get one span each; hot
per-element calls (normal forms, quasi-geodesic tests, cocycles,
compatibility tests, automaton construction) only add to a count and a
time.  Every wrapped call charges its duration to the wrapped call around
it, so self time is a call's duration minus the wrapped calls inside it.
Time spent in functions that are not wrapped, such as kernel arithmetic,
counts as self time of the wrapped caller.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager

import exteq

LAYERS = ("words", "abelian", "extension", "automata", "lrational",
          "fpa_ppa", "reduction", "files")
FAMILY_KINDS = ("q-left", "rho-left", "rho-right-reversed")
_END = object()


class Tracer:
    def __init__(self):
        self.groups: dict[str, list] = {}  # name -> [calls, inclusive s, self s, depth]
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self.request = None
        self.missing: list[str] = []
        self._stack: list[list] = []  # per active call: [child seconds, span index]
        self._patches: list[tuple] = []
        self._qg_members: dict = {}
        self._t0 = time.perf_counter()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _stat(self, group: str) -> list:
        return self.groups.setdefault(group, [0, 0.0, 0.0, 0])

    def _open_span(self, group: str) -> int:
        parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
        self.spans.append({"request": self.request, "name": group, "parent": parent})
        return len(self.spans) - 1

    def _finish(self, stat, frame, start, elapsed):
        stack = self._stack
        stack.pop()
        stat[3] -= 1
        stat[0] += 1
        stat[2] += elapsed - frame[0]
        if not stat[3]:
            stat[1] += elapsed
        if stack:
            stack[-1][0] += elapsed
        if frame[1] >= 0:
            span = self.spans[frame[1]]
            span["start"] = start - self._t0
            span["end"] = start + elapsed - self._t0
            span["self"] = elapsed - frame[0]

    def wrap(self, group: str, fn, span: bool = False, observe=None):
        """`fn` with its calls timed under `group`; `observe(tracer, args,
        result)` runs after each call that returns."""
        stat = self._stat(group)
        stack = self._stack
        clock = time.perf_counter
        finish = self._finish
        if not span and observe is None:
            # the hot path: the same bookkeeping as _finish, inlined
            def counted(*args, **kwargs):
                frame = [0.0, -1]
                stack.append(frame)
                stat[3] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[3] -= 1
                    stat[0] += 1
                    stat[2] += elapsed - frame[0]
                    if not stat[3]:
                        stat[1] += elapsed
                    if stack:
                        stack[-1][0] += elapsed

            return counted

        def traced(*args, **kwargs):
            frame = [0.0, self._open_span(group) if span else -1]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(stat, frame, start, clock() - start)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def span(self, group: str, request=None):
        """A span opened by the benchmark itself around a call into the
        program."""
        self.request = request
        stat = self._stat(group)
        frame = [0.0, self._open_span(group)]
        self._stack.append(frame)
        stat[3] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._finish(stat, frame, start, time.perf_counter() - start)

    # -- installing the hooks ------------------------------------------

    def _patch(self, module: str, attr: str, make):
        """Replace `module.attr` (or a method `module.Class.attr`) by
        make(original) wherever the original object is bound."""
        mod = sys.modules[f"exteq.{module}"]
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = owner.__dict__.get(name)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        if owner_name:
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for m in _program_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapper)

    def install(self) -> "Tracer":
        def hook(module, attr, group, span=False, observe=None):
            self._patch(module, attr,
                        lambda f: self.wrap(group, f, span, observe))

        hook("words", "build_ball", "words.ball", True, _observe_ball)
        hook("words", "normal_form_with_log", "words.nf")
        hook("words", "is_quasigeodesic", "words.qg", observe=_observe_qg)
        for name in ("sigma_rho", "sigma_q", "central_defect"):
            hook("extension", name, "extension.sigma")
        hook("abelian", "solve_linear_system", "abelian.linear")
        hook("automata", "FSA.__post_init__", "automata.fsa", observe=_observe_fsa)
        hook("automata", "inverse_morphism", "automata.inverse_morphism")
        hook("lrational", "build_L_automaton", "lrational.L", True, _observe_L)
        self._patch("lrational", "build_predictor_family", self._family_hook)
        hook("fpa_ppa", "build_fpa", "fpa_ppa.fpa", True, _observe_fpa)
        for name in ("build_lfpa", "build_rfpa"):
            hook("fpa_ppa", name, "fpa_ppa.ppa", True)
        hook("fpa_ppa", "build_ppa", "fpa_ppa.ppa", True, _observe_ppa)
        hook("fpa_ppa", "is_compatible", "fpa_ppa.compat")
        hook("fpa_ppa", "sigma_q_of_state", "fpa_ppa.sigma_q_state")
        self._patch("reduction", "enumerate_theta", self._theta_hook)
        hook("reduction", "witness_theta", "reduction.witness", True)
        hook("reduction", "build_Wt", "reduction.wt", True, _observe_wt)
        hook("reduction", "WSystem.solve", "reduction.wt", True, _observe_wsolve)
        hook("reduction", "build_Vt", "reduction.vt", True)
        hook("reduction", "_ab_graph", "reduction.ab_graph")
        hook("reduction", "vf_oracle_solve", "reduction.oracle", True, _observe_oracle)
        hook("reduction", "check_constraint_lemma", "reduction.lemma", True)
        hook("reduction", "lift_solution", "reduction.lift", True)
        for name in ("load_json", "extension_from_json", "equation_system_from_json"):
            hook("files", name, "files.load")
        return self

    def close(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _family_hook(self, original):
        by_kind = {
            kind: self.wrap(f"lrational.family.{kind}", original, True, _observe_family)
            for kind in FAMILY_KINDS
        }

        def build_predictor_family(ext, kind, *args, **kwargs):
            return by_kind.get(kind, original)(ext, kind, *args, **kwargs)

        return build_predictor_family

    def _theta_hook(self, original):
        # one span per step of the stream, not one around the generator
        def enumerate_theta(*args, **kwargs):
            stream = original(*args, **kwargs)
            step = self.wrap("reduction.theta", lambda: next(stream, _END), True)
            while True:
                t = step()
                if t is _END:
                    return
                yield t

        return enumerate_theta

    # -- results ---------------------------------------------------------

    def inclusive(self, group: str) -> float:
        return self.groups.get(group, (0, 0.0))[1]

    def calls(self, group: str) -> int:
        return self.groups.get(group, (0,))[0]

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for group, (_, _, self_s, _) in self.groups.items():
            layer = group.split(".")[0]
            if layer in out:
                out[layer] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        c = self.counts.get
        qg = self.calls("words.qg")
        w_solves = c("reduction.w_solves", 0)
        out = {
            "words.ball_s": self.inclusive("words.ball"),
            "words.ball_elements": c("words.ball_elements", 0),
            "words.nf_calls": self.calls("words.nf"),
            "words.qg_calls": qg,
            "words.qg_s": self.inclusive("words.qg"),
            "extension.sigma_calls": self.calls("extension.sigma"),
            "extension.sigma_s": self.inclusive("extension.sigma"),
            "lrational.L_s": self.inclusive("lrational.L"),
            "lrational.L_states": c("lrational.L_states", 0),
        }
        for kind in FAMILY_KINDS:
            out[f"lrational.family_s.{kind}"] = self.inclusive(f"lrational.family.{kind}")
        out.update({
            "lrational.family_states": c("lrational.family_states", 0),
            "lrational.walk_useful_ratio": c("words.qg_useful", 0) / qg if qg else 0.0,
            "fpa_ppa.fpa_s": self.inclusive("fpa_ppa.fpa"),
            "fpa_ppa.ppa_s": self.inclusive("fpa_ppa.ppa"),
            "fpa_ppa.fpa_states": c("fpa_ppa.fpa_states", 0),
            "fpa_ppa.ppa_states": c("fpa_ppa.ppa_states", 0),
            "fpa_ppa.compat_calls": self.calls("fpa_ppa.compat"),
            "fpa_ppa.compat_s": self.inclusive("fpa_ppa.compat"),
            "fpa_ppa.sigma_q_state_calls": self.calls("fpa_ppa.sigma_q_state"),
            "automata.fsa_built": self.calls("automata.fsa"),
            "automata.fsa_states_built": c("automata.fsa_states", 0),
            "automata.inverse_morphism_s": self.inclusive("automata.inverse_morphism"),
            "reduction.theta_s": self.inclusive("reduction.theta"),
            "reduction.thetas_tried": c("reduction.thetas_tried", 0),
            "reduction.w_solvable_ratio":
                c("reduction.w_solvable", 0) / w_solves if w_solves else 0.0,
            "reduction.wt_s": self.inclusive("reduction.wt"),
            "abelian.linear_solves": self.calls("abelian.linear"),
            "abelian.linear_s": self.inclusive("abelian.linear"),
            "reduction.vt_s": self.inclusive("reduction.vt"),
            "reduction.ab_graph_s": self.inclusive("reduction.ab_graph"),
            "reduction.witness_s": self.inclusive("reduction.witness"),
            "reduction.oracle_s": self.inclusive("reduction.oracle"),
            "reduction.oracle_exhausted": c("reduction.oracle_exhausted", 0),
            "reduction.lemma_s": self.inclusive("reduction.lemma"),
            "reduction.lift_s": self.inclusive("reduction.lift"),
            "reduction.gamma_solutions": self.calls("reduction.witness"),
            "files.load_s": self.inclusive("files.load"),
        })
        for layer, seconds in self.layer_self().items():
            out[f"{layer}.self_s"] = seconds
        return out


def _program_modules():
    for info in pkgutil.iter_modules(exteq.__path__):
        yield importlib.import_module(f"exteq.{info.name}")


def _observe_ball(tracer, args, ball):
    tracer.count("words.ball_elements", len(ball.words))


def _observe_qg(tracer, args, member):
    # a walked word matters when its parent is in the language: it is
    # either an L-word or on L's one-letter boundary
    if len(args) != 4:
        return
    ball, w, lam, nu = args
    members = tracer._qg_members.setdefault((id(ball), lam, nu), set())
    if member:
        members.add(w)
    if not w or w[:-1] in members:
        tracer.count("words.qg_useful")


def _observe_fsa(tracer, args, _):
    tracer.count("automata.fsa_states", len(args[0].transitions))


def _observe_L(tracer, args, fsa):
    tracer.count("lrational.L_states", fsa.n_states)


def _observe_family(tracer, args, fam):
    tracer.count("lrational.family_states", fam.graph.n_states)


def _observe_fpa(tracer, args, F):
    tracer.count("fpa_ppa.fpa_states", F.product.n_states)


def _observe_ppa(tracer, args, D):
    tracer.count("fpa_ppa.ppa_states", D.fsa.n_states)


def _observe_wt(tracer, args, W):
    tracer.count("reduction.thetas_tried")


def _observe_wsolve(tracer, args, wsol):
    tracer.count("reduction.w_solves")
    if wsol is not None:
        tracer.count("reduction.w_solvable")


def _observe_oracle(tracer, args, outcome):
    if not outcome.found:
        tracer.count("reduction.oracle_exhausted")
