import json
import re

import numpy as np
import pytest

from helpers import double_integrator_mpc, random_lqc_spec
from soclqc.lqc import AmbiguitySpec, LqcSpec, scalar_benchmark_spec
from soclqc.mpc import MpcSpec
from soclqc.problemfile import (
    ProblemFileError,
    load_problem,
    parse_problem,
    render_lqc,
    render_mpc,
    save_problem,
)


class TestRoundTrip:
    def test_lqc_numbers_survive_exactly(self, rng, tmp_path):
        spec = random_lqc_spec(rng, 3, 2, 2, 4)
        amb = AmbiguitySpec(rng.standard_normal((2, spec.stacked_dist_dim)),
                            rng.standard_normal(2))
        path = tmp_path / "prob.json"
        save_problem(path, spec, amb)
        spec2, amb2 = load_problem(path)
        assert isinstance(spec2, LqcSpec)
        for name in ("A", "B", "C", "Q", "q", "R", "r", "u_poly_G", "u_poly_h"):
            assert np.array_equal(getattr(spec, name), getattr(spec2, name)), name
        assert spec.gamma == spec2.gamma
        assert np.array_equal(amb.H, amb2.H) and np.array_equal(amb.mu, amb2.mu)

    def test_mpc_numbers_survive_exactly(self, tmp_path):
        spec = double_integrator_mpc()
        path = tmp_path / "prob.json"
        save_problem(path, spec)
        spec2, amb = load_problem(path)
        assert isinstance(spec2, MpcSpec) and amb is None
        for name in ("A", "B", "E", "f", "G", "h", "K", "P", "Q", "R", "Q_f"):
            assert np.array_equal(getattr(spec, name), getattr(spec2, name)), name
        assert spec.N == spec2.N

    def test_serialization_is_canonical(self):
        spec = scalar_benchmark_spec(2)
        assert render_lqc(spec) == render_lqc(spec)
        mspec = double_integrator_mpc()
        assert render_mpc(mspec) == render_mpc(mspec)


class TestStrictParsing:
    def good_tree(self):
        return json.loads(render_lqc(scalar_benchmark_spec(2)))

    def test_unknown_key_rejected_with_name(self):
        tree = self.good_tree()
        tree["extra_field"] = 1
        with pytest.raises(ProblemFileError, match="extra_field"):
            parse_problem(json.dumps(tree))

    def test_nested_unknown_key_rejected(self):
        tree = self.good_tree()
        tree["input_set"]["slack"] = []
        with pytest.raises(ProblemFileError, match="slack"):
            parse_problem(json.dumps(tree))

    def test_missing_key_named(self):
        tree = self.good_tree()
        del tree["gamma"]
        with pytest.raises(ProblemFileError, match="gamma"):
            parse_problem(json.dumps(tree))

    def test_dim_mismatch_names_field(self):
        tree = self.good_tree()
        tree["A"][0]["data"] = [1.0, 2.0]
        with pytest.raises(ProblemFileError, match=r"A\[0\]"):
            parse_problem(json.dumps(tree))

    @pytest.mark.parametrize("k, edit", [
        (1, lambda m: m["data"].__setitem__(0, float("nan"))),
        (2, lambda m: m["data"].__setitem__(0, "0.5")),
        (1, lambda m: m["data"].pop()),
        (2, lambda m: m.update(cols=2, data=[1.0, 2.0])),
    ], ids=["non-finite", "non-numeric", "wrong-length", "other-shape"])
    def test_matrix_list_names_the_matrix(self, k, edit):
        # the entries of all A[k] are converted at once; a failure still
        # names the matrix
        tree = json.loads(render_lqc(scalar_benchmark_spec(3)))
        edit(tree["A"][k])
        with pytest.raises(ProblemFileError, match=rf"^A\[{k}\]: "):
            parse_problem(json.dumps(tree))

    def test_bad_kind(self):
        with pytest.raises(ProblemFileError, match="kind"):
            parse_problem(json.dumps({"kind": "socp"}))

    def test_not_json(self):
        with pytest.raises(ProblemFileError, match="JSON"):
            parse_problem("kind: lqc")

    def test_semantic_validation_surfaces(self):
        tree = self.good_tree()
        tree["gamma"] = -1.0
        with pytest.raises(ProblemFileError, match="gamma"):
            parse_problem(json.dumps(tree))

    @pytest.mark.parametrize("field, edit", [
        ("input_set.h", lambda t: t["input_set"]["h"].__setitem__(0, float("inf"))),
        ("input_set.G", lambda t: t["input_set"]["G"]["data"].__setitem__(1, float("nan"))),
        ("gamma", lambda t: t.__setitem__("gamma", float("inf"))),
        ("gamma", lambda t: t.__setitem__("gamma", True)),
        ("gamma", lambda t: t.__setitem__("gamma", "0.5")),
        ("input_set.h", lambda t: t["input_set"]["h"].__setitem__(1, "0.4")),
        ("horizon", lambda t: t.__setitem__("horizon", True)),
        (r"q\[1\]", lambda t: t["q"][1].__setitem__(0, -float("inf"))),
        (r"A\[0\]", lambda t: t["A"][0].__setitem__("rows", True)),
        (r"B\[0\]", lambda t: t["B"][0]["data"].__setitem__(0, 10**400)),
    ], ids=["h-inf", "G-nan", "gamma-inf", "gamma-bool", "gamma-string", "h-string",
            "horizon-bool", "q-minus-inf", "rows-bool", "huge-int"])
    def test_non_finite_and_boolean_numbers_rejected(self, field, edit):
        tree = json.loads(render_lqc(scalar_benchmark_spec(3)))
        edit(tree)
        with pytest.raises(ProblemFileError, match=field):
            parse_problem(json.dumps(tree))

    @pytest.mark.parametrize("field, edit", [
        ("state_set.f", lambda t: t["state_set"]["f"].__setitem__(0, float("nan"))),
        ("horizon", lambda t: t.__setitem__("horizon", True)),
    ], ids=["f-nan", "horizon-bool"])
    def test_mpc_non_finite_and_boolean_numbers_rejected(self, field, edit):
        tree = json.loads(render_mpc(double_integrator_mpc()))
        edit(tree)
        with pytest.raises(ProblemFileError, match=field):
            parse_problem(json.dumps(tree))

    def test_ambiguity_width_checked(self):
        tree = self.good_tree()
        tree["ambiguity"] = {"H": {"rows": 1, "cols": 5, "data": [0.0] * 5},
                             "mu": [0.0]}
        with pytest.raises(ProblemFileError, match="ambiguity.H"):
            parse_problem(json.dumps(tree))


def _edited(tree, edit):
    edit(tree)
    return json.dumps(tree)


def _lqc_text(edit):
    return _edited(json.loads(render_lqc(scalar_benchmark_spec(3))), edit)


def _mpc_text(edit):
    return _edited(json.loads(render_mpc(double_integrator_mpc())), edit)


def _short_mu(tree):
    tree["ambiguity"] = {"H": {"rows": 2, "cols": 3, "data": [1.0] * 6}, "mu": [0.5]}


@pytest.mark.parametrize("text, message", [
    (_mpc_text(lambda t: t.__setitem__("state_set", [])), "state_set: expected an object"),
    (_mpc_text(lambda t: t["state_set"].__setitem__("f", 5.0)), "state_set.f: expected a list of numbers"),
    (_lqc_text(lambda t: t.__setitem__("A", t["A"][:1])), "A: expected a list of 3 matrices"),
    (_lqc_text(lambda t: t.__setitem__("q", t["q"][:1])), "q: expected a list of 3 vectors"),
    (_lqc_text(_short_mu), "ambiguity: moment matrix rows and bound length differ"),
    (_mpc_text(lambda t: t["cost"]["R"].__setitem__("data", [-1.0])), "R must be positive definite"),
    ("[]", "top level: missing key 'kind'"),
], ids=["not-an-object", "not-a-list", "matrix-count", "vector-count", "ambiguity", "mpc-spec",
        "no-kind"])
def test_rejected_file_is_named(text, message):
    with pytest.raises(ProblemFileError, match=f"^{re.escape(message)}$"):
        parse_problem(text)


def test_save_rejects_other_specs(tmp_path):
    with pytest.raises(TypeError, match="^spec must be LqcSpec or MpcSpec$"):
        save_problem(tmp_path / "p.json", object())
