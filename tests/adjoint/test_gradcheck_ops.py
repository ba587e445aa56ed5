"""Derivative audit sweep: every primitive op, finite-difference checked.

Three layers of assurance:

* every registered :class:`~repro.adjoint.specs.Case` passes the
  central-difference check (including non-default stride/padding/axis/
  keepdims configurations and the broadcast REPRO202 cases);
* the case registry is *complete*: every public op in
  ``repro.nn.functional.__all__`` and every ``Tensor`` method that
  builds an autograd node is either covered by a case or explicitly
  waived in ``UNCOVERED`` with a reason;
* the harness actually catches bugs: a planted wrong vjp fails, at
  error magnitudes far smaller than any plausible real defect.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro.nn.functional as F
import repro.nn.tensor as tensor_mod
from repro.adjoint import (
    CASES,
    UNCOVERED,
    Case,
    cases_for,
    covered_targets,
    gradcheck_case,
    op_kinds,
    run_gradcheck,
    run_kink_probes,
)
from repro.nn.tensor import Tensor


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_case_passes(case):
    result = gradcheck_case(case, seed=0)
    assert result["passed"], (
        f"{case.name}: analytic gradient disagrees with central differences: "
        f"{result.get('worst')}"
    )


def test_kink_probes_pass():
    results, findings = run_kink_probes()
    assert [f.message for f in findings] == []
    assert {r["op_kind"] for r in results} == {"relu", "max", "max_pool2d"}


class TestRegistryCompleteness:
    """The sweep must cover the whole differentiable surface."""

    def _methods_building_autograd_nodes(self, cls) -> set[str]:
        """Names of ``cls`` methods whose body calls ``Tensor._make``."""
        tree = ast.parse(Path(inspect.getsourcefile(cls)).read_text())
        class_node = next(
            n
            for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == cls.__name__
        )
        found = set()
        for item in class_node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            for node in ast.walk(item):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "_make"
                ):
                    found.add(item.name)
                    break
        return found - {"_make"}

    def test_every_functional_op_covered(self):
        known = covered_targets() | set(UNCOVERED)
        missing = [name for name in F.__all__ if name not in known]
        assert missing == [], (
            f"functional ops with no gradcheck case and no UNCOVERED waiver: "
            f"{missing}"
        )

    def test_every_tensor_method_covered(self):
        known = covered_targets() | set(UNCOVERED)
        methods = self._methods_building_autograd_nodes(Tensor)
        missing = sorted(
            f"Tensor.{m}" for m in methods if f"Tensor.{m}" not in known
        )
        assert missing == [], (
            f"Tensor autograd methods with no gradcheck case and no "
            f"UNCOVERED waiver: {missing}"
        )
        # The AST scan found the real differentiable surface, not nothing.
        assert {"__add__", "__mul__", "__matmul__", "relu"} <= methods

    def test_module_level_ops_covered(self):
        for name in ("concatenate", "stack"):
            assert hasattr(tensor_mod, name)
            assert name in covered_targets()

    def test_every_uncovered_waiver_has_reason(self):
        for target, reason in UNCOVERED.items():
            assert isinstance(reason, str) and reason, target

    def test_non_default_configurations_present(self):
        """Strides, padding, axes and keepdims variants must be swept."""
        names = {c.name for c in CASES}
        for required in (
            "conv2d/k3-s2-p1-bias",
            "sum/axis1-keepdims",
            "max/axis-keepdims",
            "transpose/negative-axes",
            "upsample_nearest/s3",
        ):
            assert required in names, f"missing sweep configuration {required}"


class TestHarnessSensitivity:
    """A wrong vjp must fail the check — the tolerances cannot mask it."""

    @staticmethod
    def _planted(rel_err: float) -> Case:
        def build(rng):
            def fn(x):
                def backward(out):
                    x._accumulate(out.grad * 2.0 * (1.0 + rel_err))

                return Tensor._make(x.data * 2.0, (x,), backward)

            return fn, (rng.standard_normal((3, 4)),)

        return Case(
            name=f"planted/scale-bug-{rel_err}",
            target="planted",
            op_kind="planted",
            build=build,
        )

    def test_planted_gross_bug_fails(self):
        result = gradcheck_case(self._planted(0.5), seed=0)
        assert not result["passed"]
        assert result["worst"]["abs_err"] > 0.1

    def test_planted_subtle_bug_fails(self):
        # A 1e-5 relative error is ~27x the tolerance — still caught.
        result = gradcheck_case(self._planted(1e-5), seed=0)
        assert not result["passed"]

    def test_correct_vjp_passes(self):
        result = gradcheck_case(self._planted(0.0), seed=0)
        assert result["passed"]

    def test_failed_case_produces_finding(self):
        bad = self._planted(0.5)
        saved = CASES[:]
        CASES[:] = [bad]
        try:
            result = run_gradcheck(["planted"], seed=0)
        finally:
            CASES[:] = saved
        assert len(result["findings"]) == 1
        assert result["findings"][0].code == "REPRO204"
        assert "central-difference" in result["findings"][0].message


class TestSelection:
    def test_cases_for_filters_by_op_kind(self):
        conv_only = cases_for(["conv2d"])
        assert conv_only and all(c.op_kind == "conv2d" for c in conv_only)

    def test_op_kinds_unique_and_nonempty(self):
        kinds = op_kinds()
        assert len(kinds) == len(set(kinds)) > 20

    def test_run_gradcheck_scopes_to_requested_kinds(self):
        result = run_gradcheck(["relu", "sum"], seed=0)
        assert set(result["checked_ops"]) == {"relu", "sum"}
        assert result["findings"] == []
