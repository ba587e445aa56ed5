"""Unit tests for the REPRO00x AST lint rules.

Each rule gets a positive fixture (must fire, with the right code and
line) and a negative fixture (idiomatic code must stay clean), plus a
whole-repo check: the shipped ``src/repro`` package must lint clean.
"""

from textwrap import dedent

from repro.lint import RULES, lint_source


def _codes(source: str, rules=None) -> list[str]:
    return [d.code for d in lint_source(dedent(source), "<test>", rules)]


class TestRepoClean:
    def test_src_repro_lints_clean(self, package_lint):
        assert package_lint == [], "\n".join(str(d) for d in package_lint)

    def test_rule_table_complete(self):
        assert set(RULES) == {
            "REPRO001", "REPRO002", "REPRO003", "REPRO004",
            "REPRO005", "REPRO007", "REPRO008", "REPRO009", "REPRO010",
        }

    def test_rule_table_sourced_from_central_registry(self):
        from repro.diagnostics import codes_for

        assert RULES == codes_for("lint")


class TestUnbroadcast:
    """REPRO001: gradient contributions must pass through _unbroadcast."""

    BAD = """
        def __add__(self, other):
            other = as_tensor(other)

            def backward(out):
                self._accumulate(out.grad * 1.0)
                other._accumulate(out.grad * 1.0)

            return Tensor._make(self.data + other.data, (self, other), backward)
    """

    GOOD = """
        def __add__(self, other):
            other = as_tensor(other)

            def backward(out):
                self._accumulate(_unbroadcast(out.grad, self.shape))
                other._accumulate(_unbroadcast(out.grad * 1.0, other.shape))

            return Tensor._make(self.data + other.data, (self, other), backward)
    """

    def test_missing_unbroadcast_fires(self):
        codes = _codes(self.BAD)
        assert codes.count("REPRO001") == 2

    def test_wrapped_accumulate_clean(self):
        assert _codes(self.GOOD) == []

    def test_non_broadcasting_op_clean(self):
        # Ops that never call as_tensor (unary) take no broadcast risk.
        source = """
            def __neg__(self):
                def backward(out):
                    self._accumulate(-out.grad)

                return Tensor._make(-self.data, (self,), backward)
        """
        assert _codes(source) == []

    def test_diagnostic_location(self):
        diags = lint_source(dedent(self.BAD), "ops.py")
        assert diags[0].path == "ops.py"
        assert diags[0].line == 6  # first _accumulate line in BAD
        assert "_unbroadcast" in diags[0].message

    def test_noqa_suppresses(self):
        source = self.BAD.replace(
            "self._accumulate(out.grad * 1.0)",
            "self._accumulate(out.grad * 1.0)  # noqa: REPRO001",
        )
        assert _codes(source).count("REPRO001") == 1


class TestForwardDetach:
    """REPRO002: forward() must not silently leave the tape."""

    def test_np_call_on_input_fires(self):
        source = """
            class M(Module):
                def forward(self, x):
                    return np.maximum(x, 0.0)
        """
        assert "REPRO002" in _codes(source)

    def test_numpy_method_fires(self):
        source = """
            class M(Module):
                def forward(self, x):
                    data = x.numpy()
                    return self.head(data)
        """
        assert "REPRO002" in _codes(source)

    def test_tensor_ops_clean(self):
        source = """
            class M(Module):
                def forward(self, x):
                    scale = 1.0 / np.sqrt(self.dim)
                    return (x @ x.transpose((0, 2, 1))) * scale
        """
        assert _codes(source) == []


class TestGradGuard:
    """REPRO003: manual graph wiring must consult is_grad_enabled()."""

    def test_unguarded_wiring_fires(self):
        source = """
            def fuse(a, b):
                out = Tensor(a.data + b.data)
                out._parents = (a, b)
                out._backward = lambda: None
                return out
        """
        assert _codes(source).count("REPRO003") == 2

    def test_guarded_wiring_clean(self):
        source = """
            def fuse(a, b):
                out = Tensor(a.data + b.data)
                if is_grad_enabled():
                    out._parents = (a, b)
                    out._backward = lambda: None
                return out
        """
        assert _codes(source) == []

    def test_tape_teardown_clean(self):
        # Clearing the tape (None / empty tuple) is always legal.
        source = """
            def backward(self):
                for node in self._topological_order():
                    node._backward = None
                    node._parents = ()
        """
        assert _codes(source) == []


class TestMutableDefaults:
    def test_mutable_default_fires(self):
        assert "REPRO004" in _codes("def f(x, cache=[]):\n    return cache\n")

    def test_none_default_clean(self):
        assert _codes("def f(x, cache=None):\n    return cache\n") == []


class TestInplaceData:
    """REPRO005: no in-place .data mutation inside forward/backward."""

    def test_augassign_in_forward_fires(self):
        source = """
            class M(Module):
                def forward(self, x):
                    x.data += 1.0
                    return x
        """
        assert "REPRO005" in _codes(source)

    def test_subscript_store_in_backward_fires(self):
        source = """
            def relu(x):
                def backward(out):
                    x.data[x.data < 0] = 0.0
                    x._accumulate(out.grad)

                return Tensor._make(np.maximum(x.data, 0), (x,), backward)
        """
        assert "REPRO005" in _codes(source)

    def test_optimizer_step_clean(self):
        # Mutating .data outside forward/backward (optimizers) is the
        # supported way to update parameters.
        source = """
            class SGD:
                def step(self):
                    for p in self.params:
                        p.data -= self.lr * p.grad
        """
        assert _codes(source) == []


class TestUnusedImports:
    def test_unused_import_fires(self):
        assert _codes("import os\n\nx = 1\n") == ["REPRO007"]

    def test_used_import_clean(self):
        assert _codes("import os\n\nx = os.sep\n") == []

    def test_dunder_all_counts_as_use(self):
        source = "from .tensor import Tensor\n\n__all__ = ['Tensor']\n"
        assert _codes(source) == []


class TestBackwardClosureHazards:
    """REPRO008: stale loop-variable capture / out.grad aliasing."""

    STALE = """
        def stack(tensors):
            for i, tensor in enumerate(tensors):
                pass

            def backward(out):
                tensor._accumulate(out.grad[i])
            return backward
    """

    def test_loop_capture_fires(self):
        codes = _codes(self.STALE)
        # Both `tensor` and `i` are captured loop variables.
        assert codes == ["REPRO008", "REPRO008"]

    def test_loop_inside_backward_clean(self):
        # concatenate-style backward: the loop lives *inside* the
        # closure, so every run re-binds its own iteration variables.
        source = """
            def concatenate(tensors, offsets):
                def backward(out):
                    for tensor, start in zip(tensors, offsets):
                        tensor._accumulate(out.grad[start:])
                return backward
        """
        assert _codes(source) == []

    def test_default_arg_binding_clean(self):
        # The canonical fix: freeze the loop value via a default arg.
        source = """
            def stack(tensors):
                for i, tensor in enumerate(tensors):
                    def backward(out, i=i, tensor=tensor):
                        tensor._accumulate(out.grad[i])
        """
        assert _codes(source) == []

    def test_out_grad_augassign_fires(self):
        source = """
            def relu(x):
                def backward(out):
                    out.grad *= 0.5
                    x._accumulate(out.grad)
        """
        assert _codes(source) == ["REPRO008"]

    def test_out_grad_subscript_assign_fires(self):
        source = """
            def clamp(x):
                def backward(out):
                    out.grad[mask] = 0.0
                    x._accumulate(out.grad)
        """
        assert _codes(source) == ["REPRO008"]

    def test_out_grad_ufunc_at_fires(self):
        source = """
            def gather(x, index):
                def backward(out):
                    np.add.at(out.grad, index, 1.0)
        """
        assert _codes(source) == ["REPRO008"]

    def test_out_grad_out_kwarg_fires(self):
        source = """
            def scale(x):
                def backward(out):
                    np.multiply(out.grad, 2.0, out=out.grad)
        """
        assert _codes(source) == ["REPRO008"]

    def test_reading_out_grad_clean(self):
        source = """
            def mul(self, other):
                def backward(out):
                    grad = out.grad * other.data
                    self._accumulate(grad)
        """
        assert _codes(source) == []

    def test_fresh_local_grad_mutation_clean(self):
        # __getitem__-style: np.add.at into a *fresh* zeros buffer.
        source = """
            def getitem(self, index):
                def backward(out):
                    grad = np.zeros(self.shape)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)
        """
        assert _codes(source) == []

    def test_noqa_suppresses(self):
        source = """
            def scale(x):
                def backward(out):
                    out.grad *= 0.5  # noqa: REPRO008
                    x._accumulate(out.grad)
        """
        assert _codes(source) == []


class TestSelection:
    def test_select_subset(self):
        source = "import os\n\ndef f(x, cache=[]):\n    return cache\n"
        # Sorted by line: the unused import (line 1) comes first.
        assert _codes(source) == ["REPRO007", "REPRO004"]
        assert _codes(source, rules={"REPRO004"}) == ["REPRO004"]

    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def f(:\n", "broken.py")
        assert len(diags) == 1
        assert diags[0].code == "REPRO000"
