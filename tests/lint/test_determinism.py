"""Determinism rules: REPRO009/010 true and false positives."""

from textwrap import dedent

from repro.lint import lint_source

_DETERMINISM = {"REPRO009", "REPRO010"}


def _codes(source):
    return [d.code for d in lint_source(dedent(source), rules=_DETERMINISM)]


class TestUnseededRng:
    def test_default_rng_without_seed(self):
        assert _codes("""
            import numpy as np
            rng = np.random.default_rng()
        """) == ["REPRO009"]

    def test_default_rng_with_seed_clean(self):
        assert _codes("""
            import numpy as np
            rng = np.random.default_rng(2023)
            rng2 = np.random.default_rng(seed)
        """) == []

    def test_legacy_global_api(self):
        assert _codes("""
            import numpy as np
            x = np.random.rand(3)
            np.random.shuffle(x)
        """) == ["REPRO009", "REPRO009"]

    def test_stdlib_random(self):
        assert _codes("""
            import random
            x = random.random()
        """) == ["REPRO009"]

    def test_generator_methods_clean(self):
        # Methods on an explicit Generator are fine — seeding is the
        # caller's responsibility at construction, which is audited.
        assert _codes("""
            def jitter(rng):
                return rng.normal(size=3)
        """) == []


class TestUnorderedIteration:
    def test_for_over_set_literal(self):
        assert _codes("""
            for x in {1, 2, 3}:
                print(x)
        """) == ["REPRO010"]

    def test_for_over_set_call(self):
        assert _codes("""
            for x in set(items):
                total += x
        """) == ["REPRO010"]

    def test_comprehension_over_set_union(self):
        assert _codes("""
            out = [f(x) for x in a.union(b)]
        """) == ["REPRO010"]

    def test_listdir_unsorted(self):
        assert _codes("""
            import os
            for name in os.listdir(path):
                load(name)
        """) == ["REPRO010"]

    def test_sorted_wrappers_clean(self):
        assert _codes("""
            import os
            for x in sorted({1, 2, 3}):
                print(x)
            for name in sorted(os.listdir(path)):
                load(name)
        """) == []

    def test_for_over_list_clean(self):
        assert _codes("""
            for x in [1, 2, 3]:
                print(x)
        """) == []


class TestSuppression:
    def test_noqa_silences_finding(self):
        assert _codes("""
            import numpy as np
            rng = np.random.default_rng()  # noqa: REPRO009
        """) == []

    def test_noqa_wrong_code_keeps_finding(self):
        assert _codes("""
            import numpy as np
            rng = np.random.default_rng()  # noqa: REPRO010
        """) == ["REPRO009"]


class TestRepoAudit:
    def test_training_placement_callgraph_is_clean(self, package_lint):
        """The shipped package must be free of determinism findings."""
        findings = [d for d in package_lint if d.code in _DETERMINISM]
        assert findings == [], "\n".join(str(f) for f in findings)
