"""Repository hygiene: docs exist, reference real artifacts, and the
source tree passes its own static-analysis gate."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool_available(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


class TestDocs:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"]
    )
    def test_doc_exists_and_is_substantial(self, name):
        path = ROOT / name
        assert path.is_file(), name
        assert len(path.read_text()) > 500 or name == "LICENSE"

    def test_design_references_real_bench_files(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / match).is_file(), match

    def test_experiments_references_real_bench_files(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for match in re.findall(r"`(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / match).is_file(), match

    def test_readme_references_real_examples(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", text):
            assert (ROOT / "examples" / match).is_file(), match


class TestLayout:
    def test_every_paper_artifact_has_a_bench(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        expected = {
            "bench_figure1_popularity.py",
            "bench_table2_zipf_fit.py",
            "bench_figure2_treeopt.py",
            "bench_figure6_baseline.py",
            "bench_figure7_uniform.py",
            "bench_table3_synthetic.py",
            "bench_figure8_sensitivity.py",
            "bench_table4_arity.py",
            "bench_figure9_best_case.py",
            "bench_figure10_bridging.py",
            "bench_section5_other_params.py",
            "bench_idicn_prototype.py",
        }
        assert expected <= benches

    def test_at_least_three_runnable_examples(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        for example in examples:
            source = example.read_text()
            assert '__name__ == "__main__"' in source, example.name

    def test_every_source_module_has_a_docstring(self):
        import ast

        for path in (ROOT / "src" / "repro").rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"


class TestDependencies:
    def test_imports_without_networkx(self):
        # A fresh interpreter whose meta-path refuses networkx: the
        # package and the chaos smoke entry point must still import.
        code = (
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'networkx':\n"
            "            raise ImportError('networkx is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "import repro, repro.idicn.chaos\n"
            "assert 'networkx' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestStaticAnalysis:
    """The tree must pass the repo's own linter (and ruff/mypy when
    installed — CI always installs them; the bare container may not)."""

    def test_repro_lint_is_clean(self):
        from repro.lint import lint_paths

        report = lint_paths([ROOT / "src", ROOT / "benchmarks"])
        rendered = report.render_text()
        assert report.exit_code() == 0, rendered
        assert report.errors == 0, rendered

    def test_lint_rule_catalogue_documented_in_design(self):
        from repro.lint import ALL_RULES

        text = (ROOT / "DESIGN.md").read_text()
        for rule in ALL_RULES:
            assert rule.id in text, (
                f"DESIGN.md does not document lint rule {rule.id}"
            )

    @pytest.mark.skipif(
        not _tool_available("ruff"), reason="ruff not installed"
    )
    def test_ruff_is_clean(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "ruff", "check", "src"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(
        not _tool_available("mypy"), reason="mypy not installed"
    )
    def test_mypy_is_clean(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
