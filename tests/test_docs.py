"""Documentation guards: docs stay consistent with the code."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_api_docs"] = module
    spec.loader.exec_module(module)
    return module


class TestApiIndex:
    def test_api_docs_up_to_date(self):
        generator = load_generator()
        committed = (REPO / "docs" / "API.md").read_text()
        assert generator.build() == committed, (
            "docs/API.md is stale; run `python tools/gen_api_docs.py`"
        )

    def test_generator_imports_its_checkout(self, tmp_path):
        # `python tools/gen_api_docs.py` is the fix the stale-doc message
        # names; it must work in a checkout that was never pip-installed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        script = (
            "import importlib.util\n"
            "spec = importlib.util.spec_from_file_location("
            f"'gen_api_docs', {str(REPO / 'tools' / 'gen_api_docs.py')!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "print(module.repro.__file__)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert Path(done.stdout.strip()).is_relative_to(REPO / "src")

    def test_api_index_covers_core_names(self):
        text = (REPO / "docs" / "API.md").read_text()
        for name in (
            "min_protection_level",
            "ControlledAlternateRouting",
            "LossNetworkSimulator",
            "nsfnet_backbone",
            "erlang_bound",
        ):
            assert f"`{name}`" in text


class TestReadmeQuickstart:
    @staticmethod
    def _snippets(count: int) -> list[str]:
        readme = (REPO / "README.md").read_text()
        snippets, position = [], 0
        for __ in range(count):
            start = readme.index("```python", position) + len("```python")
            end = readme.index("```", start)
            snippets.append(readme[start:end])
            position = end
        return snippets

    def test_facade_snippet_executes(self, monkeypatch):
        # The first python block is the repro.api quickstart; it documents
        # the paper's full replication protocol, so run it with a quick
        # config patched into the façade entry points.
        import repro
        import repro.api
        from repro.experiments.runner import ReplicationConfig

        quick = ReplicationConfig(measured_duration=4.0, warmup=1.0, seeds=(0, 1))
        run_scenario, run_study = repro.api.run_scenario, repro.api.run_study

        def quick_scenario(scenario, **kwargs):
            kwargs["duration"], kwargs["warmup"] = 5.0, 1.0
            return run_scenario(scenario, **kwargs)

        def quick_study(scenario, **kwargs):
            kwargs.setdefault("config", quick)
            return run_study(scenario, **kwargs)

        for module in (repro, repro.api):
            monkeypatch.setattr(module, "run_scenario", quick_scenario)
            monkeypatch.setattr(module, "run_study", quick_study)
        snippet = self._snippets(1)[0]
        exec(compile(snippet, "<README facade quickstart>", "exec"), {})

    def test_deep_import_snippet_executes(self):
        # The second python block is the deep-module wiring; substitute a
        # fast duration, guarding the documented API surface.
        snippet = self._snippets(2)[1]
        assert "duration=110.0" in snippet
        snippet = snippet.replace("duration=110.0", "duration=12.0")
        exec(compile(snippet, "<README quickstart>", "exec"), {})

    def test_readme_mentions_all_examples(self):
        readme = (REPO / "README.md").read_text()
        for example in (REPO / "examples").glob("*.py"):
            assert example.name in readme, f"README does not mention {example.name}"


class TestDesignDocument:
    def test_every_bench_file_mentioned_in_design(self):
        design = (REPO / "DESIGN.md").read_text()
        for bench in (REPO / "benchmarks").glob("bench_*.py"):
            assert bench.name in design, f"DESIGN.md does not index {bench.name}"

    def test_experiments_doc_mentions_every_bench(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for bench in (REPO / "benchmarks").glob("bench_*.py"):
            if bench.name == "bench_core_primitives.py":
                continue  # microbenchmarks, not a paper artifact
            assert bench.name in experiments, f"EXPERIMENTS.md misses {bench.name}"


class TestUsageCookbook:
    def test_first_recipe_executes(self):
        usage = (REPO / "docs" / "USAGE.md").read_text()
        start = usage.index("```python") + len("```python")
        end = usage.index("```", start)
        snippet = usage[start:end]
        snippet = snippet.replace(
            "measured_duration=100.0, warmup=10.0, seeds=tuple(range(10))",
            "measured_duration=8.0, warmup=2.0, seeds=(0,)",
        )
        namespace: dict = {}
        exec(compile(snippet, "<USAGE recipe 1>", "exec"), namespace)

    def test_docs_exist(self):
        for name in ("USAGE.md", "THEORY.md", "API.md"):
            assert (REPO / "docs" / name).exists()
