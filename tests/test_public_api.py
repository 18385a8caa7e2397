"""The package's public surface: every exported name resolves, and the README's
library quick start runs as written."""

import inspect
import re
from pathlib import Path

import droopinertia

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in droopinertia.__all__ if not hasattr(droopinertia, name)]
    assert not missing


def test_simulate_is_the_function_and_integrate_the_module():
    import droopinertia.integrate

    assert callable(droopinertia.simulate)
    assert droopinertia.simulate is droopinertia.integrate.simulate
    assert inspect.ismodule(droopinertia.integrate)


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} quick start", "exec"), namespace)
    assert namespace["vdic_trace"].omega[-1] < 0.0
