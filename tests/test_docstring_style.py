"""A pydocstyle-style docstring check for the public serving/plan surface.

The serving, plan and perf packages are the repo's API: a pool operator
meets them before any figure harness.  This check enforces, without
external tooling, the slice of pydocstyle that matters for an operations
surface:

* every module in ``repro.serving`` / ``repro.plan`` / ``repro.perf``
  / ``repro.faultinject`` / ``repro.dynamic``
  has a module docstring (D100-ish);
* every public class, function, method and property defined in those
  modules has a docstring (D101/D102/D103-ish) — "public" meaning the
  name does not start with an underscore, dunders excluded;
* the key operator-facing surfaces (``InferenceEngine``,
  ``ServingConfig``, ``ServingPool``, ``PlanCache``, ``DispatchTable``)
  carry an *example-bearing* docstring: a doctest prompt
  (``>>>``) or an indented ``::`` code block.

Failures list every violation at once, so a docstring pass fixes them in
one sweep rather than whack-a-mole.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro.dynamic
import repro.faultinject
import repro.perf
import repro.plan
import repro.serving

CHECKED_PACKAGES = (
    repro.dynamic,
    repro.faultinject,
    repro.perf,
    repro.plan,
    repro.serving,
)

#: Surfaces whose docstrings must carry a usage example.
EXAMPLE_REQUIRED = {
    "repro.serving.engine.InferenceEngine",
    "repro.serving.engine.ServingConfig",
    "repro.serving.pool.ServingPool",
    "repro.plan.cache.PlanCache",
    "repro.plan.autotune.DispatchTable",
}


def iter_modules():
    for package in CHECKED_PACKAGES:
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package.__name__}.{info.name}")


def has_example(doc: str) -> bool:
    """A doctest prompt or a ``::`` literal block counts as an example."""
    return ">>>" in doc or "::" in doc


def missing_docstrings() -> list[str]:
    """Every (module, object) of the checked surface lacking a docstring."""
    problems: list[str] = []

    def check(qualname: str, doc: str | None) -> None:
        if not doc or not doc.strip():
            problems.append(f"{qualname}: missing docstring")

    for module in iter_modules():
        check(module.__name__, module.__doc__)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports are checked at their home
            qualname = f"{module.__name__}.{name}"
            check(qualname, obj.__doc__)
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    check(f"{qualname}.{attr}", member.fget.__doc__)
                elif isinstance(member, (staticmethod, classmethod)):
                    check(f"{qualname}.{attr}", member.__func__.__doc__)
                elif inspect.isfunction(member):
                    check(f"{qualname}.{attr}", member.__doc__)
    return problems


def test_public_surface_has_docstrings():
    problems = missing_docstrings()
    assert not problems, (
        f"{len(problems)} public serving/plan objects lack docstrings:\n  "
        + "\n  ".join(problems)
    )


def test_key_surfaces_have_examples():
    problems = []
    for target in sorted(EXAMPLE_REQUIRED):
        module_name, _, attr = target.rpartition(".")
        obj = getattr(importlib.import_module(module_name), attr)
        if not has_example(obj.__doc__ or ""):
            problems.append(target)
    assert not problems, (
        "docstrings need a usage example (>>> or a :: code block): "
        + ", ".join(problems)
    )
