"""Properties of the source tree itself."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from cloudmarket.cli import INVARIANT_ERRORS

SRC = Path(__file__).resolve().parent.parent / "src" / "cloudmarket"


def test_no_invariant_rests_on_assert():
    # `python -O` strips assert statements, so every check in the
    # simulator must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_scenario_policies_are_built_only_by_validation():
    # validation builds the pricing, market-price, penalty, concession and
    # workload distribution objects a run uses; a second constructor site
    # would be a second model of the same scenario fact
    policies = {
        "Fixed", "PeakOffPeak", "UtilizationLinear",
        "VariablePrice", "PenaltySchedule", "ConcessionSchedule",
        "Constant", "Uniform", "UniformInt", "Choice", "Poisson", "Periodic",
        "TraceArrival",
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "workload.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in policies:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def imported_packages(path):
    """(line, top-level package) for every import statement in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            yield node.lineno, module.split(".")[0]


def test_only_workload_imports_random():
    # request generation seeds every stream from (master_seed, stream
    # name); a generator seeded anywhere else would escape that seeding
    found = [
        path.name for path in sorted(SRC.glob("*.py"))
        for _, package in imported_packages(path) if package == "random"
    ]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert sorted(set(found)) == ["workload.py"]


def test_run_path_modules_do_not_import_fractions():
    # a run computes every amount from integer (numerator, denominator)
    # pairs; validated scenario rationals are Fractions built by
    # `workload`, and the run reads only their numerator and denominator
    run_path = {
        "engine.py", "datacenter.py", "allocator.py", "exchange.py",
        "negotiation.py", "simulation.py", "metrics.py",
    }
    assert run_path <= {path.name for path in SRC.glob("*.py")}
    found = [
        f"{name}:{line}" for name in sorted(run_path)
        for line, package in imported_packages(SRC / name) if package == "fractions"
    ]
    assert found == []


def test_the_trace_writer_is_the_one_process_a_run_starts():
    # one forked writer per streamed run, reaped by the run; a second
    # process-starting path would be a second process to keep from
    # outliving its run
    starters = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in starters
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name} os.{a.name}" for a in node.names if a.name in starters]
        found += [
            f"{path.name} {package}" for _, package in imported_packages(path)
            if package in ("subprocess", "multiprocessing", "concurrent")
        ]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == ["engine.py os.fork"]


def test_every_simulator_exception_exits_four():
    # the CLI maps bad input to exit 2 or 3 and every other exception the
    # package defines to exit 4; one left out would exit 1 with a traceback
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cloudmarket.{path.stem}")
        defined |= {
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == module.__name__
        }
    input_errors = {cls for cls in defined if cls.__name__ in ("ParseError", "ValidationError")}
    assert len(input_errors) == 2
    assert defined - input_errors == set(INVARIANT_ERRORS)


def test_bench_tracer_wraps_every_name():
    # the benchmark's per-layer view wraps simulator names by string;
    # a renamed or deleted one would silently drop its layer
    path = SRC.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.skipped == []
