"""The library's public surface, pinned: the ``__all__`` names, the public functions and
classes of ``cli`` (which has no ``__all__``) and the options of the seven modules.  An option
is a defaulted parameter of a public function or method, or a defaulted field of a public
dataclass.  A name or option added or removed changes a list below, in the same change.  Every
function option also needs a call in ``src/`` that passes it (``test_options_have_callers``)."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trpca"

MODULES = ["tensor_core", "t_algebra", "prox", "solver", "synth", "imaging", "cli"]

NAMES = [
    "tensor_core.TensorDims",
    "tensor_core.as_tensor",
    "tensor_core.norm_l1",
    "tensor_core.norm_inf",
    "tensor_core.norm_fro",
    "tensor_core.write_tensor",
    "tensor_core.read_tensor",
    "tensor_core.load_tensor",
    "t_algebra.TSvd",
    "t_algebra.dft3",
    "t_algebra.tprod",
    "t_algebra.tsvd",
    "t_algebra.multi_rank",
    "t_algebra.tubal_rank",
    "t_algebra.tnn",
    "t_algebra.spectral_norm",
    "prox.tsvt",
    "prox.soft_threshold",
    "solver.SolverConfig",
    "solver.TrpcaResult",
    "solver.IncoherenceReport",
    "solver.default_lambda",
    "solver.solve",
    "solver.incoherence_report",
    "solver.load_config",
    "synth.TrialSpec",
    "synth.TrialOutcome",
    "synth.PhaseGrid",
    "synth.gen_low_rank",
    "synth.gen_sparse_uniform",
    "synth.gen_sparse_bernoulli",
    "synth.run_trial",
    "synth.phase_grid",
    "synth.write_trials_csv",
    "synth.write_phase_csv",
    "imaging.ImageStack",
    "imaging.DenoiseReport",
    "imaging.read_netpbm",
    "imaging.write_netpbm",
    "imaging.stack_to_tensor",
    "imaging.tensor_to_stack",
    "imaging.corrupt_pixels",
    "imaging.psnr",
    "imaging.denoise",
]

CLI_NAMES = [
    "cli.main",
    "cli.build_parser",
    "cli.cmd_tsvd",
    "cli.cmd_solve",
    "cli.cmd_table1",
    "cli.cmd_phase",
    "cli.cmd_denoise",
]

OPTIONS = [
    "solver.SolverConfig.lam",
    "solver.SolverConfig.rho",
    "solver.SolverConfig.mu0",
    "solver.SolverConfig.mu_max",
    "solver.SolverConfig.eps",
    "solver.SolverConfig.max_iter",
    "solver.solve(config)",
    "solver.solve(callback)",
    "synth.run_trial(config)",
    "synth.phase_grid(config)",
    "imaging.ImageStack.color",
    "imaging.tensor_to_stack(color)",
    "imaging.denoise(config)",
    "imaging.denoise(baseline)",
    "cli.main(argv)",
]


def public(module):
    """The module's ``__all__`` objects, or without one (``cli``) the functions and classes
    that it defines under a name without a leading underscore."""
    if hasattr(module, "__all__"):
        return [(name, getattr(module, name)) for name in module.__all__]
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]


def defaulted(fn, label):
    return [
        f"{label}({p.name})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    ]


def options(prefix, obj):
    if inspect.isfunction(obj):
        return defaulted(obj, prefix)
    found = []
    if dataclasses.is_dataclass(obj):
        found += [
            f"{prefix}.{f.name}"
            for f in dataclasses.fields(obj)
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        ]
    for name, method in vars(obj).items():
        if not name.startswith("_") and inspect.isfunction(method):
            found += defaulted(method, f"{prefix}.{name}")
    return found


def surface():
    names, opts = [], []
    for mod_name in MODULES:
        module = importlib.import_module(f"trpca.{mod_name}")
        names += [f"{mod_name}.{name}" for name in getattr(module, "__all__", [])]
        for name, obj in public(module):
            opts += options(f"{mod_name}.{name}", obj)
    return names, opts


def test_all_names():
    names, _ = surface()
    assert sorted(names) == sorted(NAMES)
    assert len(NAMES) == 44


def test_cli_names():
    cli = importlib.import_module("trpca.cli")
    assert sorted(f"cli.{name}" for name, _ in public(cli)) == sorted(CLI_NAMES)


def test_options():
    _, opts = surface()
    assert sorted(opts) == sorted(OPTIONS)
    assert len(OPTIONS) == 15


# Function options that need no caller in src/: solve's callback is how criterion 6 and
# test_matrix_rpca_trajectory_matches observe the iterates; main's argv is set by the console
# entry point.
NO_CALLER = {"solver.solve(callback)", "cli.main(argv)"}


def _definition(trees, option):
    """The function of ``module.function(param)`` or ``module.Class.method(param)``."""
    path, param = option[:-1].split("(")
    module, *names = path.split(".")
    node = trees[module]
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node, param, isinstance(node, ast.FunctionDef) and len(names) == 2


def _passes(call, params, param, index):
    """Whether ``call`` passes ``param`` by keyword, or by position at ``index``, other than by
    forwarding the parameter of the same name of a function that encloses it (``params``)."""
    value = next((k.value for k in call.keywords if k.arg == param), None)
    if value is None and index is not None and index < len(call.args):
        value = call.args[index]
    forwarded = isinstance(value, ast.Name) and value.id in params
    return value is not None and not forwarded


def uncalled_options():
    """The function options of ``OPTIONS``, less ``NO_CALLER``, that no call in ``src/`` passes."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    calls = []  # (call, the parameter names of the functions that enclose it)

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            params = params | {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            calls.append((node, params))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for tree in trees.values():
        visit(tree, frozenset())
    missing = []
    for option in sorted(set(OPTIONS) - NO_CALLER):
        if "(" not in option:  # a dataclass field
            continue
        fn, param, method = _definition(trees, option)
        positional = [p.arg for p in fn.args.posonlyargs + fn.args.args][method:]
        index = positional.index(param) if param in positional else None
        if not any(
            fn.name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
            and _passes(c, params, param, index)
            for c, params in calls
        ):
            missing.append(option)
    return missing


def test_options_have_callers():
    assert uncalled_options() == []
