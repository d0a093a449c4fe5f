"""The library's public surface, pinned: the ``__all__`` names, the public functions and
classes of ``cli`` (which has no ``__all__``) and the options of the seven modules.  An option
is a defaulted parameter of a public function or method, or a defaulted field of a public
dataclass.  A name or option added or removed changes a list below, in the same change."""

import dataclasses
import importlib
import inspect

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
    "t_algebra.bcirc",
    "t_algebra.unfold",
    "t_algebra.fold",
    "t_algebra.tprod",
    "t_algebra.tprod_oracle",
    "t_algebra.ttranspose",
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
    "t_algebra.multi_rank(tol)",
    "t_algebra.tubal_rank(tol)",
    "solver.SolverConfig.lam",
    "solver.SolverConfig.rho",
    "solver.SolverConfig.mu0",
    "solver.SolverConfig.mu_max",
    "solver.SolverConfig.eps",
    "solver.SolverConfig.max_iter",
    "solver.solve(config)",
    "solver.solve(callback)",
    "solver.incoherence_report(tol)",
    "synth.run_trial(config)",
    "synth.phase_grid(config)",
    "synth.write_trials_csv(header_comment)",
    "synth.write_phase_csv(header_comment)",
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
    assert len(NAMES) == 49


def test_cli_names():
    cli = importlib.import_module("trpca.cli")
    assert sorted(f"cli.{name}" for name, _ in public(cli)) == sorted(CLI_NAMES)


def test_options():
    _, opts = surface()
    assert sorted(opts) == sorted(OPTIONS)
    assert len(OPTIONS) == 20
