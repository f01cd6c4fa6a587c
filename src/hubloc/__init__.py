"""Exact optimization toolkit for capacitated multiple-allocation hub
location under scenario setup-cost uncertainty, with executable checks of
the structural claims about the collaboration-restricted variant."""

from .claims import (CLAIM_CHECKS, ClaimReport, check_cc_nc_consistency,
                     check_eq20_redundancy, check_i_redundancy,
                     check_theorem1, check_tk_never_one)
from .formulations import (FormulationError, ModelOptions, build_cc,
                           build_ccu, build_nc, build_ocu,
                           build_scenario_deterministic, compute_big_m)
from .instance import (ConfigError, GeneratorConfig, Instance, ParseError,
                       ValidationError, generate_instance,
                       instance_fingerprint, load_instance, origin_supply,
                       save_instance)
from .milp import (EnumerationCapError, Solution, solve_by_enumeration,
                   solve_milp)
from .model import (Constraint, LinearModel, Variable, check_feasibility,
                    dump_model)
from .regret import (InfeasibleDesignError, InfeasibleScenarioError,
                     compute_baselines, evaluate_design, regret_report,
                     solution_to_json, solve_ccu, solve_ocu)
from .simplex import (LPResult, SimplexError, solve_lp, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "CLAIM_CHECKS", "ClaimReport", "ConfigError", "Constraint",
    "EnumerationCapError", "FormulationError", "GeneratorConfig",
    "InfeasibleDesignError", "InfeasibleScenarioError", "Instance",
    "LPResult", "LinearModel", "ModelOptions", "ParseError",
    "SimplexError", "Solution", "ValidationError",
    "Variable", "build_cc", "build_ccu", "build_nc", "build_ocu",
    "build_scenario_deterministic", "check_cc_nc_consistency",
    "check_eq20_redundancy", "check_feasibility", "check_i_redundancy",
    "check_theorem1", "check_tk_never_one", "compute_baselines",
    "compute_big_m", "dump_model", "evaluate_design", "generate_instance",
    "instance_fingerprint", "load_instance", "origin_supply",
    "regret_report", "save_instance", "solution_to_json",
    "solve_by_enumeration", "solve_ccu", "solve_lp", "solve_milp",
    "solve_ocu", "verify_certificate",
]
