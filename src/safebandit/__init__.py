"""Contextual-bandit simulations with offline regression oracles and a
misspecification-safe fallback policy."""

from .algorithms import (
    AlgorithmConfig,
    action_probs,
    avg_epoch_check,
    check_is_safe,
    choose_safe,
    gamma_m,
    l_prime,
    lower_bound_L,
    run_falcon_plus,
    run_safe_falcon,
    safety_check_times,
    thresholds,
)
from .core import (
    ConstantModel,
    EpochSchedule,
    LinearPerArmModel,
    OutcomeModel,
    RunTrace,
    TabularModel,
    zero_model,
)
from .environments import (
    BanditEnvironment,
    IntroExampleEnv,
    LowerBoundEnv,
    RealizableLinearEnv,
    TabularEnv,
    realizable_linear_env,
)
from .oracle import (
    CommonRate,
    Dataset,
    EstimationRate,
    LinearChiSquaredRate,
    LinearPerArmOracle,
    RegressionOracle,
    validate_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
