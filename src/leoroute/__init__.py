"""leoroute: event-driven LEO constellation packet-routing simulator with
risk-constrained multi-agent reinforcement learning."""

from .constellation import (
    Constellation,
    GroundStation,
    NodeId,
    Position3D,
    WalkerConfig,
    access_satellite,
    build_walker,
    elevation_angle,
    great_circle_distance,
    grid_neighbors,
    propagate,
)
from .env import Featurizer, ObsRouter, RewardConfig, TransitionCollector
from .harness import EvalResult, TrainResult, compare, run_eval, run_train
from .learner import (
    LagrangeState,
    LearnerConfig,
    MadqnLearner,
    PrimalLearner,
    ReplayBuffer,
)
from .linkmodel import GslParams, IslParams, RateModel
from .metrics import MetricsReport, empirical_cvar
from .netsim import Packet, SimConfig, Simulator, TrafficConfig, run_epoch
from .routing import RandomRouter, SpfRouter, spf_tables
from .scenario import (
    Scenario,
    desk_scenario,
    load_scenario,
    paper_scale_scenario,
    save_scenario,
    scenario_hash,
)

__version__ = "0.1.0"
