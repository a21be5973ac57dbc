"""Desk-scale laboratory for masked-diffusion decoding.

Small exact joints stand in for the data distribution, an exact denoiser and
a tiny trainable transformer stand in for the model, and every unmasking
policy (top-k, confidence threshold, KL-stability, entropy-bounded, and
attention/dependency ranking) is measured by the total variation distance
between the sequence distribution it induces and the target joint.
"""

from .core import (
    DenoiserOutput,
    SequenceState,
    Vocabulary,
    alpha,
    forward_mask,
    reverse_unmask_prob,
    token_rows,
)
from .oracle import (
    FactorizedDAG,
    GroupSchedule,
    OracleDenoiser,
    TabularJoint,
    ZeroSupportError,
    EnumerationLimitError,
    JointFormatError,
    conditional_marginal,
    exact_policy_distribution,
    joint_prob,
    load_joint_model,
    model_distribution,
    oracle_dependency,
    sample_joint,
    sample_joints,
    save_joint_model,
)
from .scoring import confidence, dos_dependency, entropy, kl_divergence, margin
from .decoding import (
    DecodeTrace,
    PolicyConfig,
    commit_token,
    decode_blockwise,
    enumerate_decodes,
    select_eb,
    select_klass,
    select_threshold,
    select_topk,
)
from .nn import (
    Params,
    TransformerConfig,
    TransformerDenoiser,
    forward,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .harness import (
    ExperimentConfig,
    MetricRow,
    empirical_distribution,
    exact_induced_distribution,
    run_experiment,
    sweep,
    tv_distance,
)

__version__ = "0.1.0"
