"""NumPy reverse-mode autograd, MLP layers, optimizers and serialization —
the substrate replacing the paper's PyTorch dependency.
"""

from .checkpoint import load_algorithm, load_model, save_algorithm, save_model
from .functional import (
    entropy_from_logits,
    fused_a2c_grad,
    fused_ddpg_grad,
    fused_huber_loss,
    fused_mse_loss,
    fused_ppo_grad,
    fused_qnet_grad,
    huber_loss,
    mlp_backward,
    mlp_forward,
    mse_loss,
    nll_from_logits,
    td_targets,
)
from .layers import Activation, Linear, Module, Parameter, Sequential, mlp
from .optim import SGD, Adam, Optimizer, RMSProp
from .serialize import (
    flatten_grads,
    flatten_grads_into,
    flatten_params,
    load_flat_grads,
    load_flat_params,
    model_wire_bytes,
    param_vector_size,
)
from .tensor import Tensor, concat, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "concat",
    "no_grad",
    "is_grad_enabled",
    "Parameter",
    "Module",
    "Linear",
    "Activation",
    "Sequential",
    "mlp",
    "Optimizer",
    "SGD",
    "Adam",
    "RMSProp",
    "mse_loss",
    "huber_loss",
    "fused_mse_loss",
    "fused_huber_loss",
    "mlp_forward",
    "mlp_backward",
    "fused_qnet_grad",
    "fused_a2c_grad",
    "fused_ppo_grad",
    "fused_ddpg_grad",
    "td_targets",
    "nll_from_logits",
    "entropy_from_logits",
    "flatten_params",
    "load_flat_params",
    "flatten_grads",
    "flatten_grads_into",
    "load_flat_grads",
    "param_vector_size",
    "model_wire_bytes",
    "save_model",
    "load_model",
    "save_algorithm",
    "load_algorithm",
]
