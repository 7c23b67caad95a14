"""Contrastive-method implementations (trained through :mod:`repro.run`)."""

from .base import GraphContrastiveMethod, NodeContrastiveMethod
from .graphcl import GraphCL, default_augmentation
from .rgcl import RGCL
from .joao import JOAO
from .simgrace import SimGRACE
from .infograph import InfoGraph
from .mvgrl import MVGRL, MVGRLNode
from .grace import GCA, GRACE
from .dgi import DGI
from .bgrl import BGRL, SGCL, BootstrapObjective
from .costa import COSTA
from .graphmae import GraphMAE
from .transfer import TransferResult, finetune_roc_auc, run_transfer
from .pretrain_baselines import AttrMasking, ContextPred

__all__ = [
    "GraphContrastiveMethod", "NodeContrastiveMethod",
    "GraphCL", "default_augmentation", "RGCL", "JOAO", "SimGRACE",
    "InfoGraph",
    "MVGRL", "MVGRLNode", "GRACE", "GCA", "DGI", "BGRL", "SGCL",
    "BootstrapObjective", "COSTA", "GraphMAE",
    "finetune_roc_auc", "run_transfer", "TransferResult",
    "AttrMasking", "ContextPred",
]
