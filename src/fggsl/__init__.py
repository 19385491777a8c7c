"""Frequency-guided graph structure learning.

Jointly learns homophilic and heterophilic edge masks over a candidate
graph together with a low-/high-pass spectral filter-bank classifier,
trained end to end with cross-entropy plus label-similarity structural
losses.  Built on an in-package reverse-mode autodiff engine over dense
float64 tensors.

``FGGSL_THREADS`` caps the BLAS threads.  BLAS reads its thread count
when numpy loads, so the cap is applied here, before any submodule
imports numpy; an explicit ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
or ``MKL_NUM_THREADS`` wins over it.
"""

import os

if os.environ.get("FGGSL_THREADS"):
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FGGSL_THREADS"])

from .analysis import (learned_edge_audit, prop1_check, similarity_histogram,
                       spectral_response_export, stability_probe, stability_table)
from .autodiff import ParameterSet, Tensor, backward, grad_check, no_grad
from .datasets import (CandidateGraph, DatasetBundle, candidate_graph,
                       gen_synthetic, load_dataset_dir, load_edge_list, load_raw,
                       load_splits, row_normalize)
from .graphs import (EdgeList, LabeledGraph, SpectralDecomposition, normalized_laplacian,
                     operator_distance, symmetric_eig)
from .model import (FgGSLModel, FilterBankSpec, embedding, filter_bank_apply,
                    forward, kernel_value, load_checkpoint, mask_matrix,
                    save_checkpoint, structural_loss_ho, structural_loss_ht,
                    total_loss)
from .training import (Adam, MlpModel, RunResult, TrainConfig, evaluate,
                       run_ablation, run_protocol, train_single_split)

__version__ = "0.1.0"

__all__ = [
    "Adam", "CandidateGraph", "DatasetBundle", "EdgeList", "FgGSLModel", "FilterBankSpec",
    "LabeledGraph", "MlpModel", "ParameterSet", "RunResult",
    "SpectralDecomposition", "Tensor", "TrainConfig", "backward",
    "candidate_graph", "embedding", "evaluate", "filter_bank_apply", "forward",
    "gen_synthetic", "grad_check", "kernel_value",
    "learned_edge_audit", "load_checkpoint", "load_dataset_dir", "load_edge_list", "load_raw",
    "load_splits", "mask_matrix", "no_grad", "normalized_laplacian",
    "operator_distance", "prop1_check", "row_normalize", "run_ablation",
    "run_protocol", "save_checkpoint", "similarity_histogram",
    "spectral_response_export", "stability_probe", "stability_table",
    "structural_loss_ho", "structural_loss_ht", "symmetric_eig", "total_loss",
    "train_single_split",
]
