"""nearline: nearest-line subspace learning with a repeated-split evaluation
harness and PCA/LPP baselines."""

from nearline.baselines import BaselineConfig, train_lpp, train_pca
from nearline.data import (
    DataFormatError,
    Dataset,
    SplitSpec,
    load_csv,
    load_pgm_dir,
    random_split,
    save_csv,
    split_indices,
)
from nearline.evaluate import (
    EvalReport,
    ExperimentError,
    classify_1nn,
    classify_nearest_line,
    fit_method,
    run_experiment,
    run_experiments,
)
from nearline.geometry import (
    DegenerateLineError,
    is_degenerate_line,
    line_alpha,
    line_residual,
    point_line_sqdist,
)
from nearline.model_io import load_model, save_model, save_report
from nearline.nlp import (
    NeighborLineIndex,
    TrainConfig,
    TrainedModel,
    assemble_scatter,
    build_neighbor_lines,
    eigen_step,
    objective,
    project,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "DataFormatError",
    "Dataset",
    "DegenerateLineError",
    "EvalReport",
    "ExperimentError",
    "NeighborLineIndex",
    "SplitSpec",
    "TrainConfig",
    "TrainedModel",
    "assemble_scatter",
    "build_neighbor_lines",
    "classify_1nn",
    "classify_nearest_line",
    "eigen_step",
    "fit_method",
    "is_degenerate_line",
    "line_alpha",
    "line_residual",
    "load_csv",
    "load_model",
    "load_pgm_dir",
    "objective",
    "point_line_sqdist",
    "project",
    "random_split",
    "run_experiment",
    "run_experiments",
    "save_csv",
    "save_model",
    "save_report",
    "split_indices",
    "train",
    "train_lpp",
    "train_pca",
]
