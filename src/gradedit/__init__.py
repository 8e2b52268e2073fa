"""Learned gradient-transform editors for one-shot edits to MLP classifiers."""

from .bench import (
    EditRecord,
    World,
    WorldConfig,
    generate_world,
    interleave_by_fact,
    load_dataset,
    save_dataset,
)
from .editor import (
    EditorParams,
    Normalizer,
    VariantConfig,
    apply_edit,
    fit_normalizer,
    init_editor,
    load_editor,
    save_editor,
)
from .evaluation import (
    EditReport,
    FtEditor,
    FtKlEditor,
    LearnedEditor,
    drawdown,
    edit_success,
    evaluate_editor,
    run_ablations,
)
from .mlp import (
    Mlp,
    backward_nll,
    clone_with_weights,
    forward,
    init_mlp,
    load_model,
    save_model,
)
from .training import (
    StepLosses,
    TrainConfig,
    finetune_edit,
    finetune_kl_edit,
    pretrain_model,
    train_editor,
)

__version__ = "0.1.0"
