"""Novel-object captioning at desk scale.

A class-independent region selector picks which detected objects a caption
must mention, a memory-augmented transformer generates the caption, and a
grid-structured constrained beam search forces the selected words into the
output while keeping the sequence score differentiable for reward
fine-tuning.
"""

from .numerics import (AdamState, Tensor, adam_step, backward, checkpoint_hash,
                       load_checkpoint, noam_lr, save_checkpoint)
from .selector import (Detection, SelectorConfig, build_ground_truth,
                       extract_features, select_constraints, selector_forward,
                       weighted_bce)
from .captioner import (CaptionerConfig, SceneStepModel, Vocabulary,
                        decode_logits, encode, xent_loss)
from .decoder import (ConstraintSet, Hypothesis, feasible_coverage,
                      run_grid_search, sequence_logprob)
from .metrics import EvalRecord, IdfTable, bleu4, cider_d, eval_report, f1_class
from .data import (DatasetConfig, SceneRecord, apply_heldout,
                   build_vocabulary, default_synonyms, gen_dataset,
                   read_jsonl, write_jsonl)
from .training import (TrainConfig, TrainingDiverged, decode_eval,
                       finetune_scst_dgbs, pretrain_captioner, train_selector)

__version__ = "0.1.0"
