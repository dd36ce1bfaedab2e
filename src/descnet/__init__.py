"""Text classification with statistically extracted class descriptor words.

Chi-square / ANOVA F tests rank the most class-informative words, which feed
an attention-weighted descriptor channel alongside a BiGRU text channel. All
tensor gradients come from the in-repo reverse-mode engine.
"""

from .corpus import (
    Document,
    EncodedExamples,
    LabelSpace,
    Vocabulary,
    build_vocabulary,
    encode,
    load_dataset,
    preprocess_text,
)
from .descriptors import (
    ClassDescriptorSet,
    TokenClassStats,
    build_contingency,
    build_descriptor_channel_input,
    extract_descriptors,
    load_descriptors,
    save_descriptors,
)
from .metrics import accuracy, precision_recall_f1, roc_auc, select_threshold
from .model import (
    DualChannelModel,
    ModelConfig,
    encode_examples,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .numerics import Parameter, Tape, Tensor, adam_step, backward, grad_check

__version__ = "0.1.0"
