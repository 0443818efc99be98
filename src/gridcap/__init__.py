"""Novel-object captioning at desk scale.

A class-independent region selector picks which detected objects a caption
must mention, a memory-augmented transformer generates the caption, and a
grid-structured constrained beam search forces the selected words into the
output while keeping the sequence score differentiable for reward
fine-tuning.
"""

__version__ = "0.1.0"
