"""Workload generation: dense vectors, sparse vectors, and synthetic
ResNet-50 gradients with bucket sparsification (the Fig. 15 workload).
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "RESNET50_LAYER_SHAPES": "repro.data.resnet50",
    "resnet50_parameter_count": "repro.data.resnet50",
    "synthetic_gradients": "repro.data.resnet50",
    "GradientWorkload": "repro.data.resnet50",
    "bucket_top1_sparsify": "repro.data.buckets",
    "bucket_union_counts": "repro.data.buckets",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
