"""Semantics-preserving transformations (Section 4 and Section 5).

* data-invariant control rewrites —
  :class:`~repro.transform.control.ParallelizeStates`,
  :class:`~repro.transform.control.SerializeStates`,
  :class:`~repro.transform.control.RestructureBlock`;
* control-invariant data-path rewrites —
  :class:`~repro.transform.datapath_tf.VertexMerger`,
  :class:`~repro.transform.datapath_tf.VertexSplitter`;
* the framework — :class:`~repro.transform.base.Transformation`,
  :func:`~repro.transform.base.apply_sequence`,
  :class:`~repro.transform.base.TransformLog`;
* behavioural verification — :mod:`~repro.transform.verify`.
"""

from .base import (
    AppliedTransform,
    Legality,
    Transformation,
    TransformLog,
    apply_sequence,
)
from .control import ParallelizeStates, RestructureBlock, SerializeStates
from .datapath_tf import VertexMerger, VertexSplitter
from .extended import (
    EliminateDeadVertices,
    MergeStates,
    SplitState,
    removed_area,
)
from .register_sharing import (
    RegisterMerger,
    RegisterSharingReport,
    live_places,
    registers_interfere,
    share_registers,
)
from .verify import (
    BehaviouralReport,
    behaviourally_equivalent,
)

__all__ = [
    "Transformation",
    "Legality",
    "TransformLog",
    "AppliedTransform",
    "apply_sequence",
    "ParallelizeStates",
    "SerializeStates",
    "RestructureBlock",
    "VertexMerger",
    "VertexSplitter",
    "MergeStates",
    "SplitState",
    "EliminateDeadVertices",
    "removed_area",
    "RegisterMerger",
    "RegisterSharingReport",
    "share_registers",
    "registers_interfere",
    "live_places",
    "BehaviouralReport",
    "behaviourally_equivalent",
]
