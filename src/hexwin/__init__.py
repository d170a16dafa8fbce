"""Hexagonal shifted-window attention over spot arrays.

Geometry (lattice scaling, cube rounding), shifted hexagonal window
partitions with slot packing, rotary positional encoding on cube axes,
a staged masked-attention network with hand-derived gradients, the
four-term training objective, evaluation metrics, and a synthetic data
generator for desk-scale verification.
"""

from .errors import (CoverageError, DegenerateInputError, InputError,
                     NumericError, ShapeError, SlotCollisionError)
from .hexgeom import (LatticeScale, axial_to_cartesian,
                      cartesian_to_axial_frac, cells_for_points, cube_round,
                      estimate_scale, hex_distance)
from .losses import LossReport, LossWeights, loss_total
from .metrics import EvalReport, evaluate, mann_whitney_auc, pcc_spotwise
from .model import (ForwardOutput, Geometry, ModelConfig, backward,
                    build_geometry, forward, init_params, load_checkpoint,
                    save_checkpoint)
from .numerics import finite_diff_grad, gelu, masked_softmax
from .rope import apply_hex_rope, apply_rope_2d, axial_to_cube, rope_angles
from .synth import (SpotDataset, SynthConfig, generate, load_dataset,
                    mock_transcriptomic, save_dataset)
from .trainer import TrainConfig, TrainResult, grad_check, train
from .windowing import (WindowPartition, build_slot_set, check_partition,
                        neighbor_coverage_rate, partition, partition_square,
                        shift_schedule)

__version__ = "0.1.0"
