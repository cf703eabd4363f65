"""Graded similarity ground truth, contrastive training and retrieval evaluation
for visual place recognition at desk scale."""

from .embed import (
    EmbedModel,
    FeatureMap,
    TrainConfig,
    TrainingDiverged,
    compute_descriptors,
    file_descriptors,
    forward,
    gem_pool,
    init_model,
    load_model,
    read_features,
    save_model,
    train,
    write_features,
)
from .fov2d import (
    CameraPose2D,
    FovParams,
    calibrate_theta,
    fov_overlap,
    fov_overlap_mc,
    reference_pair,
    wrapped_angle_diff,
)
from .gcl import (
    GradResult,
    LossConfig,
    cl_grad_d,
    cl_loss,
    gcl_grad_d,
    gcl_loss,
    pair_grad,
)
from .relabel import (
    PoseTable,
    SimilarityClass,
    class_counts,
    classify,
    fov_distance_profile,
    load_labels,
    load_poses,
    pairwise_similarity,
    save_labels,
    save_poses,
)
from .retrieval import (
    DescriptorSet,
    Ranking,
    RecallResult,
    WhitenTransform,
    apply_whitening,
    fit_pca_whitening,
    localization_accuracy,
    nn_search,
    read_descriptors,
    recall_at_k,
    write_descriptors,
)
from .sampler import (
    Band,
    Batch,
    BatchSampler,
    BatchStrategy,
    EmptyQuotaGroup,
    LabelTable,
    PairIndex,
    SimilarityLabel,
    band_of,
    index_labels,
    strategy_denominator,
)
from .surf3d import (
    Intrinsics,
    PointCloud,
    Pose6DOF,
    PoseTable6DOF,
    UndefinedOverlapError,
    VisibleSet,
    intersection_counts,
    iou_pairs,
    load_intrinsics,
    load_point_cloud,
    load_poses_6dof,
    project_points,
    surface_overlap,
    visible_mask,
)
from .synth import SynthConfig, SynthWorld, generate_world, load_ground_truth, save_ground_truth, write_world

__version__ = "0.1.0"
