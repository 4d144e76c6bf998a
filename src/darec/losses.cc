#include "darec/losses.h"

#include <algorithm>

#include "tensor/expr.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace darec::model {

namespace ex = tensor::expr;

using tensor::Variable;

// The elementwise/reduction chains below are recorded through tensor/expr
// and evaluated in one shot: with DAREC_FUSION=on each chain collapses into
// one or two fused traversals; with fusion off the recording replays the
// original eager op sequence. Both paths are bitwise identical (see
// DESIGN.md §14). MatMul / clustering stages stay eager — they are not
// elementwise chains — and the sharpened global loss is one dedicated node
// (tensor::SoftmaxStructureDistillation).

Variable OrthogonalityLoss(const Variable& specific, const Variable& shared) {
  // Mean(Square(CosineRowSimilarity(specific, shared))).
  return ex::Eval(ex::Mean(ex::Square(
      ex::RowSum(ex::Mul(ex::RowL2Normalize(ex::In(specific)),
                         ex::RowL2Normalize(ex::In(shared)))))));
}

Variable UniformityLoss(const Variable& specific) {
  const int64_t n = specific.rows();
  DARE_CHECK_GT(n, 1) << "uniformity needs at least two rows";
  Variable normalized = tensor::RowL2Normalize(specific);
  Variable sims = tensor::MatMul(normalized, normalized, false, true);
  // ||x - y||² = 2 - 2 x·y on the unit sphere; the Gaussian-kernel sum
  // Sum(Exp(-2 · (2 - 2·sims))) fuses into a single traversal of `sims`.
  // The n self-pairs (each exp(0) = 1 exactly) are excluded from the mean.
  ex::Expr kernel_sum = ex::Sum(ex::Exp(ex::ScalarMul(
      ex::AddScalar(ex::ScalarMul(ex::In(sims), -2.0f), 2.0f), -2.0f)));
  return ex::Eval(ex::Log(ex::ScalarMul(
      ex::AddScalar(kernel_sum, -static_cast<float>(n)),
      1.0f / static_cast<float>(n * (n - 1)))));
}

Variable GlobalStructureLoss(const Variable& shared_cf, const Variable& shared_llm) {
  DARE_CHECK_EQ(shared_cf.rows(), shared_llm.rows());
  const int64_t n = shared_cf.rows();
  Variable ncf = tensor::RowL2Normalize(shared_cf);
  Variable nllm = tensor::RowL2Normalize(shared_llm);
  Variable sim_cf = tensor::MatMul(ncf, ncf, false, true);
  Variable sim_llm = tensor::MatMul(nllm, nllm, false, true);
  return ex::Eval(ex::ScalarMul(
      ex::SumSquares(ex::Sub(ex::In(sim_cf), ex::In(sim_llm))),
      1.0f / static_cast<float>(n) / static_cast<float>(n)));
}

Variable GlobalStructureLossSoftmax(const Variable& shared_cf,
                                    const Variable& shared_llm, float temperature) {
  DARE_CHECK_EQ(shared_cf.rows(), shared_llm.rows());
  DARE_CHECK_GT(temperature, 0.0f);
  // The LLM side is the detached teacher, so only its normalized values
  // enter; the CF rows keep their RowL2Normalize node for the gradient.
  tensor::ScratchMatrix teacher(tensor::Workspace::Global(),
                                shared_llm.value().size());
  tensor::RowNormalizeInto(shared_llm.value(), teacher.get());
  return tensor::SoftmaxStructureDistillation(tensor::RowL2Normalize(shared_cf),
                                              *teacher, temperature);
}

namespace {

/// Clusters the normalized rows, warm-starting from `prev_centers` when
/// shapes allow; writes the new centers back for the next step.
cluster::KMeansResult ClusterModality(const tensor::Matrix& normalized_points,
                                      const cluster::KMeansOptions& options,
                                      tensor::Matrix* prev_centers,
                                      core::Rng& rng) {
  cluster::KMeansResult result;
  if (prev_centers != nullptr && prev_centers->rows() == options.num_clusters &&
      prev_centers->cols() == normalized_points.cols()) {
    // Move the centers through the clustering and back: the warm-start path
    // runs every align step, and cycling one buffer keeps it allocation-free
    // (downstream only reads result.assignments).
    result = cluster::RunKMeansFrom(normalized_points,
                                    std::move(*prev_centers), options);
  } else {
    result = cluster::RunKMeans(normalized_points, options, rng);
  }
  if (prev_centers != nullptr) *prev_centers = std::move(result.centers);
  return result;
}

}  // namespace

Variable LocalStructureLoss(const Variable& shared_cf, const Variable& shared_llm,
                            int64_t num_clusters, MatchingStrategy strategy,
                            int64_t kmeans_iterations, core::Rng& rng,
                            LocalAlignState* state) {
  DARE_CHECK_EQ(shared_cf.rows(), shared_llm.rows());
  const int64_t k = std::min<int64_t>(num_clusters, shared_cf.rows());
  DARE_CHECK_GT(k, 0);

  // Eq. 6: preference centers via k-means on each modality (assignments
  // are treated as constants; center coordinates stay differentiable).
  // Clustering runs on L2-normalized rows, consistent with the cosine
  // geometry of Eq. 9.
  cluster::KMeansOptions kmeans_options;
  kmeans_options.num_clusters = k;
  kmeans_options.max_iterations = kmeans_iterations;
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix normalized(
      ws, std::max(shared_cf.value().size(), shared_llm.value().size()));
  tensor::RowNormalizeInto(shared_cf.value(), normalized.get());
  cluster::KMeansResult cf_clusters =
      ClusterModality(*normalized, kmeans_options,
                      state != nullptr ? &state->cf_centers : nullptr, rng);
  tensor::RowNormalizeInto(shared_llm.value(), normalized.get());
  cluster::KMeansResult llm_clusters =
      ClusterModality(*normalized, kmeans_options,
                      state != nullptr ? &state->llm_centers : nullptr, rng);

  tensor::Matrix averaging = ws.AcquireFor(k * shared_cf.rows());
  cluster::AssignmentAveragingMatrixInto(cf_clusters.assignments, k, &averaging);
  Variable centers_cf =
      tensor::MatMul(Variable::Constant(std::move(averaging)), shared_cf);
  averaging = ws.AcquireFor(k * shared_llm.rows());
  cluster::AssignmentAveragingMatrixInto(llm_clusters.assignments, k, &averaging);
  Variable centers_llm =
      tensor::MatMul(Variable::Constant(std::move(averaging)), shared_llm);

  // Eq. 7–8: adaptive preference matching on the current center values.
  tensor::ScratchMatrix dist(ws, k * k);
  CenterDistancesInto(centers_cf.value(), centers_llm.value(), dist.get());
  CenterMatching matching = strategy == MatchingStrategy::kGreedy
                                ? GreedyMatchCenters(*dist)
                                : HungarianMatchCenters(*dist);
  Variable matched_cf = tensor::GatherRows(centers_cf, matching.left);
  Variable matched_llm = tensor::GatherRows(centers_llm, matching.right);

  // Eq. 9: cosine similarity between every CF/LLM center pair.
  Variable sims = tensor::MatMul(tensor::RowL2Normalize(matched_cf),
                                 tensor::RowL2Normalize(matched_llm), false, true);

  // Eq. 10: matched (diagonal) centers agree; unmatched pairs pushed apart.
  // The diagonal penalty Mean(Square(diag − 1)) fuses; the off-diagonal term
  // stays eager because `sims` and `diag` both feed two consumers.
  Variable diag = tensor::TakeDiagonal(sims);
  Variable diag_term = ex::Eval(
      ex::Mean(ex::Square(ex::AddScalar(ex::In(diag), -1.0f))));
  if (k == 1) return diag_term;
  Variable off_diag_sq =
      tensor::Sub(tensor::SumSquares(sims), tensor::SumSquares(diag));
  Variable off_term = tensor::ScalarMul(
      off_diag_sq, 1.0f / static_cast<float>(k * k - k));
  return tensor::Add(diag_term, off_term);
}

}  // namespace darec::model
