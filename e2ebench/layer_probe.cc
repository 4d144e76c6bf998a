#include "layer_probe.h"

#include <algorithm>
#include <utility>

#include "cluster/kmeans.h"
#include "core/check.h"
#include "darec/losses.h"
#include "tensor/ops.h"
#include "trace.h"

namespace e2e {

using darec::tensor::Matrix;
using darec::tensor::Variable;
namespace tensor = darec::tensor;
namespace model = darec::model;

LayerProbe::LayerProbe(darec::cf::GraphBackbone* backbone, model::DaRecAligner* aligner,
                       const darec::data::Dataset* dataset,
                       const darec::data::InteractionStore* store,
                       const darec::pipeline::TrainOptions& options)
    : backbone_(backbone), aligner_(aligner), rng_(options.seed * 101 + 3) {
  batches_ = store != nullptr
                 ? std::make_unique<darec::data::BatchIterator>(*store, options.batch_size,
                                                                rng_)
                 : std::make_unique<darec::data::BatchIterator>(*dataset, options.batch_size,
                                                                rng_);
  params_ = backbone_->Params();
  for (const Variable& p : aligner_->Params()) params_.push_back(p);
  for (const Variable& p : params_) param_copies_.push_back(Variable::Parameter(p.value()));
  adam_ = std::make_unique<tensor::Adam>(param_copies_, options.learning_rate);
}

double LayerProbe::Run() {
  Matrix nodes_value;
  double loss_value = 0.0;
  {
    Span step("pipeline.probe_step");
    {
      Span span("data.next_batch");
      if (!batches_->NextBatch(batch_, rng_)) {
        batches_->NewEpoch(rng_);
        DARE_CHECK(batches_->NextBatch(batch_, rng_)) << "empty training split";
      }
    }
    {
      tensor::GraphContext::Scope scope(&context_);
      for (Variable& p : params_) p.ClearGrad();
      Variable nodes;
      {
        Span span("cf.forward");
        nodes = backbone_->Forward(/*training=*/true, rng_);
      }
      nodes_value = nodes.value();  // the backward pass may release it
      Variable loss;
      {
        // BPR plus the L2 term over the batch, as the train step scores it.
        Span span("cf.bpr_loss");
        const darec::graph::BipartiteGraph& graph = backbone_->graph();
        std::vector<int64_t> users, pos, neg;
        for (const darec::data::TrainTriple& t : batch_) {
          users.push_back(graph.UserNode(t.user));
          pos.push_back(graph.ItemNode(t.pos_item));
          neg.push_back(graph.ItemNode(t.neg_item));
        }
        const Variable u = tensor::GatherRows(nodes, users);
        loss = tensor::BprLoss(tensor::RowDot(u, tensor::GatherRows(nodes, pos)),
                               tensor::RowDot(u, tensor::GatherRows(nodes, neg)));
        const float l2 = backbone_->options().l2_reg;
        if (l2 > 0.0f) {
          const Variable e0 = backbone_->initial_embeddings();
          const Variable reg = tensor::L2Penalty({tensor::GatherRows(e0, std::move(users)),
                                                  tensor::GatherRows(e0, std::move(pos)),
                                                  tensor::GatherRows(e0, std::move(neg))});
          loss = tensor::Add(loss,
                             tensor::ScalarMul(reg, l2 / static_cast<float>(batch_.size())));
        }
      }
      {
        Span span("darec.loss");
        std::vector<Matrix> state = aligner_->MutableState();
        loss = tensor::Add(loss, aligner_->LossWithState(nodes, rng_, &state));
      }
      loss_value = loss.scalar();
      {
        Span span("tensor.backward");
        tensor::Backward(loss);
      }
    }
    context_.Reset();
    adam_->ZeroGrad();
    for (size_t i = 0; i < params_.size(); ++i) {
      if (!params_[i].grad().empty()) param_copies_[i].node()->AccumulateGrad(params_[i].grad());
    }
    Span span("tensor.adam_step");
    adam_->Step();
  }
  {
    // In a graph context like the step's, so the n x n intermediates come
    // from the same pooled buffers.
    tensor::GraphContext::Scope scope(&context_);
    ProbeDarecTerms(nodes_value);
  }
  context_.Reset();

  const auto adjacency = backbone_->graph().normalized_adjacency();
  const Matrix& table = backbone_->initial_embeddings().value();
  {
    Span span("tensor.spmm");
    adjacency->MultiplyInto(table, &spmm_out_);
  }
  {
    Span span("tensor.spmm_t");
    adjacency->TransposeMultiplyInto(spmm_out_, &spmm_t_out_);
  }
  return loss_value;
}

void LayerProbe::ProbeDarecTerms(const Matrix& nodes) {
  const model::DaRecOptions& o = aligner_->options();
  const int64_t n = std::min<int64_t>(o.sample_size, nodes.rows());
  const std::vector<int64_t> sample = rng_.SampleWithoutReplacement(nodes.rows(), n);
  // Project copies both full node tables before gathering the sample; the
  // training loss gathers first. The same call on a one-row sample times
  // that copy, so the difference is the projection of the N̂ rows.
  {
    Span span("darec.project_base");
    aligner_->Project(nodes, {sample[0]});
  }
  model::DisentangledViews v;
  {
    Span span("darec.project");
    v = aligner_->Project(nodes, sample);
  }
  {
    Span span("darec.l_or");
    model::OrthogonalityLoss(v.cf_specific, v.cf_shared);
    model::OrthogonalityLoss(v.llm_specific, v.llm_shared);
  }
  const int64_t m = std::min<int64_t>(o.uniformity_sample, n);
  if (m > 1) {
    Span span("darec.l_uni");
    model::UniformityLoss(tensor::SliceRows(v.cf_specific, 0, m));
    model::UniformityLoss(tensor::SliceRows(v.llm_specific, 0, m));
  }
  {
    Span span("darec.l_glo");
    if (o.global_softmax_tau > 0.0f) {
      model::GlobalStructureLossSoftmax(v.cf_shared, v.llm_shared, o.global_softmax_tau);
    } else {
      model::GlobalStructureLoss(v.cf_shared, v.llm_shared);
    }
  }
  std::vector<Matrix> centers = aligner_->MutableState();
  model::LocalAlignState state{centers[0], centers[1]};
  {
    Span span("darec.l_loc");
    model::LocalStructureLoss(v.cf_shared, v.llm_shared, o.num_clusters, o.matching,
                              o.kmeans_iterations, rng_, &state);
  }
  // The clustering inside the local loss, on its own: warm-started Lloyd
  // iterations on each modality's row-normalized shared view.
  const int64_t k = std::min<int64_t>(o.num_clusters, n);
  if (centers[0].rows() != k || centers[1].rows() != k) return;  // no warm start yet
  darec::cluster::KMeansOptions kmeans;
  kmeans.num_clusters = k;
  kmeans.max_iterations = o.kmeans_iterations;
  Matrix cf_points, llm_points;
  tensor::RowNormalizeInto(v.cf_shared.value(), &cf_points);
  tensor::RowNormalizeInto(v.llm_shared.value(), &llm_points);
  Span span("cluster.kmeans");
  darec::cluster::RunKMeansFrom(cf_points, std::move(centers[0]), kmeans);
  darec::cluster::RunKMeansFrom(llm_points, std::move(centers[1]), kmeans);
}

}  // namespace e2e
