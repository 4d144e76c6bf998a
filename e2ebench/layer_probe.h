#ifndef E2EBENCH_LAYER_PROBE_H_
#define E2EBENCH_LAYER_PROBE_H_

// Per-layer timing of a training step without instrumenting the library or
// copying the train loop: between the trainer's epochs, the benchmark calls
// the public entry points of each layer on the trainer's own model objects
// (backbone, aligner, graph) and times each call in a span. The trainer's
// epochs themselves run untouched.

#include <cstdint>
#include <memory>
#include <vector>

#include "cf/backbone.h"
#include "core/rng.h"
#include "darec/darec.h"
#include "data/dataset.h"
#include "data/interactions.h"
#include "data/sampler.h"
#include "pipeline/train_loop.h"
#include "tensor/autograd.h"
#include "tensor/matrix.h"
#include "tensor/optim.h"

namespace e2e {

class LayerProbe {
 public:
  /// `store` may be null (resident dataset). The probe reads batches
  /// through its own iterator, so `store` must not be the trainer's reader.
  /// Every pointer must outlive the probe.
  LayerProbe(darec::cf::GraphBackbone* backbone, darec::model::DaRecAligner* aligner,
             const darec::data::Dataset* dataset,
             const darec::data::InteractionStore* store,
             const darec::pipeline::TrainOptions& options);

  /// One probe, in spans:
  ///  - "pipeline.probe_step": a training step's work on the probe's next
  ///    batch, with children "data.next_batch", "cf.forward" (the backbone's
  ///    Forward), "cf.bpr_loss", "darec.loss" (the aligner's own loss),
  ///    "tensor.backward" and "tensor.adam_step". The backward pass writes
  ///    the real parameters' gradients, which the trainer clears at the
  ///    start of its next step; Adam steps a copy of the parameters, so the
  ///    model is not changed.
  ///  - on the same propagated nodes, without gradients: "darec.project"
  ///    (DaRecAligner::Project on an N̂ sample) and "darec.project_base"
  ///    (the same on one row: the call's fixed cost), one span per loss term
  ///    ("darec.l_or", "darec.l_uni", "darec.l_glo", "darec.l_loc") and
  ///    "cluster.kmeans" (RunKMeansFrom warm-started from the aligner's
  ///    current centers, as the local loss does);
  ///  - "tensor.spmm" and "tensor.spmm_t": one forward and one transposed
  ///    product of the normalized adjacency with the embedding table.
  /// Returns the step's loss.
  double Run();

 private:
  void ProbeDarecTerms(const darec::tensor::Matrix& nodes);

  darec::cf::GraphBackbone* backbone_;
  darec::model::DaRecAligner* aligner_;
  darec::core::Rng rng_;
  std::unique_ptr<darec::data::BatchIterator> batches_;
  std::vector<darec::data::TrainTriple> batch_;
  darec::tensor::GraphContext context_;
  std::vector<darec::tensor::Variable> params_;
  std::vector<darec::tensor::Variable> param_copies_;
  std::unique_ptr<darec::tensor::Adam> adam_;
  darec::tensor::Matrix spmm_out_, spmm_t_out_;
};

}  // namespace e2e

#endif  // E2EBENCH_LAYER_PROBE_H_
