#include "pipeline/experiment.h"

#include "align/controlrec.h"
#include "align/ctrl.h"
#include "cf/registry.h"
#include "data/presets.h"

namespace darec::pipeline {

std::vector<std::string> VariantNames() {
  // The paper's Table III/IV comparison set.
  return {"baseline", "rlmrec-con", "rlmrec-gen", "kar", "darec"};
}

std::vector<std::string> ExtendedVariantNames() {
  std::vector<std::string> names = VariantNames();
  names.push_back("controlrec");
  names.push_back("ctrl");
  return names;
}

core::StatusOr<std::unique_ptr<Experiment>> Experiment::Create(
    const ExperimentSpec& spec) {
  auto experiment = std::unique_ptr<Experiment>(new Experiment());
  experiment->spec_ = spec;

  DARE_ASSIGN_OR_RETURN(data::DatasetPreset preset, data::GetPreset(spec.dataset));
  DARE_ASSIGN_OR_RETURN(data::Dataset dataset,
                        data::MakeSyntheticDataset(preset.name, preset.options));
  experiment->dataset_ = std::make_unique<data::Dataset>(std::move(dataset));
  experiment->graph_ =
      std::make_unique<graph::BipartiteGraph>(*experiment->dataset_);

  // The frozen LLM side: regenerate the same latent world (deterministic in
  // the preset seed) and run the simulated embedding service over it.
  data::LatentWorld world = data::GenerateLatentWorld(preset.options);
  llm::SimulatedLlmEncoder encoder(world, spec.llm_options);
  experiment->llm_embeddings_ = encoder.EncodeAll();

  DARE_ASSIGN_OR_RETURN(
      experiment->backbone_,
      cf::CreateBackbone(spec.backbone, experiment->graph_.get(),
                         spec.backbone_options));

  const int64_t cf_dim = spec.backbone_options.embedding_dim;
  if (spec.variant == "baseline") {
    experiment->aligner_ = nullptr;
  } else if (spec.variant == "rlmrec-con") {
    experiment->aligner_ = std::make_unique<align::RlmrecCon>(
        experiment->llm_embeddings_, cf_dim, spec.rlmrec_options);
  } else if (spec.variant == "rlmrec-gen") {
    experiment->aligner_ = std::make_unique<align::RlmrecGen>(
        experiment->llm_embeddings_, cf_dim, spec.rlmrec_options);
  } else if (spec.variant == "controlrec") {
    experiment->aligner_ = std::make_unique<align::ControlRec>(
        experiment->llm_embeddings_, cf_dim, spec.rlmrec_options);
  } else if (spec.variant == "ctrl") {
    experiment->aligner_ = std::make_unique<align::Ctrl>(
        experiment->llm_embeddings_, cf_dim, spec.rlmrec_options);
  } else if (spec.variant == "kar") {
    experiment->aligner_ = std::make_unique<align::Kar>(
        experiment->llm_embeddings_, cf_dim, spec.kar_options);
  } else if (spec.variant == "darec") {
    auto darec = std::make_unique<model::DaRecAligner>(
        experiment->llm_embeddings_, cf_dim, spec.darec_options);
    experiment->darec_ = darec.get();
    experiment->aligner_ = std::move(darec);
  } else {
    return core::Status::NotFound("unknown variant: " + spec.variant);
  }

  // Backbones that cache per-step state in Forward/SslLoss cannot run
  // concurrent worker slots; refuse here rather than deep in the executor.
  if (spec.train_options.workers > 1 &&
      !experiment->backbone_->SupportsConcurrentForward()) {
    return core::Status::InvalidArgument(
        experiment->backbone_->name() +
        " caches per-step state in Forward/SslLoss and cannot run "
        "data-parallel workers; use workers=1");
  }

  experiment->trainer_ = std::make_unique<Trainer>(
      experiment->backbone_.get(), experiment->aligner_.get(),
      experiment->dataset_.get(), spec.train_options);
  return experiment;
}

core::StatusOr<TrainResult> RunExperiment(const ExperimentSpec& spec) {
  DARE_ASSIGN_OR_RETURN(std::unique_ptr<Experiment> experiment,
                        Experiment::Create(spec));
  return experiment->Run();
}

}  // namespace darec::pipeline
