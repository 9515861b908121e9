#include "bench_util/tasks.h"

#include "common/check.h"
#include "common/env.h"

namespace privbayes {

namespace {

std::vector<LabelSpec> LabelsFor(const std::string& name,
                                 const Schema& schema) {
  std::vector<LabelSpec> labels;
  auto add = [&](const std::string& label_name, int attr,
                 std::vector<Value> positives) {
    labels.push_back(LabelSpec{label_name, attr, std::move(positives)});
  };
  if (name == "NLTCS") {
    add("outside", 0, {1});
    add("money", 1, {1});
    add("bathing", 2, {1});
    add("traveling", 3, {1});
  } else if (name == "ACS") {
    add("dwelling", 0, {1});
    add("mortgage", 1, {1});
    add("multigen", 2, {1});
    add("school", 3, {1});
  } else if (name == "Adult") {
    add("gender", schema.FindAttr("sex"), {1});
    add("salary", schema.FindAttr("salary"), {1});
    // Post-secondary degree: education levels 12..15.
    add("education", schema.FindAttr("education"), {12, 13, 14, 15});
    // Never married: marital value 4.
    add("marital", schema.FindAttr("marital"), {4});
  } else if (name == "BR2000") {
    add("religion", schema.FindAttr("religion"), {0});  // Catholic
    add("car", schema.FindAttr("car"), {1});
    // At least one child: children bins 1..7.
    add("child", schema.FindAttr("children"), {1, 2, 3, 4, 5, 6, 7});
    // Older than 20: 5-year age bins 4..15.
    {
      std::vector<Value> bins;
      for (Value b = 4; b < 16; ++b) bins.push_back(b);
      add("age", schema.FindAttr("age"), std::move(bins));
    }
  } else {
    PB_THROW_IF(true, "unknown dataset '" << name << "'");
  }
  for (const LabelSpec& l : labels) {
    PB_CHECK_MSG(l.attr >= 0, "label attribute missing for " << l.name);
  }
  return labels;
}

}  // namespace

DatasetBundle LoadBundle(const std::string& name, uint64_t seed) {
  DatasetBundle bundle;
  bundle.name = name;
  bundle.data = MakeDatasetByName(name, seed);
  Rng split_rng(DeriveSeed(seed, 0x5917));
  auto [train, test] = bundle.data.Split(0.8, split_rng);
  bundle.train = std::move(train);
  bundle.test = std::move(test);
  bundle.labels = LabelsFor(name, bundle.data.schema());
  return bundle;
}

std::vector<int> CountAlphasFor(const std::string& dataset_name) {
  if (dataset_name == "NLTCS" || dataset_name == "ACS") return {3, 4};
  return {2, 3};
}

MarginalWorkload MakeEvalWorkload(const Schema& schema,
                                  const std::string& dataset_name, int alpha,
                                  size_t max_queries, size_t* full_size) {
  MarginalWorkload w = MarginalWorkload::AllAlphaWay(schema, alpha);
  if (full_size != nullptr) *full_size = w.size();
  if (!FullFidelity() && max_queries > 0) {
    // Fixed seed per (dataset, alpha): all methods share the subsample.
    uint64_t seed = DeriveSeed(0x9a26, dataset_name.size() * 131 +
                                           static_cast<uint64_t>(alpha));
    for (char c : dataset_name) seed = DeriveSeed(seed, static_cast<uint8_t>(c));
    Rng rng(seed);
    w.SubsampleTo(max_queries, rng);
  }
  return w;
}

PrivBayesOptions BenchPrivBayesOptions(double epsilon) {
  PrivBayesOptions opts;
  opts.epsilon = epsilon;
  opts.candidate_cap =
      FullFidelity() ? 0 : static_cast<size_t>(EnvInt("PRIVBAYES_CAP", 200));
  return opts;
}

Dataset RunPrivBayes(const Dataset& input, const PrivBayesOptions& options,
                     uint64_t seed) {
  PrivBayes pb(options);
  Rng rng(seed);
  return pb.Run(input, rng);
}

double CountError(const Dataset& real, const MarginalWorkload& workload,
                  const Dataset& synthetic) {
  return AverageMarginalTvd(real, workload, synthetic);
}

double SvmError(const Dataset& train_like, const Dataset& test,
                const LabelSpec& label, uint64_t seed) {
  Rng rng(seed);
  PegasosOptions opts;
  SvmModel model = TrainHingeSvm(train_like, label, opts, rng);
  return MisclassificationRate(test, label, model);
}

}  // namespace privbayes
