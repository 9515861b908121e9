// Regenerates paper Fig. 4: quality of the learned network (Σ mutual
// information evaluated on the true data) for score functions I, F, R and
// the non-private greedy ("NoPrivacy"), versus ε, on all four datasets.
//
// Expected shape: F and R dominate I (widest gap at small ε); F ≈ R at large
// ε on binary data with F ahead at small ε; all approach NoPrivacy as ε
// grows; on Adult/BR2000 (vanilla encoding) only I and R apply.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/report.h"
#include "bench_util/tasks.h"
#include "common/env.h"
#include "core/private_greedy.h"
#include "data/encoding.h"

namespace pb = privbayes;

namespace {

double RunOnce(const pb::Dataset& data, bool binary_alg, pb::ScoreKind score,
               bool noiseless, double epsilon, uint64_t seed) {
  pb::PrivateGreedyOptions opts;
  opts.score = score;
  opts.epsilon1 = noiseless ? 0.0 : 0.3 * epsilon;
  opts.epsilon2_plan = 0.7 * epsilon;
  opts.theta = 4.0;
  opts.candidate_cap = pb::FullFidelity()
                           ? 0
                           : static_cast<size_t>(pb::EnvInt("PRIVBAYES_CAP", 200));
  pb::Rng rng(seed);
  pb::LearnedNetwork learned =
      binary_alg ? pb::LearnNetworkBinary(data, opts, rng, nullptr)
                 : pb::LearnNetworkGeneral(data, opts, rng, nullptr);
  return pb::SumMutualInformation(data, learned.net);
}

}  // namespace

int main() {
  int repeats = pb::BenchRepeats(1);
  pb::PrintBenchHeader("Fig. 4",
                       "Score functions I/F/R vs NoPrivacy: sum of mutual "
                       "information of the learned network vs ε (θ = 4)",
                       repeats);
  std::vector<double> eps = pb::EpsilonGrid();

  for (const char* name : {"NLTCS", "ACS", "Adult", "BR2000"}) {
    pb::DatasetBundle bundle = pb::LoadBundle(name, pb::BenchSeed());
    bool binary = bundle.data.schema().AllBinary();
    // §6.2: the vanilla encoding is applied on Adult/BR2000 for this figure.
    pb::Dataset data = binary
                           ? bundle.data
                           : pb::ApplyEncoding(bundle.data,
                                               pb::EncodingKind::kVanilla)
                                 .data;
    std::vector<std::string> methods;
    std::vector<pb::ScoreKind> scores;
    methods.push_back("NoPrivacy");
    scores.push_back(pb::ScoreKind::kI);  // noiseless greedy
    methods.push_back("I");
    scores.push_back(pb::ScoreKind::kI);
    if (binary) {
      methods.push_back("F");
      scores.push_back(pb::ScoreKind::kF);
    }
    methods.push_back("R");
    scores.push_back(pb::ScoreKind::kR);

    pb::SeriesTable table("epsilon", eps, methods);
    for (size_t ei = 0; ei < eps.size(); ++ei) {
      for (size_t mi = 0; mi < methods.size(); ++mi) {
        bool noiseless = (methods[mi] == "NoPrivacy");
        for (int rep = 0; rep < repeats; ++rep) {
          uint64_t seed = pb::DeriveSeed(
              pb::BenchSeed(), 40000 + ei * 997 + mi * 31 + rep);
          table.Add(ei, mi,
                    RunOnce(data, binary, scores[mi], noiseless, eps[ei],
                            seed));
        }
      }
    }
    table.Print(std::string("Fig4 ") + name, "sum of mutual information");
  }
  return 0;
}
