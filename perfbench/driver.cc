// Fit-and-serve benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <path>]
//
// Workloads (see README.md for why each was chosen):
//   binary-fit   NLTCS, score F, eps 0.4: cold fits (MarginalStore cleared)
//   serve-bulk   Adult model over loopback: in-process, SAMPLEB and SAMPLE
//                (CSV) batches of the same size, plus one pass of 2-way
//                QUERY requests
//
// Every workload repeats a fixed cycle of user operations; the number of
// cycles follows from --seconds alone. The input population and the served
// model are fixed. binary-fit runs one fixed pool of fit seeds, in an order
// drawn from --seed: a single fit's cost depends on its seed, so a list of
// seed-drawn fits would measure the seeds, not the build. --seed also draws the sampling seeds behind tvd_2way, every
// request seed and the order of the QUERY pairs. Two builds given the same
// arguments do identical work. All requests come closed-loop from one client
// connection.
//
// --trace 0 prints the end-to-end metrics; --trace 1 wraps each call into
// the library in a span, writes the spans to one JSON file at exit and
// prints the per-layer metrics. Every run checks its outputs; a failed check
// makes the run exit 1, while an operation that throws counts as failed and
// lowers success_ratio. The last stdout line is the result object.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bn/sampling.h"
#include "common/cpu.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/noisy_conditionals.h"
#include "core/privbayes.h"
#include "core/private_greedy.h"
#include "core/score_functions.h"
#include "core/theta_usefulness.h"
#include "data/encoding.h"
#include "data/generators.h"
#include "data/marginal_store.h"
#include "dp/budget.h"
#include "query/marginal_workload.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "spans.h"

namespace pb = privbayes;
using perfbench::NowSeconds;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------ thread budget --
// The library runs on one pool thread everywhere. With a pool helper, a
// neighbour taking a core moved the median fit by 10-15% between runs of
// identical work, and sampling gains nothing from more threads. The serve
// workloads add one event loop, one batch worker and one client: at most 3
// runnable threads.
constexpr int kPoolThreads = 1;
constexpr int kEventLoops = 1;
constexpr int kBatchWorkers = 1;
constexpr int kParallelBatches = 1;
constexpr int kClients = 1;

// Set-ups per timed set-up point. A point reports their mean, so it spans
// a few hundred ms of the host's speed instead of one phase of it: single
// set-ups of one run ranged from 10 to 17 ms, and the run's median followed
// the mix.
constexpr int kBinarySetupRepeats = 40;  // ~15 ms each
constexpr int kServeSetupRepeats = 3;    // ~60 ms each

// Workload parameters.
constexpr double kBinaryEpsilon = 0.4;
constexpr double kServedEpsilon = 0.8;
constexpr int64_t kBulkRows = int64_t{1} << 19;
const char* const kModelName = "adult";
constexpr uint64_t kDataSeed = 2014;
constexpr uint64_t kModelSeed = 42;    // the served model's fit seed
constexpr uint64_t kFitPoolSeed = 7;   // binary-fit's seed pool

// Cycles per second of --seconds, from the seed build on a 4-vCPU host.
// They fix the amount of work; they are not re-derived from the clock.
constexpr double kBinaryCyclesPerSecond = 0.2;
constexpr double kServeCyclesPerSecond = 0.8;

int UsableCpus() {
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? CPU_COUNT(&set)
                     : static_cast<int>(online);
  return static_cast<int>(std::min<long>(online, affinity));
}

// ------------------------------------------------------------- host record --
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  for (int i = 0; i < 10; ++i) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ----------------------------------------------------------------- helpers --
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

bool SameRows(const pb::Dataset& a, const pb::Dataset& b, int64_t rows) {
  if (a.num_attrs() != b.num_attrs() || a.num_rows() < rows ||
      b.num_rows() < rows) {
    return false;
  }
  for (int c = 0; c < a.num_attrs(); ++c) {
    if (!std::equal(a.column(c).begin(), a.column(c).begin() + rows,
                    b.column(c).begin())) {
      return false;
    }
  }
  return true;
}

bool SameTable(const pb::ProbTable& a, const pb::ProbTable& b) {
  return a.vars() == b.vars() && a.cards() == b.cards() &&
         a.values() == b.values();
}

bool SameModel(const pb::PrivBayesModel& a, const pb::PrivBayesModel& b) {
  if (!(a.network.pairs() == b.network.pairs()) ||
      a.degree_k != b.degree_k || a.epsilon1 != b.epsilon1 ||
      a.epsilon2 != b.epsilon2 ||
      a.used_binary_algorithm != b.used_binary_algorithm ||
      a.encoded_schema.num_attrs() != b.encoded_schema.num_attrs() ||
      a.conditionals.conditionals.size() != b.conditionals.conditionals.size()) {
    return false;
  }
  for (size_t i = 0; i < a.conditionals.conditionals.size(); ++i) {
    if (!SameTable(a.conditionals.conditionals[i],
                   b.conditionals.conditionals[i])) {
      return false;
    }
  }
  return true;
}

double Tvd2Way(const pb::Dataset& real, const pb::Dataset& synthetic) {
  return pb::AverageMarginalTvd(
      real, pb::MarginalWorkload::AllAlphaWay(real.schema(), 2), synthetic);
}

// Prometheus text -> {"name{labels}": value}.
std::map<std::string, double> ParseProm(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& key) {
  auto a = after.find(key);
  if (a == after.end()) return 0;
  auto b = before.find(key);
  return a->second - (b == before.end() ? 0 : b->second);
}

// ------------------------------------------------------------------- run ----
struct Run {
  uint64_t seed = 0;
  double seconds = 0;
  Tracer tracer{false};

  bool correct = true;
  std::map<std::string, int> problems;  // failed check or operation -> times
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::vector<double> setup_s;
  std::vector<double> cycle_ms;
  std::map<std::string, std::vector<double>> op_ms;  // per operation kind
  std::map<std::string, int64_t> op_rows;            // rows per kind
  std::vector<double> tvds;

  // Traced-mode accumulators.
  pb::MarginalStoreStats store_delta;
  std::vector<double> traced_fit_s, untraced_fit_s;
  int64_t sampled_rows = 0;  // rows drawn through the traced sampler path
  std::map<std::string, double> metrics;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    ++problems["check failed: " + what];
  }
  // An operation that threw, or was refused or shed, produced no output to
  // check: it counts against success_ratio, not against correctness.
  void Fail(const std::string& what) {
    ++failed;
    ++problems[what];
  }
  void Op(const std::string& kind, double ms, int64_t rows = 0) {
    op_ms[kind].push_back(ms);
    op_rows[kind] += rows;
  }
};

template <typename T>
void Shuffle(std::vector<T>& v, pb::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.UniformInt(i)]);
}

int Cycles(double seconds, double per_second, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(seconds * per_second)));
}

pb::MarginalStoreStats StoreDelta(const pb::MarginalStoreStats& before,
                                  const pb::MarginalStoreStats& after) {
  pb::MarginalStoreStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.bytes = after.bytes;
  return d;
}

void AddStore(pb::MarginalStoreStats& acc, const pb::MarginalStoreStats& d) {
  acc.hits += d.hits;
  acc.misses += d.misses;
  acc.bytes = std::max(acc.bytes, d.bytes);
}

// --------------------------------------------------------- the Fit replica --
// PrivBayes::Fit rebuilt from its public steps (ApplyEncoding ->
// ChooseDegreeK -> LearnNetwork* -> NoisyConditionals*) so each step can be
// timed. Covers the default options only (no ablation flags); the traced run
// checks its model is bit-identical to PrivBayes::Fit at the same seed.
struct ReplicaResult {
  pb::PrivBayesModel model;
  pb::Dataset encoded;
  pb::ScoreKind score = pb::ScoreKind::kR;
  double spent = 0;
};

ReplicaResult ReplicaFit(const pb::PrivBayesOptions& o, const pb::Dataset& data,
                         pb::Rng& rng, Tracer& tr, uint64_t request) {
  ReplicaResult r;
  pb::PrivBayesModel& model = r.model;
  model.original_schema = data.schema();
  model.encoding = o.encoding;
  model.input_rows = data.num_rows();
  {
    Tracer::Scope span(tr, "data.encode", request);
    pb::EncodedDataset encoded = pb::ApplyEncoding(data, o.encoding);
    model.encoder = encoded.encoder;
    r.encoded = std::move(encoded.data);
  }
  model.encoded_schema = r.encoded.schema();
  const int d = r.encoded.num_attrs();
  const int64_t n = r.encoded.num_rows();
  model.used_binary_algorithm = model.encoded_schema.AllBinary();
  r.score = o.score.value_or(model.used_binary_algorithm ? pb::ScoreKind::kF
                                                         : pb::ScoreKind::kR);
  const double eps = o.epsilon;
  double eps1 = o.beta * eps;
  double eps2_plan = (1.0 - o.beta) * eps;
  double eps2 = eps2_plan;
  pb::BudgetAccountant acct(eps);

  pb::PrivateGreedyOptions greedy;
  greedy.score = r.score;
  greedy.epsilon1 = eps1;
  greedy.epsilon2_plan = eps2_plan;
  greedy.theta = o.theta;
  greedy.fixed_k = o.fixed_k;
  greedy.candidate_cap = o.candidate_cap;
  greedy.f_max_states = o.f_max_states;
  greedy.mps_node_budget = o.mps_node_budget;
  greedy.first_attr = o.first_attr;

  if (model.used_binary_algorithm) {
    int k = 0;
    {
      Tracer::Scope span(tr, "core.choose_k", request);
      k = o.fixed_k >= 0 ? o.fixed_k
                         : pb::ChooseDegreeK(n, d, eps2_plan, o.theta);
    }
    if (k == 0) {
      eps1 = 0.0;
      eps2_plan = eps;
      eps2 = eps;
      greedy.epsilon1 = 0.0;
      greedy.epsilon2_plan = eps2_plan;
    }
    greedy.fixed_k = k;
    pb::LearnedNetwork learned;
    {
      Tracer::Scope span(tr, "core.greedy", request);
      learned = pb::LearnNetworkBinary(r.encoded, greedy, rng, &acct);
    }
    model.network = std::move(learned.net);
    model.degree_k = learned.k;
    Tracer::Scope span(tr, "core.conditionals", request);
    model.conditionals = pb::NoisyConditionalsBinary(
        r.encoded, model.network, model.degree_k, eps2, rng, &acct);
  } else {
    pb::LearnedNetwork learned;
    {
      Tracer::Scope span(tr, "core.greedy", request);
      learned = pb::LearnNetworkGeneral(r.encoded, greedy, rng, &acct);
    }
    model.network = std::move(learned.net);
    model.degree_k = -1;
    Tracer::Scope span(tr, "core.conditionals", request);
    model.conditionals =
        pb::NoisyConditionalsGeneral(r.encoded, model.network, eps2, rng, &acct);
  }
  model.epsilon1 = eps1;
  model.epsilon2 = eps2;
  r.spent = acct.spent();
  return r;
}

// Per-call cost probes on the learned network's families: one cold
// JointCountsGeneralized and one ComputeScoreForChild each.
void ProbeFamilies(const ReplicaResult& fit, const pb::PrivBayesOptions& o,
                   Tracer& tr, uint64_t request) {
  const int64_t n = fit.encoded.num_rows();
  for (const pb::APPair& pair : fit.model.network.pairs()) {
    std::vector<pb::GenAttr> family = pair.parents;
    family.push_back(pb::GenAttr{pair.attr, 0});
    pb::ProbTable counts;
    {
      Tracer::Scope span(tr, "data.count", request);
      counts = fit.encoded.JointCountsGeneralized(family);
    }
    Tracer::Scope span(tr, "core.score", request);
    volatile double score = pb::ComputeScoreForChild(
        fit.score, counts, pb::GenVarId(pair.attr), n, o.f_max_states);
    (void)score;
  }
}

// One cold fit (MarginalStore cleared first) as the workloads time it.
// Untraced: PrivBayes::Fit. Traced: the replica under spans, then (when
// `verify`) PrivBayes::Fit again from a cleared store, which must give the
// identical model and store counts.
pb::PrivBayesModel TimedFit(Run& run, const pb::PrivBayesOptions& o,
                            const pb::Dataset& data, uint64_t fit_seed,
                            bool verify, uint64_t request, double* seconds) {
  pb::MarginalStore& store = pb::MarginalStore::Instance();
  store.Clear();
  const double eps = o.epsilon;
  pb::MarginalStoreStats before = store.stats();
  if (!run.tracer.enabled()) {
    pb::PrivBayes privbayes(o);
    pb::Rng rng(fit_seed);
    double t0 = NowSeconds();
    pb::PrivBayesModel model = privbayes.Fit(data, rng);
    *seconds = NowSeconds() - t0;
    run.Check(std::abs(model.epsilon1 + model.epsilon2 - eps) < 1e-9,
              "fit spent eps1+eps2 != eps");
    return model;
  }

  ReplicaResult fit;
  {
    Tracer::Scope span(run.tracer, "op.fit", request);
    pb::Rng rng(fit_seed);
    double t0 = NowSeconds();
    fit = ReplicaFit(o, data, rng, run.tracer, request);
    *seconds = NowSeconds() - t0;
  }
  const pb::MarginalStoreStats delta = StoreDelta(before, store.stats());
  AddStore(run.store_delta, delta);
  run.Check(std::abs(fit.spent - eps) < 1e-9 &&
                std::abs(fit.model.epsilon1 + fit.model.epsilon2 - eps) < 1e-9,
            "replica fit spent eps1+eps2 != eps");
  {
    Tracer::Scope span(run.tracer, "probe", request);
    ProbeFamilies(fit, o, run.tracer, request);
  }
  if (verify) {
    store.Clear();
    pb::MarginalStoreStats replay_before = store.stats();
    pb::PrivBayes privbayes(o);
    pb::Rng rng(fit_seed);
    double t0 = NowSeconds();
    pb::PrivBayesModel reference = privbayes.Fit(data, rng);
    double untraced = NowSeconds() - t0;
    pb::MarginalStoreStats replay = StoreDelta(replay_before, store.stats());
    run.Check(SameModel(fit.model, reference),
              "Fit replica model differs from PrivBayes::Fit");
    run.Check(replay.hits == delta.hits && replay.misses == delta.misses,
              "store hit/miss counts did not repeat on the replayed fit");
    run.traced_fit_s.push_back(*seconds);
    run.untraced_fit_s.push_back(untraced);
  }
  return std::move(fit.model);
}

struct ServeRig {
  pb::Dataset data;
  const pb::PrivBayesModel* model = nullptr;
  std::unique_ptr<pb::ModelRegistry> registry;
  std::shared_ptr<const pb::ServableModel> servable;
  std::unique_ptr<pb::ServeServer> server;
  std::unique_ptr<pb::ServeClient> client;

  ~ServeRig() {
    client.reset();
    if (server) server->Stop();
  }
};

// Metric families for the per-layer numbers: the server's METRICS reply
// (its registry plus the process-global one) when serving, else the
// process-global registry directly. Untraced runs skip the scrape.
std::map<std::string, double> Scrape(Run& run, ServeRig* rig) {
  if (!run.tracer.enabled()) return {};
  return ParseProm(rig != nullptr
                       ? rig->client->Metrics()
                       : pb::MetricsRegistry::Global().RenderPrometheus());
}

// Library-wide sampler and thread-pool telemetry over the measured cycles.
void GlobalLayerMetrics(Run& run, const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after) {
  if (!run.tracer.enabled()) return;
  run.metrics["bn.chunk_s"] =
      Delta(before, after, "privbayes_sampler_chunk_seconds_sum");
  run.metrics["bn.chunks"] =
      Delta(before, after, "privbayes_sampler_chunk_seconds_count");
  run.metrics["common.pool_run_s"] =
      Delta(before, after, "privbayes_pool_run_seconds_sum");
  run.metrics["common.pool_runs"] =
      Delta(before, after, "privbayes_pool_run_seconds_count");
}

// -------------------------------------------------------------- binary-fit --
// The input is one fixed population per dataset, as in the paper's
// evaluation.
pb::Dataset GenerateData(Run& run, bool adult) {
  Tracer::Scope span(run.tracer, "data.generate");
  pb::Dataset data = adult ? pb::MakeAdult(kDataSeed) : pb::MakeNltcs(kDataSeed);
  data.store();  // build the column store now, not inside the first fit
  return data;
}

void EvaluateTvd(Run& run, const pb::Dataset& data,
                 const pb::PrivBayesModel& model, uint64_t seed) {
  pb::Rng rng(pb::DeriveSeed(seed, 7));
  pb::Dataset synthetic =
      pb::SampleSyntheticData(model, data.num_rows(), rng);
  double tvd = Tvd2Way(data, synthetic);
  run.Check(tvd >= 0.0 && tvd <= 1.0, "tvd_2way outside [0,1]");
  run.tvds.push_back(tvd);
}

void RunBinaryFit(Run& run) {
  // Set-up points are spread over the run: after an untimed warm-up, one
  // before the cycles and one after each cycle. Only the first point's data
  // is kept.
  auto timed_setup = [&run] {
    pb::Dataset data;
    double total = 0;
    for (int i = 0; i < kBinarySetupRepeats; ++i) {
      double t0 = NowSeconds();
      pb::Dataset next = GenerateData(run, /*adult=*/false);
      total += NowSeconds() - t0;
      data = std::move(next);
    }
    run.setup_s.push_back(total / kBinarySetupRepeats);
    return data;
  };
  GenerateData(run, /*adult=*/false);
  const pb::Dataset data = timed_setup();
  pb::PrivBayesOptions o;
  o.epsilon = kBinaryEpsilon;
  const int cycles = Cycles(run.seconds, kBinaryCyclesPerSecond, 2);
  const int verify_cycles = 3;
  std::vector<int> order(static_cast<size_t>(cycles));
  std::iota(order.begin(), order.end(), 0);
  pb::Rng order_rng(pb::DeriveSeed(run.seed, 1));
  Shuffle(order, order_rng);
  auto before = Scrape(run, nullptr);
  for (int c = 0; c < cycles; ++c) {
    const uint64_t request = static_cast<uint64_t>(c) + 1;
    const uint64_t pool_index = static_cast<uint64_t>(order[static_cast<size_t>(c)]);
    ++run.attempted;
    try {
      double fit_s = 0;
      pb::PrivBayesModel model =
          TimedFit(run, o, data, pb::DeriveSeed(kFitPoolSeed, pool_index),
                   c < verify_cycles, request, &fit_s);
      run.Op("fit", fit_s * 1e3);
      run.cycle_ms.push_back(fit_s * 1e3);
      EvaluateTvd(run, data, model, pb::DeriveSeed(run.seed, 100 + c));
    } catch (const std::exception& e) {
      run.Fail(std::string("fit failed: ") + e.what());
    }
    timed_setup();
  }
  GlobalLayerMetrics(run, before, Scrape(run, nullptr));
}

// ---------------------------------------------------------- serve workloads --
pb::ServeServerOptions ServerOptions() {
  pb::ServeServerOptions so;
  so.event_loops = kEventLoops;
  so.batch_workers = kBatchWorkers;
  so.max_parallel_batches = kParallelBatches;
  return so;
}

// The served model is fitted once per run, untimed, before any set-up: a
// cold Adult fit's time follows the memory bandwidth the host's neighbours
// leave, and set-up times the serving side only. Traced runs fit through the
// replica and check it against PrivBayes::Fit.
pb::PrivBayesModel FitServedModel(Run& run) {
  const pb::Dataset data = GenerateData(run, /*adult=*/true);
  pb::PrivBayesOptions o;
  o.epsilon = kServedEpsilon;
  double fit_s = 0;
  return TimedFit(run, o, data, kModelSeed, /*verify=*/true, 0, &fit_s);
}

// One serving set-up: the population, the registry's compile of the fitted
// model, server start and a connected client.
std::unique_ptr<ServeRig> SetUpServe(Run& run, const pb::PrivBayesModel& model) {
  auto rig = std::make_unique<ServeRig>();
  rig->data = GenerateData(run, /*adult=*/true);
  rig->model = &model;
  rig->registry = std::make_unique<pb::ModelRegistry>();
  {
    Tracer::Scope span(run.tracer, "bn.compile");
    rig->servable = rig->registry->Put(kModelName, model);
  }
  rig->server =
      std::make_unique<pb::ServeServer>(rig->registry.get(), ServerOptions());
  rig->server->Start();
  pb::RetryPolicy policy = pb::RetryPolicy::None();
  rig->client = std::make_unique<pb::ServeClient>("127.0.0.1",
                                                  rig->server->port(), policy);
  rig->client->Ping();
  return rig;
}

// One set-up point: each set-up builds a second rig beside the idle measured
// one and tears it down untimed. Points are spread over the run, one before
// the cycles and one after each cycle.
void TimeServeSetUp(Run& run, const pb::PrivBayesModel& model) {
  double total = 0;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    double t0 = NowSeconds();
    std::unique_ptr<ServeRig> rig = SetUpServe(run, model);
    total += NowSeconds() - t0;
  }
  run.setup_s.push_back(total / kServeSetupRepeats);
}

// Rows the serving path must reproduce: the compiled sampler's stream at
// `seed` decoded to the original schema (what SampleSyntheticData returns).
pb::Dataset LocalRows(Run& run, const ServeRig& rig, int64_t rows,
                      uint64_t seed, uint64_t request) {
  pb::Rng rng(seed);
  pb::Dataset encoded;
  run.sampled_rows += rows;
  {
    Tracer::Scope span(run.tracer, "bn.sample", request);
    encoded = rig.servable->sampler().Sample(rows, rng);
  }
  Tracer::Scope span(run.tracer, "data.decode", request);
  return pb::DecodeToOriginal(encoded, rig.model->original_schema,
                              rig.model->encoding, rig.model->encoder.get());
}

void FinishServe(Run& run, ServeRig& rig,
                 const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after) {
  EvaluateTvd(run, rig.data, *rig.model, pb::DeriveSeed(run.seed, 3));
  GlobalLayerMetrics(run, before, after);
  if (!run.tracer.enabled()) return;
  for (const char* cmd : {"SAMPLEB", "SAMPLE", "QUERY"}) {
    for (const char* stage :
         {"parse", "admission", "sample", "write", "total"}) {
      std::string key = std::string("privbayes_serve_request_seconds_sum{command=\"") +
                        cmd + "\",stage=\"" + stage + "\"}";
      run.metrics[std::string("serve.") + cmd + "." + stage + "_s"] =
          Delta(before, after, key);
    }
    run.metrics[std::string("serve.") + cmd + ".requests"] = Delta(
        before, after,
        std::string("privbayes_serve_request_seconds_count{command=\"") + cmd +
            "\",stage=\"total\"}");
  }
  run.metrics["serve.epoll_wait_s"] =
      Delta(before, after, "privbayes_serve_epoll_wait_seconds_sum");
  run.metrics["serve.epoll_dispatch_s"] =
      Delta(before, after, "privbayes_serve_epoll_dispatch_seconds_sum");
  run.metrics["serve.write_stalls"] =
      Delta(before, after, "privbayes_serve_write_stalls_total");
  run.metrics["serve.rows_streamed"] =
      Delta(before, after, "privbayes_serve_rows_streamed_total");
  run.metrics["serve.errors"] =
      Delta(before, after, "privbayes_serve_errors_total");
  run.metrics["serve.shed_requests"] =
      Delta(before, after, "privbayes_serve_shed_requests_total");
  run.metrics["serve.client_s"] =
      Sum(run.op_ms["sampleb"]) / 1e3 - run.metrics["serve.SAMPLEB.total_s"];
}

// One cycle serves the same rows three ways, then asks its share of one pass
// of the paper's Q2 workload: every 2-way marginal once, in a seed-drawn
// order.
void RunServe(Run& run) {
  const pb::PrivBayesModel model = FitServedModel(run);
  // The measured rig doubles as the untimed warm-up set-up.
  std::unique_ptr<ServeRig> rig = SetUpServe(run, model);
  TimeServeSetUp(run, model);
  const int cycles = Cycles(run.seconds, kServeCyclesPerSecond, 3);
  const int d = rig->data.num_attrs();
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < d; ++a) {
    for (int b = a + 1; b < d; ++b) pairs.emplace_back(a, b);
  }
  pb::Rng pair_rng(pb::DeriveSeed(run.seed, 4));
  Shuffle(pairs, pair_rng);
  // In-process answers for the QUERY check, computed before the cycles so
  // their memory peak never overlaps the server's.
  pb::QueryService queries(rig->registry.get());
  std::map<std::pair<int, int>, pb::ProbTable> reference;
  for (const auto& [a, b] : pairs) {
    Tracer::Scope span(run.tracer, "core.inference");
    reference.emplace(std::make_pair(a, b), queries.Marginal(kModelName, {a, b}));
  }
  auto before = Scrape(run, rig.get());
  for (int c = 0; c < cycles; ++c) {
    const uint64_t request = static_cast<uint64_t>(c) + 1;
    const uint64_t seed = pb::DeriveSeed(run.seed, 1000 + c);
    double cycle_s = 0;

    // In-process: SampleSyntheticData (traced: its steps, one span each).
    pb::Dataset local;
    ++run.attempted;
    {
      double t0 = NowSeconds();
      if (run.tracer.enabled()) {
        Tracer::Scope span(run.tracer, "op.sample", request);
        {
          Tracer::Scope compile(run.tracer, "bn.compile", request);
          pb::NetworkSampler sampler(model.encoded_schema, model.network,
                                     model.conditionals);
        }
        local = LocalRows(run, *rig, kBulkRows, seed, request);
      } else {
        pb::Rng rng(seed);
        local = pb::SampleSyntheticData(model, kBulkRows, rng);
      }
      double s = NowSeconds() - t0;
      run.Op("sample", s * 1e3, kBulkRows);
      cycle_s += s;
    }
    if (c == 0 && run.tracer.enabled()) {
      pb::Rng rng(seed);
      run.Check(SameRows(local, pb::SampleSyntheticData(model, kBulkRows, rng),
                         kBulkRows),
                "traced in-process sampling differs from SampleSyntheticData");
    }

    ++run.attempted;
    try {
      pb::Dataset got;
      double t0 = NowSeconds();
      {
        Tracer::Scope span(run.tracer, "op.sampleb", request);
        got = rig->client->SampleBinary(kModelName, kBulkRows, seed);
      }
      double s = NowSeconds() - t0;
      run.Op("sampleb", s * 1e3, kBulkRows);
      cycle_s += s;
      run.Check(got.num_rows() == kBulkRows && SameRows(got, local, kBulkRows),
                "SAMPLEB rows differ from SampleSyntheticData");
    } catch (const std::exception& e) {
      run.Fail(std::string("SAMPLEB failed: ") + e.what());
    }

    ++run.attempted;
    try {
      pb::ServeClient::SampleReply reply;
      double t0 = NowSeconds();
      {
        Tracer::Scope span(run.tracer, "op.csv", request);
        reply = rig->client->Sample(kModelName, kBulkRows, seed);
      }
      double s = NowSeconds() - t0;
      run.Op("csv", s * 1e3, kBulkRows);
      cycle_s += s;
      bool same = static_cast<int64_t>(reply.rows.size()) == kBulkRows;
      for (int64_t r = 0; same && r < kBulkRows; ++r) {
        const std::vector<pb::Value>& row = reply.rows[static_cast<size_t>(r)];
        if (static_cast<int>(row.size()) != local.num_attrs()) same = false;
        for (int a = 0; same && a < local.num_attrs(); ++a) {
          same = row[static_cast<size_t>(a)] == local.at(r, a);
        }
      }
      run.Check(same, "SAMPLE (CSV) rows differ from SampleSyntheticData");
    } catch (const std::exception& e) {
      run.Fail(std::string("SAMPLE failed: ") + e.what());
    }

    const size_t first = pairs.size() * static_cast<size_t>(c) / static_cast<size_t>(cycles);
    const size_t last = pairs.size() * static_cast<size_t>(c + 1) / static_cast<size_t>(cycles);
    for (size_t i = first; i < last; ++i) {
      const auto [a, b] = pairs[i];
      ++run.attempted;
      try {
        pb::ServeClient::QueryReply reply;
        double t0 = NowSeconds();
        {
          Tracer::Scope span(run.tracer, "op.query", request);
          reply = rig->client->Query(kModelName, {a, b});
        }
        double s = NowSeconds() - t0;
        run.Op("query", s * 1e3);
        cycle_s += s;
        const pb::ProbTable& expect = reference.at({a, b});
        run.Check(reply.probs == expect.values() &&
                      reply.cards == expect.cards() &&
                      std::abs(Sum(reply.probs) - 1.0) < 1e-9,
                  "QUERY reply differs from QueryService or does not sum to 1");
      } catch (const std::exception& e) {
        run.Fail(std::string("QUERY failed: ") + e.what());
      }
    }
    run.cycle_ms.push_back(cycle_s * 1e3);
    TimeServeSetUp(run, model);
  }
  auto after = Scrape(run, rig.get());
  FinishServe(run, *rig, before, after);
}

// ----------------------------------------------------------------- metrics --
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"success_ratio", "ratio"}, {"cycle_ms", "ms"},
    {"tvd_2way", "tvd"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"data.generate_s", "s"},     {"data.encode_s", "s"},
    {"data.count_s", "s"},        {"data.count_calls", "count"},
    {"data.marginal_hits", "count"}, {"data.marginal_misses", "count"},
    {"data.marginal_hit_ratio", "ratio"}, {"data.marginal_bytes", "bytes"},
    {"data.decode_s", "s"},       {"core.greedy_s", "s"},
    {"core.conditionals_s", "s"}, {"core.score_s", "s"},
    {"core.score_calls", "count"}, {"core.inference_s", "s"},
    {"bn.compile_s", "s"},        {"bn.sample_s", "s"},
    {"bn.rows_per_s", "rows/s"},  {"bn.chunk_s", "s"},
    {"bn.chunks", "count"},       {"common.pool_run_s", "s"},
    {"common.pool_runs", "count"},
    {"serve.SAMPLEB.parse_s", "s"}, {"serve.SAMPLEB.admission_s", "s"},
    {"serve.SAMPLEB.sample_s", "s"}, {"serve.SAMPLEB.write_s", "s"},
    {"serve.SAMPLEB.total_s", "s"}, {"serve.SAMPLEB.requests", "count"},
    {"serve.SAMPLE.parse_s", "s"}, {"serve.SAMPLE.admission_s", "s"},
    {"serve.SAMPLE.sample_s", "s"}, {"serve.SAMPLE.write_s", "s"},
    {"serve.SAMPLE.total_s", "s"}, {"serve.SAMPLE.requests", "count"},
    {"serve.QUERY.parse_s", "s"}, {"serve.QUERY.admission_s", "s"},
    {"serve.QUERY.sample_s", "s"}, {"serve.QUERY.write_s", "s"},
    {"serve.QUERY.total_s", "s"}, {"serve.QUERY.requests", "count"},
    {"serve.client_s", "s"},      {"serve.epoll_wait_s", "s"},
    {"serve.epoll_dispatch_s", "s"}, {"serve.write_stalls", "count"},
    {"serve.rows_streamed", "count"}, {"serve.errors", "count"},
    {"serve.shed_requests", "count"},
    {"op.fit_s", "s"},
    {"op.sample_rows_per_s", "rows/s"}, {"op.sampleb_rows_per_s", "rows/s"},
    {"op.csv_rows_per_s", "rows/s"}, {"op.query_p50_ms", "ms"},
    {"op.query_p90_ms", "ms"},    {"trace.overhead_ratio", "ratio"},
};

void ComputeMetrics(Run& run) {
  std::map<std::string, double>& m = run.metrics;
  m["setup_s"] = Median(run.setup_s);
  m["peak_rss_mb"] = PeakRssMb();
  m["success_ratio"] =
      static_cast<double>(run.attempted - run.failed) / static_cast<double>(run.attempted);
  m["cycle_ms"] = run.cycle_ms.empty()
                      ? 0
                      : Sum(run.cycle_ms) / static_cast<double>(run.cycle_ms.size());
  m["tvd_2way"] = run.tvds.empty() ? 0 : Sum(run.tvds) / static_cast<double>(run.tvds.size());

  // The named operation metrics (also printed in untraced runs).
  auto rate = [&](const char* kind) {
    auto it = run.op_ms.find(kind);
    if (it == run.op_ms.end()) return 0.0;
    return static_cast<double>(run.op_rows[kind]) / (Sum(it->second) / 1e3);
  };
  auto median_of = [&](const char* kind) {
    auto it = run.op_ms.find(kind);
    return it == run.op_ms.end() ? 0.0 : Median(it->second);
  };
  auto pct_of = [&](const char* kind, double q) {
    auto it = run.op_ms.find(kind);
    return it == run.op_ms.end() ? 0.0 : Percentile(it->second, q);
  };
  m["op.fit_s"] = median_of("fit") / 1e3;
  m["op.sample_rows_per_s"] = rate("sample");
  m["op.sampleb_rows_per_s"] = rate("sampleb");
  m["op.csv_rows_per_s"] = rate("csv");
  m["op.query_p50_ms"] = median_of("query");
  m["op.query_p90_ms"] = pct_of("query", 0.90);

  if (!run.tracer.enabled()) return;
  auto totals = run.tracer.TotalsByName();
  auto self = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto calls = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  m["data.generate_s"] = self("data.generate");
  m["data.encode_s"] = self("data.encode");
  m["data.count_s"] = self("data.count");
  m["data.count_calls"] = calls("data.count");
  m["data.decode_s"] = self("data.decode");
  m["core.greedy_s"] = self("core.greedy");
  m["core.conditionals_s"] = self("core.conditionals");
  m["core.score_s"] = self("core.score");
  m["core.score_calls"] = calls("core.score");
  m["core.inference_s"] = self("core.inference");
  m["bn.compile_s"] = self("bn.compile");
  m["bn.sample_s"] = self("bn.sample");
  m["bn.rows_per_s"] = m["bn.sample_s"] > 0
                           ? static_cast<double>(run.sampled_rows) / m["bn.sample_s"]
                           : 0;
  m["data.marginal_hits"] = static_cast<double>(run.store_delta.hits);
  m["data.marginal_misses"] = static_cast<double>(run.store_delta.misses);
  const double lookups =
      static_cast<double>(run.store_delta.hits + run.store_delta.misses);
  m["data.marginal_hit_ratio"] =
      lookups > 0 ? static_cast<double>(run.store_delta.hits) / lookups : 0;
  m["data.marginal_bytes"] = static_cast<double>(run.store_delta.bytes);
  if (!run.untraced_fit_s.empty()) {
    m["trace.overhead_ratio"] =
        Median(run.traced_fit_s) / Median(run.untraced_fit_s) - 1.0;
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const Run& run, bool trace) {
  std::string out = "{\"correct\": ";
  out += run.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : trace ? kPerLayer : kEndToEnd) {
    auto it = run.metrics.find(name);
    double v = it == run.metrics.end() ? 0.0 : it->second;
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + JsonNumber(v) +
           ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<binary-fit|serve-bulk> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const bool fit_workload = workload == "binary-fit";
  const bool serve_workload = workload == "serve-bulk";
  if (!fit_workload && !serve_workload) Usage("unknown workload '" + workload + "'");
  if (!have_seed || !(seconds > 0) || (trace != 0 && trace != 1)) {
    Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  // Explicit configuration: nothing the library reads from the environment
  // may differ between runs.
  for (const char* var : {"PRIVBAYES_MARGINAL_CACHE", "PRIVBAYES_SIMD",
                          "PRIVBAYES_WIRE_FAULTS", "PRIVBAYES_TRACE_SLOW_MS",
                          "PRIVBAYES_F_STATES"}) {
    unsetenv(var);
  }
  const int pool_threads = kPoolThreads;
  setenv("PRIVBAYES_THREADS", std::to_string(pool_threads).c_str(), 1);

  // Thread budget: refuse to run where runnable threads would exceed the
  // usable CPUs.
  const int cpus = UsableCpus();
  const int runnable = fit_workload
                           ? pool_threads
                           : kEventLoops + kBatchWorkers + (pool_threads - 1) +
                                 kClients;
  if (runnable > cpus) {
    std::fprintf(stderr,
                 "perfbench_driver: %s needs %d runnable threads but only %d "
                 "CPUs are usable; refusing to oversubscribe\n",
                 workload.c_str(), runnable, cpus);
    return 3;
  }
  const size_t pool = pb::ThreadPool::Global().num_threads();
  if (pool != static_cast<size_t>(pool_threads)) {
    std::fprintf(stderr, "perfbench_driver: pool has %zu threads, want %d\n",
                 pool, pool_threads);
    return 3;
  }

  const CpuTimes cpu_start = ReadCpuTimes();
  std::printf(
      "host: nproc=%d simd=%s pool_threads=%zu event_loops=%d "
      "batch_workers=%d parallel_batches=%d clients=%d runnable_max=%d\n",
      cpus, pb::SimdLevelName(pb::ActiveSimd().level), pool,
      serve_workload ? kEventLoops : 0, serve_workload ? kBatchWorkers : 0,
      serve_workload ? kParallelBatches : 0, serve_workload ? kClients : 0,
      runnable);
  std::printf("host: start loadavg=%s\n", LoadAverage().c_str());
  std::fflush(stdout);

  Run run;
  run.seed = seed;
  run.seconds = seconds;
  run.tracer = Tracer(trace == 1);
  try {
    if (workload == "binary-fit") {
      RunBinaryFit(run);
    } else {
      RunServe(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  ComputeMetrics(run);

  const CpuTimes cpu_end = ReadCpuTimes();
  const double steal =
      cpu_end.total > cpu_start.total
          ? static_cast<double>(cpu_end.steal - cpu_start.steal) /
                static_cast<double>(cpu_end.total - cpu_start.total)
          : 0.0;
  std::printf("host: end loadavg=%s steal=%.4f\n", LoadAverage().c_str(),
              steal);
  if (!run.setup_s.empty()) {
    std::printf("setup: %zu points, min %.6f s, max %.6f s\n", run.setup_s.size(),
                *std::min_element(run.setup_s.begin(), run.setup_s.end()),
                *std::max_element(run.setup_s.begin(), run.setup_s.end()));
  }
  std::printf("cycles: %zu ops:", run.cycle_ms.size());
  for (const auto& [kind, ms] : run.op_ms) std::printf(" %s=%zu", kind.c_str(), ms.size());
  std::printf("\n");
  for (const auto& [name, value] : run.metrics) {
    std::printf("metric: %s %s\n", name.c_str(), JsonNumber(value).c_str());
  }
  for (const auto& [what, times] : run.problems) {
    std::printf("%s (%d times)\n", what.c_str(), times);
  }
  if (run.tracer.enabled() && !spans_path.empty()) {
    if (!run.tracer.WriteJson(spans_path)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", run.tracer.records().size(),
                spans_path.c_str());
  }
  std::printf("%s\n", ResultJson(run, trace == 1).c_str());
  return run.correct ? 0 : 1;
}
