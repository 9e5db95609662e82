// hire_bench — the repository's end-to-end benchmark (see README.md).
//
//   hire_bench --workload <serve_paced|serve_churn> --seed <n>
//              --seconds <s> --trace <0|1> --scratch <dir>
//
// One process: it generates the synthetic MovieLens-profile world from the
// seed, trains the model it measures with core::TrainHire, runs the
// workload, checks the outputs, and prints one JSON line last on stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 prints the end-to-end metrics; --trace 1 records a span around
// every layer call, writes them as Chrome trace JSON under --scratch, and
// prints the per-layer metrics derived from them. Temporary files (model
// snapshots) live under --scratch and are removed at exit.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/evaluation.h"
#include "core/hire_model.h"
#include "core/inference_forward.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "graph/context_builder.h"
#include "graph/samplers.h"
#include "metrics/ranking_metrics.h"
#include "nn/fused_attention.h"
#include "nn/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "serve/http_client.h"
#include "serve/inference_engine.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "utils/logging.h"
#include "utils/parallel.h"

namespace {

using namespace hire;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed inputs. Every workload uses the CPU-scale shape of the experiment
// harness (bench/bench_common.cc): 3 HIM blocks, 4 heads of 8, f = 8,
// 16 x 16 contexts, 2 contexts per training step.

constexpr double kWorldScale = 2.0;  // 1200 users, 1000 items, 48k ratings
constexpr double kWarmFraction = 0.8;        // user-cold split, paper ML-1M
constexpr double kSupportFraction = 0.1;     // revealed share of cold ratings
constexpr int kMinQueryItems = 5;
constexpr int64_t kContext = 16;
constexpr int64_t kTrainBatch = 2;
// A list (and a request) is a cold user and up to 8 of its held-out items:
// one 16 x 16 context scores it whole, so every list costs one forward.
constexpr size_t kMaxListItems = 8;
// 200 steps at 5x the trainer's default rate: the served and scored models
// then beat the global-mean predictor on RMSE (by >= 5% even under
// co-batched serving) and a random ranking on NDCG@5 on every seed tried.
constexpr int64_t kTrainSteps = 200;
constexpr float kLearningRate = 5e-3f;
constexpr int kSetupRepeats = 5;
// serve_paced: Poisson arrivals per second at one 1-lane shard. Higher
// rates leave more samples beyond p99 but more bursts that wait for one of
// the 4 connections, and the tail then depends on the seed's schedule.
constexpr double kPacedRate = 35.0;
// Graph publishes and reloads timed on the idle serve_paced server.
constexpr int kIdlePublishes = 60;
// serve_churn: closed-loop requests kept in flight across the 4 shards.
constexpr int kChurnOutstanding = 4;

core::HireConfig ModelShape() {
  core::HireConfig config;
  config.num_him_blocks = 3;
  config.num_heads = 4;
  config.head_dim = 8;
  config.attr_embed_dim = 8;
  return config;
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Work that runs on one thread is timed on CPU clocks, not the wall clock.
// The host is shared: time the hypervisor gives a vCPU to another guest
// (steal) and time a thread waits for a core both stretch the wall clock by
// amounts that change from minute to minute. The kernel accounts steal
// apart, so a thread's CPU clock advances only while it runs. Latency and
// throughput of the serving paths stay on the wall clock.
double CpuClockMs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

double ThreadCpuMs() { return CpuClockMs(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of every thread of the process, for phases that start threads.
double ProcessCpuMs() { return CpuClockMs(CLOCK_PROCESS_CPUTIME_ID); }

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Spans: kept in memory while --trace 1, written as Chrome trace JSON at
// exit; per-layer metrics are medians of span durations by name.

class SpanLog {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, ThreadIndex()});
  }

  std::vector<double> DurationsUs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(MicrosBetween(span.start, span.end));
    }
    return out;
  }

  void WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i ? "," : "") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
          << ",\"ts\":" << obs::JsonNumber(MicrosBetween(origin_, span.start))
          << ",\"dur\":"
          << obs::JsonNumber(MicrosBetween(span.start, span.end)) << "}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int tid;
  };
  static int ThreadIndex() {
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
  }
  bool enabled_ = false;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

/// Runs `fn` inside a span named `name` (wall clock); returns the calling
/// thread's CPU time in ms.
template <typename Fn>
double Timed(const std::string& name, Fn&& fn) {
  const double cpu = ThreadCpuMs();
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  Spans().Add(name, start, end);
  return ThreadCpuMs() - cpu;
}

// ---------------------------------------------------------------------------
// Run bookkeeping.

struct Metric {
  double value;
  std::string unit;
};

struct Run {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// World: synthetic dataset, user-cold split, revealed support ratings and the
// held-out query lists, all from the seed.

struct QueryList {
  int64_t user = 0;
  std::vector<int64_t> items;
  std::vector<float> truth;
};

/// Squared errors of a workload's answers against the held-out truth, and of
/// the training-set global mean on the same pairs. Averaged per user first,
/// so a Zipf-popular user weighs no more than any other.
class Quality {
 public:
  void Add(const QueryList& list, const std::vector<float>& predicted,
           float mean) {
    Sums& sums = by_user_[list.user];
    for (size_t i = 0; i < list.truth.size(); ++i) {
      sums.model += std::pow(predicted[i] - list.truth[i], 2.0);
      sums.mean += std::pow(mean - list.truth[i], 2.0);
    }
    sums.pairs += static_cast<double>(list.truth.size());
  }
  double Rmse() const { return Root(&Sums::model); }
  double MeanRmse() const { return Root(&Sums::mean); }

 private:
  struct Sums {
    double model = 0.0, mean = 0.0, pairs = 0.0;
  };
  double Root(double Sums::*field) const {
    double total = 0.0;
    for (const auto& [user, sums] : by_user_) total += sums.*field / sums.pairs;
    return std::sqrt(total / static_cast<double>(by_user_.size()));
  }
  std::map<int64_t, Sums> by_user_;
};

struct World {
  explicit World(data::Dataset generated) : dataset(std::move(generated)) {}
  data::Dataset dataset;
  data::ColdStartSplit split;
  std::vector<data::Rating> visible;  // train ratings + revealed support
  std::unique_ptr<graph::BipartiteGraph> graph;  // over `visible`
  std::vector<QueryList> lists;  // cold users with >= kMinQueryItems queries
  float train_mean = 0.0f;
};

World MakeWorld(uint64_t seed) {
  std::optional<data::Dataset> generated;
  Timed("data.generate", [&] {
    generated = data::GenerateSyntheticDataset(
        data::MovieLens1MProfile(kWorldScale), seed);
  });
  World world(std::move(*generated));
  Rng rng(seed ^ 0x5EEDu);
  world.split = data::MakeColdStartSplit(
      world.dataset, data::ColdStartScenario::kUserCold, kWarmFraction, &rng);

  std::vector<data::Rating> test = world.split.test_ratings;
  rng.Shuffle(&test);
  const size_t support =
      static_cast<size_t>(kSupportFraction * static_cast<double>(test.size()));
  world.visible = world.split.train_ratings;
  world.visible.insert(world.visible.end(), test.begin(),
                       test.begin() + static_cast<int64_t>(support));
  Timed("graph.build", [&] {
    world.graph = std::make_unique<graph::BipartiteGraph>(
        world.dataset.num_users(), world.dataset.num_items(), world.visible);
  });

  std::map<int64_t, QueryList> by_user;
  for (size_t r = support; r < test.size(); ++r) {
    QueryList& list = by_user[test[r].user];
    list.user = test[r].user;
    list.items.push_back(test[r].item);
    list.truth.push_back(test[r].value);
  }
  for (auto& [user, list] : by_user) {
    if (list.items.size() > kMaxListItems) {
      list.items.resize(kMaxListItems);
      list.truth.resize(kMaxListItems);
    }
    if (static_cast<int>(list.items.size()) >= kMinQueryItems) {
      world.lists.push_back(std::move(list));
    }
  }
  rng.Shuffle(&world.lists);
  if (world.lists.size() < 16) {
    throw std::runtime_error("world has too few cold users with queries");
  }

  double sum = 0.0;
  for (const data::Rating& rating : world.split.train_ratings) {
    sum += rating.value;
  }
  world.train_mean = static_cast<float>(
      sum / static_cast<double>(world.split.train_ratings.size()));
  return world;
}

/// Generates the world kSetupRepeats times (identical results) and returns
/// the last one with the median generation CPU time.
World MakeWorldTimed(uint64_t seed, double* median_s) {
  std::vector<double> seconds;
  std::optional<World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const double start = ProcessCpuMs();
    world.emplace(MakeWorld(seed));
    seconds.push_back((ProcessCpuMs() - start) / 1e3);
  }
  *median_s = Median(seconds);
  return std::move(*world);
}

/// One serve-shape context for `list`'s user, assembled the way
/// HirePredictor assembles its first query chunk.
graph::PredictionContext SampleContext(const World& world,
                                       const graph::ContextSampler& sampler,
                                       const QueryList& list, uint64_t seed) {
  const core::UserContextPlan plan = core::BuildUserContextPlan(
      *world.graph, sampler, list.user, kContext, kContext, seed);
  const size_t chunk = static_cast<size_t>(
      std::max<int64_t>(1, kContext - plan.num_support_items));
  std::vector<int64_t> columns(
      list.items.begin(),
      list.items.begin() + static_cast<int64_t>(
                               std::min(chunk, list.items.size())));
  for (int64_t item : plan.base_items) {
    if (static_cast<int64_t>(columns.size()) >= kContext) break;
    if (std::find(columns.begin(), columns.end(), item) == columns.end()) {
      columns.push_back(item);
    }
  }
  graph::ContextSelection selection;
  selection.users = plan.context_users;
  selection.items = std::move(columns);
  graph::PredictionContext context =
      graph::AssembleContext(*world.graph, std::move(selection));
  core::ThinObservedCells(&context, 1, 0.1, seed);
  return context;
}

// ---------------------------------------------------------------------------
// Training runs at 1 tensor lane, where the whole step runs on the calling
// thread and its CPU clock times it (training is bitwise identical at any
// lane count). A 4-lane step waits for its slowest lane, so whenever the
// host deschedules any of the four vCPUs the step stalls and 4-lane step
// times read host load more than code; and one 4-lane training run hung for
// good in ParallelFor's completion wait (the caller parked on its done flag
// with every worker parked too).

// Steps from snapshot a to snapshot b.
constexpr int64_t kSnapshotSteps = 10;
// Lanes of the layer probe's multi-lane GEMM (tensor.gemm_train_*).
constexpr int kScalingLanes = 4;

struct TrainTotals {
  int64_t steps = 0;
  double cpu_ms = 0.0;  // calling thread's CPU time in TrainHire
  double matmul = 0.0, softmax = 0.0, attention = 0.0, layernorm = 0.0,
         embedding = 0.0, sampling = 0.0, optimizer = 0.0;
};

/// Trains `steps` more steps of `model` at 1 lane.
core::TrainStats TrainSteps(const World& world,
                            const graph::ContextSampler& sampler,
                            core::HireModel* model, int64_t steps,
                            uint64_t seed, TrainTotals* totals) {
  SetGlobalThreads(1);
  const graph::BipartiteGraph train_graph(world.dataset.num_users(),
                                          world.dataset.num_items(),
                                          world.split.train_ratings);
  core::TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = kTrainBatch;
  config.context_users = kContext;
  config.context_items = kContext;
  config.seed = seed;
  config.base_learning_rate = kLearningRate;
  core::TrainStats stats;
  totals->cpu_ms += Timed("core.train", [&] {
    stats = core::TrainHire(model, train_graph, sampler, config);
  });
  model->SetTraining(false);
  totals->steps += steps;
  totals->matmul += stats.matmul_seconds;
  totals->softmax += stats.softmax_seconds;
  totals->attention += stats.attention_seconds;
  totals->layernorm += stats.layernorm_seconds;
  totals->embedding += stats.embedding_seconds;
  totals->sampling += stats.sampling_seconds;
  totals->optimizer += stats.optimizer_seconds;
  return stats;
}

/// Mean loss of the first and last tenth of the run.
void CheckLossFell(const core::TrainStats& stats, Run* run) {
  const std::vector<float>& losses = stats.step_losses;
  const size_t window = std::max<size_t>(3, losses.size() / 10);
  if (losses.size() < 2 * window) {
    run->Check(false, "too few training steps to compare losses");
    return;
  }
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < window; ++i) {
    first += losses[i];
    last += losses[losses.size() - 1 - i];
  }
  run->Check(last < first, "training loss did not fall (" +
                               std::to_string(first / window) + " -> " +
                               std::to_string(last / window) + ")");
}

void AddTrainLayers(const TrainTotals& t, Run* run) {
  const double per_step = 1e3 / static_cast<double>(t.steps);
  run->per_layer["tensor.train_matmul_ms"] = {t.matmul * per_step, "ms"};
  run->per_layer["tensor.train_softmax_ms"] = {t.softmax * per_step, "ms"};
  run->per_layer["nn.train_attention_ms"] = {t.attention * per_step, "ms"};
  run->per_layer["nn.train_layernorm_ms"] = {t.layernorm * per_step, "ms"};
  run->per_layer["nn.train_embedding_ms"] = {t.embedding * per_step, "ms"};
  run->per_layer["graph.train_sampling_ms"] = {t.sampling * per_step, "ms"};
  run->per_layer["optim.train_update_ms"] = {t.optimizer * per_step, "ms"};
}

// ---------------------------------------------------------------------------
// Offline user-cold evaluation through HirePredictor.

/// The offline user-cold evaluation through HirePredictor at 1 lane. Lists
/// are scored in two halves, one before the serving phase and one after it,
/// so that `eval_lists_per_s` averages the host's speed at both ends of the
/// run; each list is timed on the thread's CPU clock.
class OfflineEval {
 public:
  OfflineEval(const World& world, core::HireModel* model,
              const graph::ContextSampler& sampler, uint64_t seed)
      : world_(world),
        model_(model),
        sampler_(sampler),
        seed_(seed),
        random_(seed ^ 0xD1CEu),
        first_(world.lists.size()) {}

  /// Scores lists [begin, end).
  void Score(size_t begin, size_t end, Run* run) {
    SetGlobalThreads(1);
    core::HirePredictor predictor(model_, &sampler_, kContext, kContext, seed_);
    const float threshold = world_.dataset.RelevanceThreshold();
    const float hi = world_.dataset.max_rating();
    for (size_t l = begin; l < end; ++l) {
      const QueryList& list = world_.lists[l];
      std::vector<float> predicted;
      cpu_s_ += Timed("core.predict_list", [&] {
        predicted = predictor.PredictForUser(list.user, list.items,
                                             *world_.graph);
      }) / 1e3;
      ++lists_;
      run->Check(predicted.size() == list.items.size(),
                 "offline prediction count mismatch");
      if (predicted.size() != list.items.size()) continue;
      for (float p : predicted) {
        run->Check(std::isfinite(p) && p > 0.0f && p <= hi,
                   "offline prediction outside (0, max_rating]");
      }
      ndcg5_ +=
          metrics::ComputeRankingMetrics(predicted, list.truth, 5, threshold)
              .ndcg;
      std::vector<float> noise(list.items.size());
      for (float& v : noise) v = static_cast<float>(random_.Uniform());
      random_ndcg5_ +=
          metrics::ComputeRankingMetrics(noise, list.truth, 5, threshold).ndcg;
      first_[l] = std::move(predicted);
    }
  }

  /// Scores the first `count` lists again with a fresh predictor (untimed);
  /// each answer must repeat the first bitwise.
  void CheckRepeats(size_t count, Run* run) {
    SetGlobalThreads(1);
    core::HirePredictor predictor(model_, &sampler_, kContext, kContext, seed_);
    for (size_t l = 0; l < std::min(count, world_.lists.size()); ++l) {
      const QueryList& list = world_.lists[l];
      run->Check(predictor.PredictForUser(list.user, list.items,
                                          *world_.graph) == first_[l],
                 "offline prediction changed between passes");
    }
  }

  double lists_per_s() const { return static_cast<double>(lists_) / cpu_s_; }

  /// Mean NDCG@5 over the scored lists; checks it beats the random ranking.
  double Ndcg5(Run* run) const {
    const double n = static_cast<double>(lists_);
    std::cerr << "eval: lists=" << lists_ << " ndcg5=" << ndcg5_ / n
              << " random_ndcg5=" << random_ndcg5_ / n << "\n";
    run->Check(ndcg5_ > random_ndcg5_,
               "eval NDCG@5 " + std::to_string(ndcg5_ / n) +
                   " does not beat random ranking " +
                   std::to_string(random_ndcg5_ / n));
    return ndcg5_ / n;
  }

 private:
  const World& world_;
  core::HireModel* model_;
  const graph::ContextSampler& sampler_;
  uint64_t seed_;
  Rng random_;
  std::vector<std::vector<float>> first_;
  int64_t lists_ = 0;
  double cpu_s_ = 0.0;
  double ndcg5_ = 0.0;
  double random_ndcg5_ = 0.0;  // seeded random ranking, same lists
};

/// Lists scored again after the run, which must repeat their first answer.
constexpr size_t kRepeatLists = 16;

// ---------------------------------------------------------------------------
// Layer probe (--trace 1): each layer's public function timed from outside at
// the serve shape, plus the fused-vs-tape equivalence check every run makes.

/// FLOPs of one fused MHSA over [batch, tokens, embed] with `inner` = heads x
/// head width: QKV GEMM, QK^T and AV per head, output GEMM (2 per MAC).
double MhsaFlops(double batch, double tokens, double embed, double inner) {
  return 2 * batch * tokens * embed * 3 * inner +
         4 * batch * tokens * tokens * inner + 2 * batch * tokens * inner * embed;
}

/// FLOPs of InferenceModel::Predict on an n x m context, counted from the
/// tensor shapes (gathers, layer norms and residual adds are left out).
double ForwardFlops(const World& world, double n, double m) {
  const core::HireConfig shape = ModelShape();
  const double slots =
      static_cast<double>(world.dataset.user_schema().size() +
                          world.dataset.item_schema().size() + 1);
  const double f = static_cast<double>(shape.attr_embed_dim);
  const double e = slots * f;
  const double inner = static_cast<double>(shape.num_heads * shape.head_dim);
  const double attr_inner =
      static_cast<double>(shape.num_heads *
                          std::max<int64_t>(1, shape.attr_embed_dim /
                                                   shape.num_heads));
  const double block = MhsaFlops(m, n, e, inner) + MhsaFlops(n, m, e, inner) +
                       MhsaFlops(n * m, slots, f, attr_inner);
  return shape.num_him_blocks * block + 2 * n * m * e;
}

/// Fused forward == tape forward within 1e-4 on sampled contexts.
void CheckFusedMatchesTape(const World& world, core::HireModel* model,
                           const graph::ContextSampler& sampler,
                           uint64_t seed, Run* run) {
  const core::InferenceModel packed(*model);
  core::InferenceArena arena;
  for (size_t l = 0; l < 6; ++l) {
    const graph::PredictionContext context =
        SampleContext(world, sampler, world.lists[l], seed + l);
    const Tensor tape = model->Predict(context);
    const Tensor& fused = packed.Predict(context, &arena);
    float worst = 0.0f;
    for (int64_t i = 0; i < tape.size(); ++i) {
      worst = std::max(worst, std::fabs(tape.data()[i] - fused.data()[i]));
    }
    run->Check(worst <= 1e-4f, "fused forward differs from tape forward by " +
                                   std::to_string(worst));
  }
}

template <typename Fn>
double MedianSpanUs(const std::string& name, int repeats, Fn&& fn) {
  for (int i = 0; i < repeats; ++i) Timed(name, fn);
  return Median(Spans().DurationsUs(name));
}

double GemmMedianUs(const std::string& name, int64_t n, int64_t k, int64_t m,
                    int lanes) {
  SetGlobalThreads(lanes);
  Rng rng(17);
  std::vector<float> a(static_cast<size_t>(n * k)), b(static_cast<size_t>(k * m)),
      c(static_cast<size_t>(n * m));
  for (float& v : a) v = static_cast<float>(rng.Normal());
  for (float& v : b) v = static_cast<float>(rng.Normal());
  for (int i = 0; i < 5; ++i) {
    ops::GemmBiasActInto(a.data(), b.data(), nullptr, c.data(), n, k, m);
  }
  return MedianSpanUs(name, 200, [&] {
    ops::GemmBiasActInto(a.data(), b.data(), nullptr, c.data(), n, k, m);
  });
}

void LayerProbe(const World& world, core::HireModel* model,
                const graph::ContextSampler& sampler,
                const std::string& snapshot, int lanes, uint64_t seed,
                Run* run) {
  auto& layers = run->per_layer;
  const core::HireConfig shape = ModelShape();
  const int64_t slots = static_cast<int64_t>(
      world.dataset.user_schema().size() + world.dataset.item_schema().size() +
      1);
  const int64_t e = slots * shape.attr_embed_dim;
  const int64_t inner = shape.num_heads * shape.head_dim;

  layers["data.generate_ms"] = {Median(Spans().DurationsUs("data.generate")) /
                                    1e3,
                                "ms"};
  layers["graph.build_ms"] = {Median(Spans().DurationsUs("graph.build")) / 1e3,
                              "ms"};

  SetGlobalThreads(lanes);
  layers["core.pack_ms"] = {
      MedianSpanUs("core.pack", 9, [&] { core::InferenceModel packed(*model); }) /
          1e3,
      "ms"};
  {
    serve::InferenceEngine engine(&world.dataset, shape);
    layers["serve.shard_load_ms"] = {
        MedianSpanUs("serve.shard_load", 9, [&] { engine.Load(snapshot); }) /
            1e3,
        "ms"};
  }
  std::vector<graph::PredictionContext> contexts;
  for (size_t l = 0; l < 16; ++l) {
    const QueryList& list = world.lists[l % world.lists.size()];
    Timed("core.plan", [&] {
      core::BuildUserContextPlan(*world.graph, sampler, list.user, kContext,
                                 kContext, seed + l);
    });
    contexts.push_back(SampleContext(world, sampler, list, seed + l));
  }
  layers["core.plan_us"] = {Median(Spans().DurationsUs("core.plan")), "us"};

  const core::InferenceModel packed(*model);
  core::InferenceArena arena;
  auto forward_us = [&](const std::string& name, int forward_lanes) {
    SetGlobalThreads(forward_lanes);
    for (const auto& context : contexts) packed.Predict(context, &arena);
    for (int rep = 0; rep < 8; ++rep) {
      for (const auto& context : contexts) {
        Timed(name, [&] { packed.Predict(context, &arena); });
      }
    }
    return Median(Spans().DurationsUs(name));
  };
  const double forward = forward_us("core.forward", lanes);
  layers["core.forward_us"] = {forward, "us"};
  layers["core.forward_1lane_us"] = {forward_us("core.forward_1lane", 1), "us"};
  layers["core.forward_gflops"] = {
      ForwardFlops(world, kContext, kContext) / (forward * 1e3), "GFLOP/s"};

  // The serve QKV projection: [n*m, e] x [e, 3*inner].
  const int64_t cells = kContext * kContext;
  const double serve_gemm =
      GemmMedianUs("tensor.gemm_serve", cells, e, 3 * inner, lanes);
  layers["tensor.gemm_serve_gflops"] = {
      2.0 * cells * e * 3 * inner / (serve_gemm * 1e3), "GFLOP/s"};
  // The largest training GEMM: a step's two contexts through the QKV width.
  const int64_t train_rows = kTrainBatch * cells;
  const double train_gemm = GemmMedianUs("tensor.gemm_train", train_rows, e,
                                         3 * inner, kScalingLanes);
  const double train_gemm_1 =
      GemmMedianUs("tensor.gemm_train_1lane", train_rows, e, 3 * inner, 1);
  layers["tensor.gemm_train_gflops"] = {
      2.0 * train_rows * e * 3 * inner / (train_gemm * 1e3), "GFLOP/s"};
  layers["tensor.gemm_train_scaling"] = {train_gemm_1 / train_gemm, "x"};

  {
    SetGlobalThreads(lanes);
    Rng rng(29);
    auto random = [&](int64_t rows, int64_t cols) {
      Tensor t({rows, cols});
      for (int64_t i = 0; i < t.size(); ++i) {
        t.data()[i] = static_cast<float>(rng.Normal(0.0, 0.1));
      }
      return t;
    };
    auto bias = [&](int64_t size) {
      Tensor t({size});
      for (int64_t i = 0; i < size; ++i) t.data()[i] = 0.0f;
      return t;
    };
    const nn::FusedAttentionWeights weights = nn::PackAttentionWeights(
        e, shape.num_heads, shape.head_dim, random(e, inner), bias(inner),
        random(e, inner), bias(inner), random(e, inner), bias(inner),
        random(inner, e), bias(e));
    const Tensor x = random(cells, e);
    std::vector<float> out(static_cast<size_t>(cells * e));
    std::vector<float> scratch(
        static_cast<size_t>(weights.ScratchFloats(kContext, kContext)));
    layers["nn.fused_attention_us"] = {
        MedianSpanUs("nn.fused_attention", 200,
                     [&] {
                       nn::FusedAttentionForward(weights, x.data(), kContext,
                                                 kContext, out.data(),
                                                 scratch.data());
                     }),
        "us"};
  }
  layers["core.predict_list_ms"] = {
      Median(Spans().DurationsUs("core.predict_list")) / 1e3, "ms"};
}

// ---------------------------------------------------------------------------
// Serving helpers.

struct Snapshots {
  std::string a;  // served first
  std::string b;  // alternates with `a` on every reload
};

serve::ServeConfig ServeConfigFor(int shards, size_t cache_capacity,
                                  const std::string& model, uint64_t seed) {
  serve::ServeConfig config;
  config.num_shards = shards;
  config.cache_capacity = cache_capacity;
  config.model_path = model;
  config.batcher.context_users = kContext;
  config.batcher.context_items = kContext;
  config.batcher.seed = seed;
  return config;
}

std::vector<data::Rating> GenerationRatings(const World& world,
                                            int64_t generation);

/// Builds graph generation 1, constructs and starts a server on it;
/// `repeats` times, keeping the last server. `median_s` is the median CPU
/// time of the process over one start.
std::unique_ptr<serve::RatingServer> StartServer(
    const World& world, const serve::ServeConfig& config, int repeats,
    double* median_s) {
  std::vector<double> seconds;
  std::unique_ptr<serve::RatingServer> server;
  for (int i = 0; i < repeats; ++i) {
    if (server) server->Stop();
    server.reset();
    const double start = ProcessCpuMs();
    graph::BipartiteGraph generation1(world.dataset.num_users(),
                                      world.dataset.num_items(),
                                      GenerationRatings(world, 1));
    server = std::make_unique<serve::RatingServer>(
        &world.dataset, ModelShape(), std::move(generation1), config);
    server->Start();
    seconds.push_back((ProcessCpuMs() - start) / 1e3);
  }
  *median_s = Median(seconds);
  return server;
}

/// Answer checks shared by both serve workloads.
struct AnswerCheck {
  float max_rating = 5.0f;
  int64_t max_model_version = 1;  // versions 1..max were published
  int64_t max_graph_version = 1;
  int64_t min_model_version = 1;  // what answers submitted now must carry
  int64_t min_graph_version = 1;
};

bool CheckAnswer(const std::vector<float>& predictions, size_t expected,
                 int64_t model_version, int64_t graph_version,
                 const AnswerCheck& check, Run* run) {
  bool ok = predictions.size() == expected;
  run->Check(ok, "answer has " + std::to_string(predictions.size()) +
                     " predictions for " + std::to_string(expected) +
                     " items");
  for (float p : predictions) {
    const bool in_range = std::isfinite(p) && p > 0.0f && p <= check.max_rating;
    run->Check(in_range, "served prediction outside (0, max_rating]");
    ok = ok && in_range;
  }
  const bool versions =
      model_version >= check.min_model_version &&
      model_version <= check.max_model_version &&
      graph_version >= check.min_graph_version &&
      graph_version <= check.max_graph_version;
  run->Check(versions, "answer carries model v" +
                           std::to_string(model_version) + " graph v" +
                           std::to_string(graph_version) +
                           ", outside the published generations");
  return ok && versions;
}

/// Server-side per-layer numbers of one serving phase (unset = the phase did
/// not exercise that layer).
struct ServeLayers {
  std::map<std::string, Metric> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

double HistogramMedian(const obs::MetricsRegistry::Snapshot& delta,
                       const std::string& name) {
  const auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0.0
                                      : obs::HistogramQuantile(it->second, 0.5);
}

double HistogramMean(const obs::MetricsRegistry::Snapshot& delta,
                     const std::string& name) {
  const auto it = delta.histograms.find(name);
  if (it == delta.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

uint64_t CounterDelta(const obs::MetricsRegistry::Snapshot& delta,
                      const std::string& name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

/// Batch occupancy and cache use from the registry delta of one phase.
void AddRegistryLayers(const obs::MetricsRegistry::Snapshot& delta,
                       ServeLayers* layers) {
  const double batches =
      static_cast<double>(CounterDelta(delta, "serve.batches"));
  const double hits =
      static_cast<double>(CounterDelta(delta, "serve.context_cache.hits"));
  const double misses =
      static_cast<double>(CounterDelta(delta, "serve.context_cache.misses"));
  layers->Set("serve.batch_users",
              batches > 0 ? static_cast<double>(CounterDelta(
                                delta, "serve.batched_users")) /
                                batches
                          : 0.0,
              "users");
  layers->Set("serve.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

double ShardSkew(const std::map<int, int64_t>& per_shard, int shards) {
  int64_t total = 0, busiest = 0;
  for (const auto& [shard, count] : per_shard) {
    total += count;
    busiest = std::max(busiest, count);
  }
  return total > 0 ? static_cast<double>(busiest) * shards /
                         static_cast<double>(total)
                   : 0.0;
}

/// Zipf(1) over ranks 0..n-1.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double sum = 0.0;
    for (size_t k = 1; k <= n; ++k) {
      sum += 1.0 / static_cast<double>(k);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(double u) const {
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Parsed /predict answer.
struct HttpAnswer {
  std::vector<float> predictions;
  int64_t model_version = -1;
  int64_t graph_version = -1;
  double latency_us = 0.0;
  int shard = -1;
  bool degraded = false;
};

bool ParseAnswer(const std::string& body, HttpAnswer* answer) {
  double value = 0.0;
  if (!obs::FindJsonNumberField(body, "model_version", &value)) return false;
  answer->model_version = static_cast<int64_t>(value);
  if (!obs::FindJsonNumberField(body, "graph_version", &value)) return false;
  answer->graph_version = static_cast<int64_t>(value);
  if (!obs::FindJsonNumberField(body, "latency_us", &value)) return false;
  answer->latency_us = value;
  if (!obs::FindJsonNumberField(body, "shard", &value)) return false;
  answer->shard = static_cast<int>(value);
  answer->degraded = body.find("\"degraded\":true") != std::string::npos;
  const size_t key = body.find("\"predictions\":[");
  if (key == std::string::npos) return false;
  const char* p = body.c_str() + key + 15;
  while (*p != ']') {
    char* end = nullptr;
    const float v = std::strtof(p, &end);
    if (end == p) return false;
    answer->predictions.push_back(v);
    p = end;
    if (*p == ',') ++p;
  }
  return true;
}

std::string PredictBody(const QueryList& request) {
  std::string body = "{\"user\":" + std::to_string(request.user) +
                     ",\"items\":[";
  for (size_t i = 0; i < request.items.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(request.items[i]);
  }
  return body + "]}";
}

// ---------------------------------------------------------------------------
// Open-loop HTTP phase (serve_paced, and the serving probe of traced runs).

struct PacedOptions {
  int shards = 1;
  double rate = 0.0;     // Poisson arrivals per second
  double seconds = 0.0;  // schedule length
  int connections = 4;   // keep-alive sender connections (<= nproc)
};

struct PacedResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // from each request's scheduled send
  double elapsed_s = 0.0;
  Quality quality;
  ServeLayers layers;
};

PacedResult RunPaced(const World& world, serve::RatingServer* server,
                     const PacedOptions& options, const AnswerCheck& check,
                     uint64_t seed, Run* run) {
  const std::vector<QueryList>& pool = world.lists;

  // Warm-up: every user once, so every context plan is cached and every
  // arena has seen the serve shape before timing starts.
  {
    std::vector<std::thread> warmers;
    for (int c = 0; c < options.connections; ++c) {
      warmers.emplace_back([&, c] {
        serve::HttpClient client(server->port());
        for (size_t i = c; i < pool.size(); i += options.connections) {
          client.Post("/predict", PredictBody(pool[i]));
        }
      });
    }
    for (std::thread& warmer : warmers) warmer.join();
  }

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(options.rate);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const Zipf zipf(pool.size());
  std::vector<double> due_s;
  std::vector<size_t> who;
  for (double t = gap(rng); t < options.seconds; t += gap(rng)) {
    due_s.push_back(t);
    who.push_back(zipf.Draw(uniform(rng)));
  }
  const size_t total = due_s.size();

  struct Sample {
    bool ok = false;
    double latency_ms = 0.0, late_us = 0.0, transport_us = 0.0;
    HttpAnswer answer;
  };
  std::vector<Sample> samples(total);
  std::atomic<size_t> next{0};
  const auto before = obs::MetricsRegistry::Global().Take();
  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (int c = 0; c < options.connections; ++c) {
    senders.emplace_back([&] {
      serve::HttpClient client(server->port());
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const Clock::time_point due =
            epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const serve::HttpClient::Result result =
            client.Post("/predict", PredictBody(pool[who[i]]));
        const Clock::time_point done = Clock::now();
        Spans().Add("loadgen.request", sent, done);
        Sample& sample = samples[i];
        sample.late_us = MicrosBetween(due, sent);
        sample.latency_ms = MicrosBetween(due, done) / 1e3;
        sample.ok = result.ok && result.status == 200 &&
                    ParseAnswer(result.body, &sample.answer) &&
                    !sample.answer.degraded;
        sample.transport_us =
            MicrosBetween(sent, done) - sample.answer.latency_us;
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  PacedResult result;
  result.elapsed_s = MillisSince(epoch) / 1e3;
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);

  std::vector<double> late, transport;
  std::map<int, int64_t> per_shard;
  for (size_t i = 0; i < total; ++i) {
    const Sample& sample = samples[i];
    const QueryList& request = pool[who[i]];
    ++result.attempted;
    if (!sample.ok ||
        !CheckAnswer(sample.answer.predictions, request.items.size(),
                     sample.answer.model_version, sample.answer.graph_version,
                     check, run)) {
      ++result.failed;
      continue;
    }
    result.latency_ms.push_back(sample.latency_ms);
    late.push_back(sample.late_us);
    transport.push_back(sample.transport_us);
    ++per_shard[sample.answer.shard];
    result.quality.Add(request, sample.answer.predictions, world.train_mean);
  }

  ServeLayers& layers = result.layers;
  const double queue = HistogramMedian(delta, "serve.stage.queue_us.served");
  const double batch_form =
      HistogramMedian(delta, "serve.stage.batch_form_us.served");
  const double forward =
      HistogramMedian(delta, "serve.stage.forward_us.served");
  layers.Set("serve.queue_us", queue, "us");
  layers.Set("serve.batch_form_us", batch_form, "us");
  layers.Set("serve.forward_us", forward, "us");
  layers.Set("serve.transport_us", Median(transport), "us");
  layers.Set("serve.serialize_write_us",
             HistogramMean(delta, "serve.stage.serialize_us.served") +
                 HistogramMean(delta, "serve.stage.write_us.served"),
             "us");
  layers.Set("loadgen.late_us", Quantile(late, 0.99), "us");
  if (options.shards > 1) {
    layers.Set("serve.shard_skew", ShardSkew(per_shard, options.shards),
               "ratio");
  }
  // Stage closure: the median stages plus transport against the client p50.
  const double p50_ms = Median(result.latency_ms);
  const double stages_ms = (queue + batch_form + forward + Median(transport)) /
                           1e3;
  layers.Set("serve.stage_closure_gap_ms", p50_ms - stages_ms, "ms");
  AddRegistryLayers(delta, &layers);
  std::cerr << "paced: shards=" << options.shards << " rate=" << options.rate
            << " requests=" << total << " p50_ms=" << p50_ms
            << " p90_ms=" << Quantile(result.latency_ms, 0.9)
            << " p95_ms=" << Quantile(result.latency_ms, 0.95)
            << " p99_ms=" << Quantile(result.latency_ms, 0.99)
            << " stages+transport_ms=" << stages_ms
            << " closure_gap=" << (p50_ms - stages_ms) / p50_ms * 100 << "%\n";
  return result;
}

/// Median wall time of `rounds` graph publishes and rolling reloads on an
/// idle server, each followed by one request that must carry the new
/// versions.
struct PublishResult {
  std::vector<double> graph_update_ms;
  std::vector<double> reload_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Ratings of served graph generation `generation` (1, 2, ...). Every
/// eighth warm rating is held back from generation 1 as a reserve of "new"
/// ratings in four chunks; generation g carries (g - 1) % 5 of the chunks,
/// so each publish adds (or, every fifth, withdraws) real ratings while the
/// universe and the held-out query pairs stay untouched.
std::vector<data::Rating> GenerationRatings(const World& world,
                                            int64_t generation) {
  const size_t train = world.split.train_ratings.size();
  const size_t chunks = static_cast<size_t>((generation - 1) % 5);
  std::vector<data::Rating> ratings;
  ratings.reserve(world.visible.size());
  for (size_t r = 0; r < world.visible.size(); ++r) {
    const bool reserve = r < train && r % 8 == 7;
    if (!reserve || (r / 8) % 4 < chunks) ratings.push_back(world.visible[r]);
  }
  return ratings;
}

/// Builds and publishes generation `generation`; returns the calling
/// thread's CPU time in ms.
double PublishGraph(const World& world, serve::RatingServer* server,
                    int64_t generation) {
  std::vector<data::Rating> ratings = GenerationRatings(world, generation);
  return Timed("serve.graph_update", [&] {
    graph::BipartiteGraph next(world.dataset.num_users(),
                               world.dataset.num_items(), ratings);
    server->UpdateGraph(std::move(next));
  });
}

PublishResult IdlePublishes(const World& world, serve::RatingServer* server,
                            const Snapshots& snapshots, int rounds,
                            AnswerCheck* check, Run* run) {
  PublishResult result;
  const QueryList& probe = world.lists.front();
  for (int r = 0; r < rounds; ++r) {
    result.graph_update_ms.push_back(
        PublishGraph(world, server, server->graph_version() + 1));
    const std::string& path = r % 2 == 0 ? snapshots.b : snapshots.a;
    int64_t version = 0;
    result.reload_ms.push_back(
        Timed("serve.reload", [&] { version = server->Reload(path); }));
    check->max_model_version = check->min_model_version = version;
    check->max_graph_version = check->min_graph_version =
        server->graph_version();
    serve::RatingResponse answer = server->Predict(probe.user, probe.items);
    ++result.attempted;
    if (!answer.ok || answer.degraded ||
        !CheckAnswer(answer.predictions, probe.items.size(),
                     answer.model_version, answer.graph_version, *check,
                     run)) {
      ++result.failed;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Closed-loop in-process phase under model and graph churn (serve_churn).

struct ChurnOptions {
  int shards = 4;
  int outstanding = 0;      // requests kept in flight by the generator
  int round_requests = 0;   // closed-loop requests per round
  int replay_fillers = 1;   // co-batched users in each replay
};

struct ChurnResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t requests = 0;
  std::vector<double> latency_ms;
  double elapsed_s = 0.0;
  std::vector<double> graph_update_ms, reload_ms, replay_drift;
  Quality quality;
  ServeLayers layers;
};

/// Completion queue the batch workers push answers into; the generator
/// thread is the only consumer.
class Completions {
 public:
  void Push(size_t slot, serve::RatingResponse response) {
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.push_back({slot, now, std::move(response)});
    }
    cv_.notify_one();
  }
  struct Done {
    size_t slot;
    Clock::time_point at;
    serve::RatingResponse response;
  };
  Done Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !done_.empty(); });
    Done done = std::move(done_.front());
    done_.pop_front();
    return done;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Done> done_;
};

/// The writer: on each signal it publishes the next graph generation and
/// then rolls the fleet onto the other snapshot, while reads keep flowing.
class ChurnWriter {
 public:
  ChurnWriter(const World& world, serve::RatingServer* server,
              const Snapshots& snapshots)
      : world_(world), server_(server), snapshots_(snapshots) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ChurnWriter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  void Signal() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++requested_;
    }
    cv_.notify_all();
  }
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return completed_ == requested_; });
    if (!error_.empty()) throw std::runtime_error("churn writer: " + error_);
  }
  /// Versions every answer submitted from now on must carry at least.
  int64_t min_model() const { return min_model_.load(); }
  int64_t min_graph() const { return min_graph_.load(); }
  int64_t max_model() const { return max_model_.load(); }
  int64_t max_graph() const { return max_graph_.load(); }
  std::vector<double> graph_update_ms, reload_ms;  // read after WaitIdle

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || completed_ < requested_; });
      if (stop_) return;
      lock.unlock();
      try {
        const int64_t generation = server_->graph_version() + 1;
        max_graph_.store(generation);
        const double update = PublishGraph(world_, server_, generation);
        min_graph_.store(server_->graph_version());
        const std::string& path = ++reloads_ % 2 == 1 ? snapshots_.b
                                                      : snapshots_.a;
        max_model_.store(max_model_.load() + 1);
        int64_t version = 0;
        const double reload =
            Timed("serve.reload", [&] { version = server_->Reload(path); });
        min_model_.store(version);
        lock.lock();
        graph_update_ms.push_back(update);
        reload_ms.push_back(reload);
      } catch (const std::exception& e) {
        lock.lock();
        error_ = e.what();
      }
      ++completed_;
      cv_.notify_all();
    }
  }

  const World& world_;
  serve::RatingServer* server_;
  const Snapshots& snapshots_;
  int64_t reloads_ = 0;
  std::atomic<int64_t> min_model_{1}, min_graph_{1}, max_model_{1},
      max_graph_{1};
  std::mutex mutex_;
  std::condition_variable cv_;
  int64_t requested_ = 0;
  int64_t completed_ = 0;
  bool stop_ = false;
  std::string error_;
  std::thread thread_;  // last: started after every member it uses
};

ChurnResult RunChurn(const World& world, serve::RatingServer* server,
                     const Snapshots& snapshots, const ChurnOptions& options,
                     double seconds, uint64_t seed, Run* run) {
  const std::vector<QueryList>& pool = world.lists;
  serve::ShardRouter& router = server->router();
  const float max_rating = world.dataset.max_rating();

  // Warm-up outside the timed rounds: every user once, all in flight.
  {
    Completions warm;
    for (size_t i = 0; i < pool.size(); ++i) {
      router.SubmitAsync(pool[i].user, pool[i].items, std::nullopt,
                         [&warm, i](serve::RatingResponse response) {
                           warm.Push(i, std::move(response));
                         });
    }
    for (size_t i = 0; i < pool.size(); ++i) warm.Pop();
  }

  struct Slot {
    const QueryList* request = nullptr;
    Clock::time_point submitted;
    AnswerCheck check;
  };
  std::vector<Slot> slots;
  Completions completions;
  ChurnWriter writer(world, server, snapshots);
  std::mt19937_64 rng(seed);
  // The working set: as many users on every shard as the ring routes to its
  // least-loaded shard, so the busiest shard does not set the pace by a
  // margin that depends on how the seed's users happen to hash.
  std::vector<std::vector<const QueryList*>> by_shard(
      static_cast<size_t>(options.shards));
  for (const QueryList& list : pool) {
    by_shard[static_cast<size_t>(router.ShardForUser(list.user))].push_back(
        &list);
  }
  size_t per_shard_users = pool.size();
  for (const auto& users : by_shard) {
    per_shard_users = std::min(per_shard_users, users.size());
  }
  std::vector<const QueryList*> working;
  for (const auto& users : by_shard) {
    working.insert(working.end(), users.begin(),
                   users.begin() + static_cast<int64_t>(per_shard_users));
  }
  if (working.empty()) throw std::runtime_error("a shard routes no user");
  std::uniform_int_distribution<size_t> pick(0, working.size() - 1);
  ChurnResult result;
  std::map<int, int64_t> per_shard;
  std::vector<double> queue_us, batch_form_us, forward_us;

  auto submit = [&](const QueryList* request) {
    Slot slot;
    slot.request = request;
    slot.check.max_rating = max_rating;
    slot.check.min_model_version = writer.min_model();
    slot.check.min_graph_version = writer.min_graph();
    slot.submitted = Clock::now();
    slots.push_back(slot);
    const size_t index = slots.size() - 1;
    router.SubmitAsync(request->user, request->items, std::nullopt,
                       [&completions, index](serve::RatingResponse response) {
                         completions.Push(index, std::move(response));
                       });
  };
  // Records a completed closed-loop answer; returns whether it passed.
  auto record = [&](Completions::Done& done, bool timed) {
    Slot& slot = slots[done.slot];
    const serve::RatingResponse& answer = done.response;
    slot.check.max_model_version = writer.max_model();
    slot.check.max_graph_version = writer.max_graph();
    const bool ok = answer.ok && !answer.degraded &&
                    CheckAnswer(answer.predictions, slot.request->items.size(),
                                answer.model_version, answer.graph_version,
                                slot.check, run);
    if (!ok) {
      if (!answer.ok) run->Check(false, "request failed: " + answer.error);
      return false;
    }
    ++per_shard[answer.shard];
    if (timed) {
      result.latency_ms.push_back(MicrosBetween(slot.submitted, done.at) / 1e3);
      queue_us.push_back(answer.stages.at(serve::RequestStage::kQueue));
      batch_form_us.push_back(
          answer.stages.at(serve::RequestStage::kBatchForm));
      forward_us.push_back(answer.stages.at(serve::RequestStage::kForward));
    }
    result.quality.Add(*slot.request, answer.predictions, world.train_mean);
    return true;
  };

  const auto before = obs::MetricsRegistry::Global().Take();
  const Clock::time_point start = Clock::now();
  for (int64_t round = 0; round == 0 || MillisSince(start) < seconds * 1e3;
       ++round) {
    // Closed loop: keep `outstanding` requests in flight; the writer
    // publishes a graph generation and a reload halfway through the round.
    int submitted = 0, completed = 0;
    while (completed < options.round_requests) {
      while (submitted < options.round_requests &&
             submitted - completed < options.outstanding) {
        submit(working[pick(rng)]);
        if (++submitted == options.round_requests / 2) writer.Signal();
      }
      Completions::Done done = completions.Pop();
      ++completed;
      ++result.requests;
      if (!record(done, true)) ++result.failed;
    }
    writer.WaitIdle();
    result.attempted += options.round_requests + 2;  // + update + reload

    // Replay: the round's user alone, then the same request co-batched
    // with `replay_fillers` users of its shard, under unchanged versions.
    const QueryList& target = pool[static_cast<size_t>(round) % pool.size()];
    const int shard = router.ShardForUser(target.user);
    std::vector<const QueryList*> fillers;
    for (const QueryList& other : pool) {
      if (static_cast<int>(fillers.size()) == options.replay_fillers) break;
      if (other.user != target.user &&
          router.ShardForUser(other.user) == shard) {
        fillers.push_back(&other);
      }
    }
    submit(&target);
    Completions::Done solo = completions.Pop();
    const bool solo_ok = record(solo, false);
    for (const QueryList* filler : fillers) submit(filler);
    submit(&target);
    const size_t replay_slot = slots.size() - 1;
    std::optional<Completions::Done> replay;
    for (size_t i = 0; i <= fillers.size(); ++i) {
      Completions::Done done = completions.Pop();
      if (done.slot == replay_slot) {
        replay = std::move(done);
      } else if (!record(done, false)) {
        ++result.failed;
      }
    }
    result.requests += static_cast<int64_t>(fillers.size()) + 2;
    result.attempted += static_cast<int64_t>(fillers.size()) + 2;
    if (!solo_ok) ++result.failed;
    const serve::RatingResponse& first = solo.response;
    const serve::RatingResponse& again = replay->response;
    run->Check(first.model_version == again.model_version &&
                   first.graph_version == again.graph_version,
               "replay ran under a different model or graph version");
    float drift = again.ok && again.predictions.size() ==
                                  first.predictions.size()
                      ? 0.0f
                      : INFINITY;
    for (size_t j = 0; std::isfinite(drift) && j < first.predictions.size();
         ++j) {
      drift = std::max(drift,
                       std::fabs(first.predictions[j] - again.predictions[j]));
    }
    result.replay_drift.push_back(drift);
    if (!(drift <= 1e-5f)) ++result.failed;
  }
  result.elapsed_s = MillisSince(start) / 1e3;
  const auto delta = obs::MetricsRegistry::Global().Take().Delta(before);
  result.graph_update_ms = writer.graph_update_ms;
  result.reload_ms = writer.reload_ms;

  ServeLayers& layers = result.layers;
  layers.Set("serve.queue_us", Median(queue_us), "us");
  layers.Set("serve.batch_form_us", Median(batch_form_us), "us");
  layers.Set("serve.forward_us", Median(forward_us), "us");
  layers.Set("serve.shard_skew", ShardSkew(per_shard, options.shards),
             "ratio");
  AddRegistryLayers(delta, &layers);
  std::cerr << "churn: working_set=" << working.size()
            << " rounds=" << result.replay_drift.size()
            << " requests=" << result.requests
            << " replay drift mean=" << Mean(result.replay_drift)
            << " max=" << Quantile(result.replay_drift, 1.0)
            << " stars shard_skew=" << layers.values["serve.shard_skew"].value
            << " batch_users=" << layers.values["serve.batch_users"].value
            << " forward_us=" << Median(forward_us)
            << " queue_us=" << Median(queue_us) << "\n";
  return result;
}

// ---------------------------------------------------------------------------
// Workloads.

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Scores the second half of the lists and records the offline metrics.
void FinishOffline(double setup_s, const TrainTotals& train,
                   OfflineEval* eval, const World& world, Run* run) {
  eval->Score(world.lists.size() / 2, world.lists.size(), run);
  eval->CheckRepeats(kRepeatLists, run);
  auto& m = run->end_to_end;
  m["setup_s"] = {setup_s, "s"};
  m["train_step_ms"] = {train.cpu_ms / static_cast<double>(train.steps), "ms"};
  m["eval_lists_per_s"] = {eval->lists_per_s(), "lists/s"};
  m["eval_ndcg5"] = {eval->Ndcg5(run), "NDCG"};
}

void AddLatency(const std::vector<double>& latency_ms, double ops,
                double elapsed_s, const Quality& quality, Run* run) {
  auto& m = run->end_to_end;
  m["p50_ms"] = {Quantile(latency_ms, 0.5), "ms"};
  // p95, not p99: a serve_paced run leaves only ~9 samples beyond p99, and
  // a few host stalls then move it by a quarter from run to run.
  m["p95_ms"] = {Quantile(latency_ms, 0.95), "ms"};
  m["throughput_rps"] = {ops / elapsed_s, "req/s"};
  const double rmse = quality.Rmse();
  const double mean_rmse = quality.MeanRmse();
  m["served_rmse"] = {rmse, "stars"};
  run->Check(rmse < mean_rmse, "RMSE " + std::to_string(rmse) +
                                   " does not beat the global-mean predictor " +
                                   std::to_string(mean_rmse));
  std::cerr << "quality: rmse=" << rmse << " global_mean_rmse=" << mean_rmse
            << " samples=" << latency_ms.size() << "\n";
}

/// Serving probe of traced runs: a short open-loop HTTP phase against a
/// 4-shard fleet fills the serving layers the workload itself lacks.
void AddServeLayers(const World& world, const ServeLayers& own,
                    const std::string& snapshot, uint64_t seed, Run* run) {
  for (const auto& [name, metric] : own.values) run->per_layer[name] = metric;
  SetGlobalThreads(1);
  double unused = 0.0;
  auto server =
      StartServer(world, ServeConfigFor(4, 1024, snapshot, seed), 1, &unused);
  PacedOptions options;
  options.shards = 4;
  options.rate = 100.0;
  options.seconds = 2.0;
  AnswerCheck check;
  check.max_rating = world.dataset.max_rating();
  Run probe_run;
  const PacedResult probe =
      RunPaced(world, server.get(), options, check, seed ^ 0xF00Du, &probe_run);
  server->Stop();
  run->Check(probe_run.correct && probe.failed == 0,
             "serving probe failed its checks");
  for (const auto& [name, metric] : probe.layers.values) {
    run->per_layer.emplace(name, metric);  // the workload's own value wins
  }
}

/// The offline part of every run before serving: trains the two snapshots a
/// serving workload serves, checks the fused forward against the tape and
/// scores the first half of the user-cold lists offline with the first
/// snapshot (`eval`, which keeps its own copy of the model). The steps up to
/// the first snapshot are the timed steps (`timed`). Returns the trained
/// model (at snapshot b).
std::unique_ptr<core::HireModel> TrainAndScore(
    const World& world, const graph::ContextSampler& sampler, uint64_t seed,
    const std::string& scratch, Snapshots* snapshots,
    std::unique_ptr<core::HireModel>* scored,
    std::unique_ptr<OfflineEval>* eval, TrainTotals* timed, Run* run) {
  auto model = std::make_unique<core::HireModel>(&world.dataset, ModelShape(),
                                                 seed + 11);
  const core::TrainStats stats =
      TrainSteps(world, sampler, model.get(), kTrainSteps, seed + 1, timed);
  CheckLossFell(stats, run);
  CheckFusedMatchesTape(world, model.get(), sampler, seed, run);
  snapshots->a = scratch + "/snapshot-a.snap";
  snapshots->b = scratch + "/snapshot-b.snap";
  nn::SaveParameters(*model, snapshots->a);
  *scored = std::make_unique<core::HireModel>(&world.dataset, ModelShape(), 0);
  nn::LoadParameters(scored->get(), snapshots->a);
  (*scored)->SetTraining(false);
  *eval = std::make_unique<OfflineEval>(world, scored->get(), sampler,
                                        seed + 2);
  (*eval)->Score(0, world.lists.size() / 2, run);
  TrainTotals untimed;
  TrainSteps(world, sampler, model.get(), kSnapshotSteps, seed + 3, &untimed);
  nn::SaveParameters(*model, snapshots->b);
  return model;
}

void ServePaced(uint64_t seed, double seconds, const std::string& scratch,
                Run* run) {
  constexpr int kLanes = 1;  // serving
  SetGlobalThreads(kLanes);
  double world_s = 0.0;
  World world = MakeWorldTimed(seed, &world_s);
  graph::NeighborhoodSampler sampler;
  Snapshots snapshots;
  std::unique_ptr<core::HireModel> scored;
  std::unique_ptr<OfflineEval> eval;
  TrainTotals train;
  auto model = TrainAndScore(world, sampler, seed, scratch, &snapshots,
                             &scored, &eval, &train, run);

  SetGlobalThreads(kLanes);
  double server_s = 0.0;
  auto server = StartServer(world, ServeConfigFor(1, 1024, snapshots.a, seed),
                            kSetupRepeats, &server_s);

  // Graph publishes and rolling reloads of the single shard, with the server
  // idle: half before the paced phase and half after it.
  AnswerCheck check;
  check.max_rating = world.dataset.max_rating();
  PublishResult publish = IdlePublishes(world, server.get(), snapshots,
                                        kIdlePublishes / 2, &check, run);

  PacedOptions options;
  options.shards = 1;
  options.rate = kPacedRate;
  options.seconds = seconds;
  const PacedResult paced =
      RunPaced(world, server.get(), options, check, seed, run);
  AddLatency(paced.latency_ms,
             static_cast<double>(paced.attempted - paced.failed),
             paced.elapsed_s, paced.quality, run);

  const PublishResult after = IdlePublishes(world, server.get(), snapshots,
                                            kIdlePublishes / 2, &check, run);
  server->Stop();
  publish.graph_update_ms.insert(publish.graph_update_ms.end(),
                                 after.graph_update_ms.begin(),
                                 after.graph_update_ms.end());
  publish.reload_ms.insert(publish.reload_ms.end(), after.reload_ms.begin(),
                           after.reload_ms.end());
  publish.attempted += after.attempted;
  publish.failed += after.failed;
  FinishOffline(world_s + server_s, train, eval.get(), world, run);
  run->end_to_end["reload_ms"] = {Median(publish.reload_ms), "ms"};
  run->end_to_end["graph_update_ms"] = {Median(publish.graph_update_ms), "ms"};
  run->attempted = paced.attempted + publish.attempted;
  run->failed = paced.failed + publish.failed;

  if (Spans().enabled()) {
    AddTrainLayers(train, run);
    LayerProbe(world, model.get(), sampler, snapshots.a, kLanes, seed, run);
    AddServeLayers(world, paced.layers, snapshots.a, seed, run);
  }
}

void ServeChurn(uint64_t seed, double seconds, const std::string& scratch,
                Run* run) {
  constexpr int kLanes = 1;  // serving, per shard
  SetGlobalThreads(kLanes);
  double world_s = 0.0;
  World world = MakeWorldTimed(seed, &world_s);
  graph::NeighborhoodSampler sampler;
  Snapshots snapshots;
  std::unique_ptr<core::HireModel> scored;
  std::unique_ptr<OfflineEval> eval;
  TrainTotals train;
  auto model = TrainAndScore(world, sampler, seed, scratch, &snapshots,
                             &scored, &eval, &train, run);

  SetGlobalThreads(kLanes);
  ChurnOptions options;
  options.shards = 4;
  options.outstanding = kChurnOutstanding;
  options.round_requests = 400;
  // 8 plans per shard against a working set of ~50 users per shard: most
  // lookups miss even between graph publishes.
  double server_s = 0.0;
  auto server =
      StartServer(world, ServeConfigFor(options.shards, 32, snapshots.a, seed),
                  kSetupRepeats, &server_s);

  const ChurnResult churn =
      RunChurn(world, server.get(), snapshots, options, seconds, seed, run);
  server->Stop();
  FinishOffline(world_s + server_s, train, eval.get(), world, run);
  AddLatency(churn.latency_ms, static_cast<double>(churn.requests),
             churn.elapsed_s, churn.quality, run);
  run->end_to_end["reload_ms"] = {Median(churn.reload_ms), "ms"};
  run->end_to_end["graph_update_ms"] = {Median(churn.graph_update_ms), "ms"};
  run->attempted = churn.attempted;
  run->failed = churn.failed;

  if (Spans().enabled()) {
    AddTrainLayers(train, run);
    LayerProbe(world, model.get(), sampler, snapshots.a, kLanes, seed, run);
    AddServeLayers(world, churn.layers, snapshots.a, seed, run);
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      args.scratch.empty() || !(args.seconds > 0)) {
    throw std::invalid_argument(
        "usage: hire_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --scratch <dir>");
  }
  return args;
}

void PrintResult(const Run& run, const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\":" << (run.correct ? "true" : "false")
      << ",\"attempted\":" << run.attempted << ",\"failed\":" << run.failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ",") << "\"" << name
        << "\":{\"value\":" << obs::JsonNumber(metric.value)
        << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    using WorkloadFn = void (*)(uint64_t, double, const std::string&, Run*);
    const std::map<std::string, WorkloadFn> workloads = {
        {"serve_paced", ServePaced},
        {"serve_churn", ServeChurn},
    };
    const auto found = workloads.find(args.workload);
    if (found == workloads.end()) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    SetLogLevel(LogLevel::kWarning);
    if (args.trace) Spans().Enable();

    const std::string scratch = args.scratch + "/run-" +
                                std::to_string(::getpid());
    std::filesystem::create_directories(scratch);
    Run run;
    try {
      found->second(args.seed, args.seconds, scratch, &run);
    } catch (...) {
      std::filesystem::remove_all(scratch);
      throw;
    }
    std::filesystem::remove_all(scratch);
    run.end_to_end["rss_mb"] = {PeakRssMiB(), "MiB"};

    for (const std::string& problem : run.problems) {
      std::cerr << "check failed: " << problem << "\n";
    }
    if (args.trace) {
      const std::string dir = args.scratch + "/traces";
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/" + args.workload + "-" +
                               std::to_string(args.seed) + ".json";
      Spans().WriteChromeTrace(path);
      std::cerr << "trace: " << path << "\n";
      // Traced end-to-end numbers, for the tracing overhead.
      for (const auto& [name, metric] : run.end_to_end) {
        std::cerr << "traced " << name << " = " << metric.value << "\n";
      }
    }
    PrintResult(run, args.trace ? run.per_layer : run.end_to_end);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "hire_bench: " << error.what() << "\n";
    return 1;
  }
}
