// Serving benchmark: drives one workload through the program's public front
// door, ServingDriver::Run, for a fixed number of rounds sized by --seconds,
// checks the outputs, and prints one JSON result line.
//
//   perfbench --workload <churn_hnsw|repeat_stage0> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//
// --trace 0 prints the end-to-end metrics (tracing off while timed);
// --trace 1 serves the same stream with the flight recorder on and prints
// the per-layer metrics. See README.md for the workloads and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/embedding/embedder.h"
#include "src/obs/trace.h"
#include "src/serving/driver.h"
#include "src/workload/dataset.h"
#include "src/workload/query_generator.h"

namespace perfbench {
namespace {

using namespace iccache;
using Clock = std::chrono::steady_clock;

// --- Input shape (README "Workloads and inputs") ----------------------------
constexpr size_t kSeedPool = 10000;         // examples seeded before serving
constexpr size_t kSegment = 512;            // requests per Run round
constexpr double kArrivalRps = 4.0;         // open-loop Poisson rate (simulated)
constexpr double kSegmentGapS = 600.0;      // idle simulated time between rounds
constexpr size_t kRepeatWarmup = 512;       // repeat_stage0: unique head
constexpr double kRepeatShare = 0.5;        // repeat_stage0: verbatim repeats after it
constexpr size_t kRepeatWindow = 1024;      // repeats copy one of the last N requests
constexpr size_t kTimedThreads = 2;         // pool threads of the timed driver run
constexpr size_t kOtherThreads = 4;         // thread count of the identity check run
constexpr size_t kFurtherRequests = 128;    // served after the snapshot restore
// Rounds served per second of --seconds: a run serves a fixed number of
// rounds, ceil(seconds x rate), so the work it measures does not depend on
// how fast the build is. Sized so that 30 s is 25-30 s of serving on a
// 4-vCPU x86-64 VM. Both workloads get costlier per request as they run
// (repeat_stage0's stage-0 tier fills to its bound and its k-means pool
// grows), so serving "until the time is up" would charge a faster build with
// more of the costly regime.
constexpr double kChurnRoundsPerSecond = 0.66;   // 20 rounds at 30 s
constexpr double kRepeatRoundsPerSecond = 1.25;  // 38 rounds at 30 s
// Safety cap: serving stops after this multiple of --seconds of wall time.
constexpr double kServingCapFactor = 3.0;
// A run whose machine-wide steal share is above this is flagged on stderr.
constexpr double kStealNoteShare = 0.10;
// churn_hnsw: a byte budget below the ~13.4 MiB seeded pool keeps eviction
// running; maintenance and checkpoints tick many times per run.
constexpr int64_t kChurnBudgetBytes = 9 * 1024 * 1024;
constexpr double kChurnDecayIntervalS = 60.0;
constexpr double kChurnReplayIntervalS = 60.0;
constexpr double kChurnCheckpointIntervalS = 150.0;
constexpr size_t kProxyPretrainSamples = 1500;
// Stage-1 recall floors (README "Correctness checks").
constexpr size_t kRecallQueries = 64;
constexpr size_t kRecallK = 10;
constexpr double kRecallFloorHnsw = 0.90;
constexpr double kRecallFloorKMeans = 0.60;
// Replay sizes for the per-layer isolation timings.
constexpr size_t kReplayTexts = 2048;
constexpr size_t kReplayQueries = 1024;
constexpr size_t kReplaySearchQueries = 256;
constexpr size_t kReplayChunk = 16;
constexpr size_t kReplayPuts = 256;
constexpr size_t kStage0Bound = 4096;
constexpr size_t kStage0ReplayPuts = 512;

enum class Workload { kChurnHnsw, kRepeatStage0 };

struct Options {
  Workload workload = Workload::kChurnHnsw;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
};

// Rounds the run serves; the traced run needs two for its ABBA order.
size_t PlannedRounds(const Options& options) {
  const double rate = options.workload == Workload::kChurnHnsw ? kChurnRoundsPerSecond
                                                               : kRepeatRoundsPerSecond;
  const size_t rounds = static_cast<size_t>(std::ceil(options.seconds * rate));
  return std::max<size_t>(rounds, options.trace ? 2 : 1);
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// Machine-wide busy and stolen CPU ticks from the "cpu" line of /proc/stat.
// Steal is time the hypervisor ran other guests while a vCPU of this one was
// runnable; zeros when the file cannot be read. It is reported next to the
// result as a note on the environment, never folded into a metric.
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal &&
      cpu == "cpu") {
    ticks.busy = user + nice + system + irq + softirq;
    ticks.steal = steal;
  }
  return ticks;
}

// Share of the machine's running time since `start` that was stolen.
double StealShare(const CpuTicks& start) {
  const CpuTicks end = ReadCpuTicks();
  const double busy = static_cast<double>(end.busy - start.busy);
  const double steal = static_cast<double>(end.steal - start.steal);
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Exact nearest-rank order statistic.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Inputs: an LMSys-profile stream of `rounds` rounds, generated from the seed
// before set-up. Rounds are separated by kSegmentGapS of idle simulated time,
// so every round starts against a drained cluster (Run drains it before
// returning).

class RequestStream {
 public:
  RequestStream(uint64_t seed, bool repeats, size_t rounds)
      : generator_(GetDatasetProfile(DatasetId::kLmsysChat), Mix64(seed ^ 0x5747ea)),
        rng_(Mix64(seed ^ 0xa771e5)),
        repeats_(repeats) {
    segments_.reserve(rounds);
    while (segments_.size() < rounds) {
      Generate();
    }
  }

  const std::vector<Request>& segment(size_t index) const { return segments_.at(index); }

  // The first `rounds` rounds, back to back.
  std::vector<Request> Flatten(size_t rounds) const {
    std::vector<Request> all;
    for (size_t i = 0; i < rounds; ++i) {
      all.insert(all.end(), segments_[i].begin(), segments_[i].end());
    }
    return all;
  }

 private:
  void Generate() {
    std::vector<Request> segment;
    segment.reserve(kSegment);
    for (size_t i = 0; i < kSegment; ++i) {
      Request request = generator_.Next();
      const size_t seen = segments_.size() * kSegment + i;
      if (repeats_ && seen >= kRepeatWarmup && rng_.Bernoulli(kRepeatShare)) {
        const size_t index =
            seen - 1 - rng_.UniformInt(std::min<uint64_t>(kRepeatWindow, seen));
        const Request& source = index / kSegment < segments_.size()
                                    ? segments_[index / kSegment][index % kSegment]
                                    : segment[index % kSegment];
        request.text = source.text;
        request.dataset = source.dataset;
        request.task = source.task;
        request.topic_id = source.topic_id;
        request.intent_id = source.intent_id;
        request.difficulty = source.difficulty;
        request.input_tokens = source.input_tokens;
        request.target_output_tokens = source.target_output_tokens;
      }
      clock_ += rng_.Exponential(kArrivalRps);
      request.arrival_time = clock_;
      segment.push_back(std::move(request));
    }
    clock_ += kSegmentGapS;
    segments_.push_back(std::move(segment));
  }

  QueryGenerator generator_;
  Rng rng_;
  bool repeats_;
  double clock_ = 0.0;
  std::vector<std::vector<Request>> segments_;
};

std::vector<Request> SeedRequests(uint64_t seed, size_t count) {
  QueryGenerator seeder(GetDatasetProfile(DatasetId::kLmsysChat), Mix64(seed ^ 0x5eed));
  return seeder.Generate(count);
}

// ---------------------------------------------------------------------------
// One served round.

struct Round {
  DriverReport report;
  std::vector<double> window_ms;  // per 64-request window, see Serve
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// The traced-run bookkeeping of a round: folds the recorder's spans into
// `layers` and clears the rings for the next round.
void CollectSpans(LayerTotals* layers) {
  TraceRecorder& recorder = TraceRecorder::Global();
  Accumulate(recorder.TakeSnapshot(), layers);
  recorder.Reset();
}

DriverConfig MakeDriverConfig(Workload workload, size_t threads, const std::string& checkpoint) {
  DriverConfig config;
  config.num_threads = threads;
  if (workload == Workload::kChurnHnsw) {
    config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
    config.cache.cache.capacity_bytes = kChurnBudgetBytes;
    config.manager.decay_interval_s = kChurnDecayIntervalS;
    config.replay_min_interval_s = kChurnReplayIntervalS;
    config.snapshot_path = checkpoint;
    config.checkpoint_interval_s = kChurnCheckpointIntervalS;
  } else {
    config.stage0.enabled = true;
    config.lifecycle_maintenance = false;
    config.offpeak_replay = false;
  }
  return config;
}

class DriverServer {
 public:
  DriverServer(const DriverConfig& config, const ModelCatalog* catalog)
      : driver_(config, catalog) {}

  void Seed(const std::vector<Request>& seeds) {
    // Seeding may overshoot the byte budget; the first window boundaries
    // evict it back down, inside the measured run.
    driver_.cache().set_defer_capacity(true);
    for (const Request& request : seeds) {
      driver_.SeedExample(request, 0.0);
    }
    driver_.cache().set_defer_capacity(false);
  }

  Round Serve(const std::vector<Request>& requests, bool traced) {
    Round round;
    const double cpu_start = CpuSeconds();
    const uint64_t mono_start = TraceRecorder::Global().NowNs();
    const auto start = Clock::now();
    {
      ScopedTracing tracing(traced);
      round.report = driver_.Run(requests);
    }
    round.wall_s = Since(start);
    round.cpu_s = CpuSeconds() - cpu_start;

    // Window residence: from the boundary two windows before a window's own
    // (when its prepare fan-out can start) to its boundary, read from the
    // hub's per-window host timestamps. Every request of the window shares it.
    const size_t window = driver_.config().batch_window;
    const size_t windows = (requests.size() + window - 1) / window;
    const std::vector<MetricsWindowSample> series = driver_.metrics_hub().series();
    if (series.size() >= windows) {
      const size_t first = series.size() - windows;
      for (size_t w = 0; w < windows; ++w) {
        const uint64_t begin = w >= 2 ? series[first + w - 2].mono_ns : mono_start;
        round.window_ms.push_back(1e-6 * static_cast<double>(series[first + w].mono_ns - begin));
      }
    }
    return round;
  }

  uint64_t Put(const Request& request) {
    driver_.cache().set_defer_capacity(true);
    const uint64_t id = driver_.cache().Put(request, "[replay]", 0.8, 0.9, 48, 0.0);
    driver_.cache().set_defer_capacity(false);
    return id;
  }

  ServingDriver& driver() { return driver_; }

 private:
  ServingDriver driver_;
};

struct Bench {
  Options options;
  ModelCatalog catalog;
  std::vector<Request> seeds;
  std::vector<double> setup_s;

  std::unique_ptr<DriverServer> Make(size_t threads, const std::string& tag, bool seeded) {
    const std::string checkpoint = options.scratch + "/" + tag + ".ckpt";
    const auto start = Clock::now();
    auto server = std::make_unique<DriverServer>(
        MakeDriverConfig(options.workload, threads, checkpoint), &catalog);
    if (seeded) {
      server->Seed(seeds);
      setup_s.push_back(Since(start));
    }
    return server;
  }
};

// The core/service layer: an IcCacheService over the same seed pool serves
// `requests` with one caller, traced. Its set-up is not timed.
LayerTotals TraceServicePass(const ModelCatalog* catalog, const std::vector<Request>& seeds,
                             const std::vector<Request>& requests) {
  GenerationSimulator generator(0x51a);
  IcCacheService service(ServiceConfig{}, catalog, &generator,
                         std::make_shared<HashingEmbedder>());
  for (const Request& request : seeds) {
    service.SeedExample(request, 0.0);
  }
  service.PretrainProxy(kProxyPretrainSamples);
  {
    ScopedTracing tracing(true);
    for (const Request& request : requests) {
      service.ServeRequest(request, request.arrival_time);
    }
  }
  LayerTotals layers;
  CollectSpans(&layers);
  return layers;
}

// ---------------------------------------------------------------------------
// Checks

// Run accounting: operations attempted and failed, by kind.
struct Ops {
  uint64_t requests = 0;
  uint64_t requests_failed = 0;  // served without a decision
  uint64_t checkpoints = 0;
  uint64_t checkpoints_failed = 0;
  uint64_t saves = 0;
  uint64_t saves_failed = 0;
  uint64_t restores = 0;
  uint64_t restores_failed = 0;

  uint64_t attempted() const { return requests + checkpoints + saves + restores; }
  uint64_t failed() const {
    return requests_failed + checkpoints_failed + saves_failed + restores_failed;
  }
};

// Requests of `requests` with no decision in `decisions`.
uint64_t Undecided(const std::vector<Request>& requests,
                   const std::vector<DriverDecision>& decisions) {
  std::unordered_map<uint64_t, int> decided;
  for (const DriverDecision& d : decisions) {
    decided[d.request_id] = 1;
  }
  uint64_t missing = 0;
  for (const Request& request : requests) {
    missing += decided.count(request.id) ? 0 : 1;
  }
  return missing;
}

struct Checks {
  bool ok = true;
  void Expect(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

uint64_t DecisionDigest(const std::vector<DriverDecision>& decisions) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  for (const DriverDecision& d : decisions) {
    mix(d.request_id);
    for (char c : d.model_name) {
      mix(static_cast<unsigned char>(c));
    }
    mix(d.offloaded ? 1 : 0);
    mix(d.num_examples);
    uint64_t bits = 0;
    std::memcpy(&bits, &d.latent_quality, sizeof(bits));
    mix(bits);
  }
  return h;
}

bool IsStage0Hit(const DriverDecision& decision) { return decision.model_name == "stage0-cache"; }

void AddCounts(const DriverReport& r, DriverReport* into) {
  into->total_requests += r.decisions.size();
  into->offloaded_requests += r.offloaded_requests;
  into->admitted_examples += r.admitted_examples;
  into->evicted_examples += r.evicted_examples;
  into->stage0_hits += r.stage0_hits;
  into->stage0_admitted += r.stage0_admitted;
  into->stage0_invalidations += r.stage0_invalidations;
  into->embed_memo_hits += r.embed_memo_hits;
  into->maintenance_runs += r.maintenance_runs;
  into->maintenance_stalled_windows += r.maintenance_stalled_windows;
  into->replayed_examples += r.replayed_examples;
  into->checkpoints_taken += r.checkpoints_taken;
  into->prepare_seconds += r.prepare_seconds;
  into->serial_seconds += r.serial_seconds;
  into->maintenance_seconds += r.maintenance_seconds;
}

// Per round: every request decided exactly once in arrival order, one
// completion per non-hit request, a well-ordered simulated timeline, and the
// cluster drained before `next_arrival`, the next round's first arrival (or
// the open-loop schedule of the next round would be delayed by this one).
void CheckRound(const std::vector<Request>& requests, const Round& round, double next_arrival,
                Checks* checks) {
  const DriverReport& r = round.report;
  bool in_order = r.decisions.size() == requests.size();
  for (size_t i = 0; in_order && i < requests.size(); ++i) {
    in_order = r.decisions[i].request_id == requests[i].id;
  }
  checks->Expect(in_order, "every request decided exactly once, in arrival order");
  size_t hits = 0;
  std::unordered_map<uint64_t, int> pending;
  for (const DriverDecision& d : r.decisions) {
    if (IsStage0Hit(d)) {
      ++hits;
    } else {
      pending[d.request_id] = 1;
    }
    checks->Expect(d.latent_quality >= 0.0 && d.latent_quality <= 1.0, "quality in [0, 1]");
  }
  checks->Expect(hits == r.stage0_hits, "stage-0 hit count matches the hit decisions");
  checks->Expect(r.completions.size() + hits == requests.size(),
                 "completions + stage-0 hits == requests");
  bool ordered = true;
  double last_completion = 0.0;
  for (const CompletionRecord& c : r.completions) {
    ordered = ordered && pending.erase(c.id) == 1 && c.arrival_time <= c.admission_time &&
              c.admission_time <= c.first_token_time &&
              c.first_token_time <= c.completion_time && c.output_tokens > 0;
    last_completion = std::max(last_completion, c.completion_time);
  }
  checks->Expect(ordered && pending.empty(),
                 "each completion is a non-hit request with arrival <= admission <= first "
                 "token <= completion and output tokens > 0");
  checks->Expect(last_completion <= next_arrival,
                 "each round drains before the next round's first arrival");
}

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return na > 0.0 && nb > 0.0 ? dot / std::sqrt(na * nb) : 0.0;
}

// Stage-1 recall@k of FindSimilarBatch against a brute-force cosine top-k over
// the pool's exported embeddings.
double StageOneRecall(const ExampleStore& pool, const std::vector<Request>& queries) {
  std::vector<uint64_t> ids;
  std::vector<std::vector<float>> vectors;
  pool.ExportExamples([&](const Example& example, const std::vector<float>& embedding) {
    ids.push_back(example.id);
    vectors.push_back(embedding);
  });
  const Embedder& embedder = *pool.embedder();
  const size_t dim = embedder.dim();
  std::vector<float> flat(queries.size() * dim);
  for (size_t q = 0; q < queries.size(); ++q) {
    embedder.EmbedInto(queries[q].text, flat.data() + q * dim);
  }
  SearchScratch scratch;
  std::vector<std::vector<SearchResult>> found;
  pool.FindSimilarBatch(flat.data(), queries.size(), dim, kRecallK, &scratch, &found);
  double recall = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<float> query(flat.begin() + q * dim, flat.begin() + (q + 1) * dim);
    std::vector<std::pair<double, uint64_t>> scored;
    scored.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      scored.emplace_back(-Cosine(query, vectors[i]), ids[i]);
    }
    const size_t k = std::min(kRecallK, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end());
    size_t matched = 0;
    for (size_t i = 0; i < k; ++i) {
      for (const SearchResult& result : found[q]) {
        matched += result.id == scored[i].second ? 1 : 0;
      }
    }
    recall += k > 0 ? static_cast<double>(matched) / static_cast<double>(k) : 1.0;
  }
  return queries.empty() ? 1.0 : recall / static_cast<double>(queries.size());
}

// repeat_stage0: every stage-0 hit (`hit[i]` for `served[i]`) must have an
// earlier request whose cosine to it, recomputed here, clears the lowest
// threshold of the stage-0 grid.
void CheckHitsHaveNeighbours(const std::vector<Request>& served, const std::vector<bool>& hit,
                             Checks* checks) {
  const HashingEmbedder embedder;
  const std::vector<double> grid = Stage0Config{}.threshold_grid;
  const double floor = *std::min_element(grid.begin(), grid.end());
  std::unordered_map<std::string, size_t> first_by_text;
  std::vector<std::vector<float>> embedded(served.size());
  size_t unexplained = 0;
  for (size_t i = 0; i < served.size() && i < hit.size(); ++i) {
    embedded[i] = embedder.Embed(served[i].text);
    if (hit[i]) {
      bool found = false;
      const auto exact = first_by_text.find(served[i].text);
      if (exact != first_by_text.end()) {
        found = Cosine(embedded[i], embedded[exact->second]) >= floor;
      }
      for (size_t j = 0; !found && j < i; ++j) {
        found = Cosine(embedded[i], embedded[j]) >= floor;
      }
      unexplained += found ? 0 : 1;
    }
    first_by_text.emplace(served[i].text, i);
  }
  checks->Expect(unexplained == 0,
                 "every stage-0 hit has an earlier request with cosine >= " +
                     std::to_string(floor) + " (" + std::to_string(unexplained) + " without)");
}

// ---------------------------------------------------------------------------
// What the run keeps of its rounds: sums and per-completion samples, folded
// in as each round ends, so the benchmark's own memory during the timed run
// is the pre-generated stream plus a few numbers per request.

struct Totals {
  DriverReport sums;
  DriverReport traced_sums;  // the rounds served with the recorder on
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double traced_cpu_s = 0.0;
  double untraced_cpu_s = 0.0;
  double quality = 0.0;
  double generated = 0.0;
  double large_tokens = 0.0;
  double example_prompt_tokens = 0.0;
  size_t examples = 0;
  size_t offloaded_bare = 0;  // offloaded to the small model with no example
  size_t traced_hits_with_stage1 = 0;
  std::vector<double> ttft, e2e, queue_delay, window_ms;
  std::vector<bool> hit;  // per decision, in arrival order

  void Add(const std::vector<Request>& requests, const Round& round, bool traced,
           const LayerTotals& layers) {
    const DriverReport& r = round.report;
    const std::string large_model = DriverConfig{}.large_model;
    wall_s += round.wall_s;
    cpu_s += round.cpu_s;
    (traced ? traced_cpu_s : untraced_cpu_s) += round.cpu_s;
    window_ms.insert(window_ms.end(), round.window_ms.begin(), round.window_ms.end());
    for (const DriverDecision& d : r.decisions) {
      hit.push_back(IsStage0Hit(d));
      quality += d.latent_quality;
      examples += d.num_examples;
      offloaded_bare += d.offloaded && d.num_examples == 0 ? 1 : 0;
      traced_hits_with_stage1 +=
          traced && IsStage0Hit(d) && layers.stage1_request_ids.count(d.request_id) ? 1 : 0;
    }
    std::unordered_map<uint64_t, int> input_tokens;
    for (const Request& request : requests) {
      input_tokens[request.id] = request.input_tokens;
    }
    for (const CompletionRecord& c : r.completions) {
      ttft.push_back(c.Ttft());
      e2e.push_back(c.E2eLatency());
      queue_delay.push_back(c.QueueDelay());
      generated += c.output_tokens;
      large_tokens += c.model == large_model ? c.output_tokens : 0;
      example_prompt_tokens += c.prompt_tokens - input_tokens[c.id];
    }
    AddCounts(r, &sums);
    if (traced) {
      AddCounts(r, &traced_sums);
    }
  }
};

// ---------------------------------------------------------------------------
// Per-layer isolation timings ("replay" metrics).

struct Replay {
  double embed_us = 0.0;
  double search_us_per_query = 0.0;
  double insert_us = 0.0;
  double stage0_probe_us = 0.0;
  double stage0_insert_us = 0.0;
};

std::vector<float> EmbedAll(const Embedder& embedder, const std::vector<Request>& requests) {
  const size_t dim = embedder.dim();
  std::vector<float> flat(requests.size() * dim);
  for (size_t i = 0; i < requests.size(); ++i) {
    embedder.EmbedInto(requests[i].text, flat.data() + i * dim);
  }
  return flat;
}

void ReplayReadPaths(const ExampleStore& pool, const std::vector<Request>& texts,
                     Replay* replay) {
  const Embedder& embedder = *pool.embedder();
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Clock::now();
    const std::vector<float> flat = EmbedAll(embedder, texts);
    passes.push_back(1e6 * Since(start) / static_cast<double>(texts.size()));
  }
  replay->embed_us = Median(passes);

  const size_t dim = embedder.dim();
  const size_t queries = std::min(kReplaySearchQueries, texts.size());
  const std::vector<Request> query_requests(texts.begin(), texts.begin() + queries);
  const std::vector<float> flat = EmbedAll(embedder, query_requests);
  const size_t k = SelectorConfig{}.stage1_candidates;
  SearchScratch scratch;
  std::vector<std::vector<SearchResult>> out;
  passes.clear();
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = Clock::now();
    for (size_t begin = 0; begin < queries; begin += kReplayChunk) {
      pool.FindSimilarBatch(flat.data() + begin * dim, std::min(kReplayChunk, queries - begin),
                            dim, k, &scratch, &out);
    }
    passes.push_back(1e6 * Since(start) / static_cast<double>(queries));
  }
  replay->search_us_per_query = Median(passes);
}

// Stage-0 probe and insert at the tier's entry bound, over the workload's
// own texts: fill to the bound, time batched probes, then inserts that keep
// the cache at the bound (each crossing evicts down to the low watermark).
void ReplayStage0(const std::vector<Request>& texts, Replay* replay) {
  auto embedder = std::make_shared<HashingEmbedder>();
  Stage0Config config;
  config.enabled = true;
  config.max_entries = kStage0Bound;
  Stage0ResponseCache cache(embedder, config);
  QueryGenerator filler(GetDatasetProfile(DatasetId::kLmsysChat), 0x57a9e0f);
  for (size_t i = 0; i < kStage0Bound; ++i) {
    cache.Put(filler.Next(), 0.8, 64, 0.0);
  }
  const size_t dim = embedder->dim();
  const size_t queries = std::min(kReplayQueries, texts.size());
  const std::vector<Request> query_requests(texts.begin(), texts.begin() + queries);
  const std::vector<float> flat = EmbedAll(*embedder, query_requests);
  const std::vector<double> nows(kReplayChunk, 0.0);
  SearchScratch scratch;
  std::vector<std::optional<Stage0Probe>> out;
  const auto probe_start = Clock::now();
  for (size_t begin = 0; begin < queries; begin += kReplayChunk) {
    cache.ProbeBatch(flat.data() + begin * dim, std::min(kReplayChunk, queries - begin), dim,
                     nows.data(), &scratch, &out);
  }
  replay->stage0_probe_us = 1e6 * Since(probe_start) / static_cast<double>(queries);

  const size_t puts = std::min(kStage0ReplayPuts, texts.size());
  std::vector<std::vector<float>> embeddings(puts);
  for (size_t i = 0; i < puts; ++i) {
    embeddings[i] = embedder->Embed(texts[i].text);
  }
  const auto put_start = Clock::now();
  for (size_t i = 0; i < puts; ++i) {
    cache.Put(texts[i], std::move(embeddings[i]), "[replay]", 0.8, 64, 1.0);
  }
  replay->stage0_insert_us = 1e6 * Since(put_start) / static_cast<double>(puts);
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buffer[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buffer, sizeof(buffer), "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics[i].name.c_str(), value, metrics[i].unit.c_str());
    line += (i > 0 ? ", " : "") + std::string(buffer);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload_name = value;
      have_workload = true;
      if (value == "churn_hnsw") {
        options->workload = Workload::kChurnHnsw;
      } else if (value == "repeat_stage0") {
        options->workload = Workload::kRepeatStage0;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options->trace = value == "1";
    } else if (flag == "--scratch") {
      options->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace &&
         !options->scratch.empty();
}

int Main(int argc, char** argv) {
  Bench bench;
  if (!ParseOptions(argc, argv, &bench.options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload churn_hnsw|repeat_stage0 --seed N "
                 "--seconds S --trace 0|1 --scratch DIR\n");
    return 2;
  }
  const Options& options = bench.options;
  std::error_code error;
  std::filesystem::create_directories(options.scratch, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", options.scratch.c_str());
    return 2;
  }
  // Rings sized so a round's spans never wrap: every round is collected and
  // the rings cleared before the next.
  TraceRecorder::Global().set_ring_capacity(1 << 15);

  // The planned rounds, one more for the drain check of the last, and the
  // further requests served after the restore.
  const size_t planned = PlannedRounds(options);
  const RequestStream stream(options.seed, options.workload == Workload::kRepeatStage0,
                             planned + 1);
  bench.seeds = SeedRequests(options.seed, kSeedPool);
  Checks checks;
  Ops ops;

  // --- Timed run ------------------------------------------------------------
  // The traced run records rounds 0, 3, 4, 7, 8, ... (ABBA order), so the
  // untraced rounds in between give the tracing overhead on the same
  // instance, cancelling cost drift over the run and costs that alternate
  // between rounds (churn_hnsw evicts every other round).
  std::unique_ptr<DriverServer> server = bench.Make(kTimedThreads, "timed", /*seeded=*/true);
  LayerTotals layers;
  Totals totals;
  uint64_t first_digest = 0;
  size_t rounds = 0;
  const CpuTicks ticks_start = ReadCpuTicks();
  while (rounds < planned && totals.wall_s < kServingCapFactor * options.seconds) {
    const std::vector<Request>& requests = stream.segment(rounds);
    const bool traced = options.trace && (rounds % 4 == 0 || rounds % 4 == 3);
    const Round round = server->Serve(requests, traced);
    if (traced) {
      CollectSpans(&layers);
    }
    if (rounds == 0) {
      first_digest = DecisionDigest(round.report.decisions);
    }
    ops.requests += requests.size();
    ops.requests_failed += Undecided(requests, round.report.decisions);
    CheckRound(requests, round, stream.segment(rounds + 1).front().arrival_time, &checks);
    totals.Add(requests, round, traced, layers);
    ++rounds;
  }
  const double steal_share = StealShare(ticks_start);
  const double peak_rss_mb = PeakRssMb();
  if (rounds < planned) {
    std::fprintf(stderr, "note: serving stopped at the safety cap (%g x --seconds) after %zu of "
                 "%zu rounds; host timings of this run are not comparable\n",
                 kServingCapFactor, rounds, planned);
  }
  if (steal_share > kStealNoteShare) {
    std::fprintf(stderr, "note: %.1f%% of the machine's running time was stolen while serving "
                 "(above %.0f%%); host timings of this run are suspect\n",
                 100.0 * steal_share, 100.0 * kStealNoteShare);
  }

  const DriverReport& sums = totals.sums;
  const double n = static_cast<double>(sums.total_requests);
  ServingDriver& driver = server->driver();
  ops.checkpoints = sums.checkpoints_taken + driver.checkpointer().failed();
  ops.checkpoints_failed = driver.checkpointer().failed();
  const std::vector<Request> served = stream.Flatten(rounds);

  // --- Workload-specific checks ----------------------------------------------
  if (options.workload == Workload::kChurnHnsw) {
    const ExampleCacheConfig& cache = driver.config().cache.cache;
    checks.Expect(static_cast<double>(driver.cache().used_bytes()) <=
                      static_cast<double>(cache.capacity_bytes) * cache.high_watermark,
                  "pool bytes <= budget x high watermark after the run");
    checks.Expect(sums.evicted_examples > 0, "evictions > 0");
    checks.Expect(sums.maintenance_runs > 0, "maintenance runs > 0");
    checks.Expect(sums.replayed_examples > 0, "replayed examples > 0");
    checks.Expect(sums.checkpoints_taken > 0, "checkpoints > 0");
  } else {
    checks.Expect(sums.stage0_hits > 0, "stage-0 hits > 0");
    checks.Expect(sums.embed_memo_hits > 0, "embedding memo hits > 0");
    CheckHitsHaveNeighbours(served, totals.hit, &checks);
  }

  {
    const std::vector<Request> queries(served.end() - std::min(kRecallQueries, served.size()),
                                       served.end());
    const double recall = StageOneRecall(driver.cache(), queries);
    const double floor = options.workload == Workload::kChurnHnsw ? kRecallFloorHnsw
                                                                  : kRecallFloorKMeans;
    std::fprintf(stderr, "stage-1 recall@%zu = %.4f (floor %.2f)\n", kRecallK, recall, floor);
    checks.Expect(recall >= floor, "stage-1 recall@k >= floor");
  }

  const double pool_mb = static_cast<double>(driver.cache().used_bytes()) / (1024.0 * 1024.0);
  Replay replay;
  if (options.trace) {
    const std::vector<Request> texts(served.begin(),
                                     served.begin() + std::min(kReplayTexts, served.size()));
    ReplayReadPaths(driver.cache(), texts, &replay);
    ReplayStage0(texts, &replay);
  }

  // --- Snapshot, restore into a fresh instance, serve a further segment ------
  const std::string snapshot = options.scratch + "/final.snap";
  auto save_start = Clock::now();
  const Status saved = driver.SaveSnapshot(snapshot);
  const double save_s = Since(save_start);
  std::unique_ptr<DriverServer> restored = bench.Make(kTimedThreads, "restored", /*seeded=*/false);
  auto restore_start = Clock::now();
  const Status restore_status = saved.ok() ? restored->driver().RestoreSnapshot(snapshot) : saved;
  const double restore_s = Since(restore_start);
  ops.saves = 1;
  ops.saves_failed = saved.ok() ? 0 : 1;
  ops.restores = 1;
  ops.restores_failed = restore_status.ok() ? 0 : 1;
  uintmax_t snapshot_bytes = std::filesystem::file_size(snapshot, error);
  if (error) {
    snapshot_bytes = 0;
  }
  if (restore_status.ok()) {
    const ExampleStore& copy = restored->driver().cache();
    checks.Expect(copy.size() == driver.cache().size() &&
                      copy.used_bytes() == driver.cache().used_bytes(),
                  "restored pool matches the original in example count and bytes");
    const std::vector<Request>& next = stream.segment(rounds);
    const std::vector<Request> further(next.begin(), next.begin() + kFurtherRequests);
    const Round original = server->Serve(further, false);
    const Round replica = restored->Serve(further, false);
    ops.requests += 2 * further.size();
    ops.requests_failed +=
        Undecided(further, original.report.decisions) + Undecided(further, replica.report.decisions);
    checks.Expect(DecisionDigest(original.report.decisions) ==
                      DecisionDigest(replica.report.decisions),
                  "restored instance serves the further segment with identical decisions");
  } else {
    std::fprintf(stderr, "snapshot save/restore failed: %s / %s\n", saved.ToString().c_str(),
                 restore_status.ToString().c_str());
  }
  restored.reset();
  if (options.trace) {
    QueryGenerator fresh(GetDatasetProfile(DatasetId::kLmsysChat), Mix64(options.seed ^ 0x9e7));
    const std::vector<Request> puts = fresh.Generate(kReplayPuts);
    const auto start = Clock::now();
    for (const Request& request : puts) {
      server->Put(request);
    }
    replay.insert_us = 1e6 * Since(start) / static_cast<double>(puts.size());
  }
  server.reset();

  // The core/service layer: the synchronous front door serves the
  // workload's first round over the same seed pool, traced.
  double service_request_us = 0.0;
  double service_self_us = 0.0;
  if (options.trace) {
    const std::vector<Request>& first = stream.segment(0);
    const LayerTotals service = TraceServicePass(&bench.catalog, bench.seeds, first);
    const double service_n = static_cast<double>(first.size());
    layers.dropped += service.dropped;
    service_request_us = 1e6 * service.BusySeconds(TraceCategory::kServiceRequest) / service_n;
    service_self_us = 1e-3 * static_cast<double>(service.service_self_ns) / service_n;
  }

  // --- Identity runs: opposite tracing, and another thread count -------------
  // The decisions of the first round must not depend on tracing or on the
  // number of pool threads.
  {
    std::unique_ptr<DriverServer> other = bench.Make(kTimedThreads, "tracing", /*seeded=*/true);
    const Round round = other->Serve(stream.segment(0), !options.trace);
    if (!options.trace) {
      LayerTotals ignored;
      CollectSpans(&ignored);
      checks.Expect(ignored.dropped == 0, "no span dropped in the traced identity run");
    }
    checks.Expect(DecisionDigest(round.report.decisions) == first_digest,
                  "decisions identical with tracing on and off");
  }
  {
    std::unique_ptr<DriverServer> other = bench.Make(kOtherThreads, "threads", /*seeded=*/true);
    const Round round = other->Serve(stream.segment(0), false);
    checks.Expect(DecisionDigest(round.report.decisions) == first_digest,
                  "decisions identical at another thread count");
  }
  // Two more set-ups, so setup_s is the median of five.
  for (int extra = 0; extra < 2; ++extra) {
    bench.Make(kTimedThreads, "setup", /*seeded=*/true);
  }
  std::filesystem::remove_all(options.scratch, error);

  // --- Report ----------------------------------------------------------------
  std::printf("workload=%s seed=%llu seconds=%g trace=%d rounds=%zu/%zu serving_s=%.3f "
              "steal=%.1f%%\n",
              options.workload_name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, rounds, planned, totals.wall_s,
              100.0 * steal_share);
  std::printf("attempted/failed: requests %llu/%llu checkpoint_writes %llu/%llu "
              "snapshot_saves %llu/%llu snapshot_restores %llu/%llu\n",
              static_cast<unsigned long long>(ops.requests),
              static_cast<unsigned long long>(ops.requests_failed),
              static_cast<unsigned long long>(ops.checkpoints),
              static_cast<unsigned long long>(ops.checkpoints_failed),
              static_cast<unsigned long long>(ops.saves),
              static_cast<unsigned long long>(ops.saves_failed),
              static_cast<unsigned long long>(ops.restores),
              static_cast<unsigned long long>(ops.restores_failed));
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", Median(bench.setup_s), "s"},
        {"requests_per_s", n / totals.wall_s, "1/s"},
        {"cpu_us_per_request", 1e6 * totals.cpu_s / n, "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"mean_quality", totals.quality / n, "score"},
        {"generated_tokens", totals.generated / n, "tok/req"},
        {"large_model_tokens", totals.large_tokens / n, "tok/req"},
        {"sim_ttft_p50_s", Quantile(totals.ttft, 0.50), "s"},
        {"sim_ttft_p99_s", Quantile(totals.ttft, 0.99), "s"},
        {"sim_e2e_p50_s", Quantile(totals.e2e, 0.50), "s"},
        {"sim_e2e_p99_s", Quantile(totals.e2e, 0.99), "s"},
        {"window_residence_ms_p90", Quantile(totals.window_ms, 0.90), "ms"},
    };
  } else {
    // Span-derived figures cover the traced rounds and are normalised by
    // their request count; report-derived counts cover the whole run.
    using C = TraceCategory;
    const DriverReport& traced_sums = totals.traced_sums;
    const double traced_n = static_cast<double>(traced_sums.total_requests);
    const double untraced_n = n - traced_n;
    const auto per_request_us = [traced_n](uint64_t ns) {
      return 1e-3 * static_cast<double>(ns) / traced_n;
    };
    const auto busy_us = [&](C c) {
      return per_request_us(layers.busy_ns[static_cast<size_t>(c)]);
    };
    // Mean span length in milliseconds (0 when the category never ran).
    const auto mean_ms = [&](C c) {
      const uint64_t spans = layers.Spans(c);
      return spans > 0 ? 1e3 * layers.BusySeconds(c) / static_cast<double>(spans) : 0.0;
    };
    const auto count = [](size_t value) { return static_cast<double>(value); };
    metrics = {
        {"embedding.embed_us", busy_us(C::kEmbed), "us/req"},
        {"embedding.memo_hits", count(sums.embed_memo_hits), "count"},
        {"embedding.replay_embed_us", replay.embed_us, "us"},
        {"index.hnsw_search_us", busy_us(C::kHnswSearch), "us/req"},
        {"index.hnsw_searches_per_request",
         static_cast<double>(layers.Spans(C::kHnswSearch)) / traced_n, "spans/req"},
        {"index.admission_search_us", per_request_us(layers.admission_search_ns), "us/req"},
        {"index.replay_search_us_per_query", replay.search_us_per_query, "us"},
        {"index.replay_insert_us", replay.insert_us, "us"},
        {"sharded_cache.stage1_us", per_request_us(layers.stage1_ns), "us/req"},
        {"sharded_cache.admitted", count(sums.admitted_examples), "count"},
        {"sharded_cache.evicted", count(sums.evicted_examples), "count"},
        {"sharded_cache.pool_mb", pool_mb, "MB"},
        {"stage0.probe_us", per_request_us(layers.stage0_probe_ns), "us/req"},
        {"stage0.hits", count(sums.stage0_hits), "count"},
        {"stage0.admitted", count(sums.stage0_admitted), "count"},
        {"stage0.invalidations", count(sums.stage0_invalidations), "count"},
        {"stage0.replay_probe_us", replay.stage0_probe_us, "us"},
        {"stage0.replay_insert_us", replay.stage0_insert_us, "us"},
        {"stage0.stage1_queries_on_hits", count(totals.traced_hits_with_stage1), "count"},
        {"selector.stage2_us", busy_us(C::kStage2Scoring), "us/req"},
        {"selector.examples_per_request", static_cast<double>(totals.examples) / n, "count/req"},
        {"selector.example_prompt_tokens_per_request", totals.example_prompt_tokens / n,
         "tok/req"},
        {"router.route_us", busy_us(C::kRoute), "us/req"},
        {"router.offloaded_requests", count(sums.offloaded_requests), "count"},
        {"router.offloaded_without_examples", count(totals.offloaded_bare), "count"},
        {"llm.generate_us", busy_us(C::kGenerate), "us/req"},
        {"cluster.queue_delay_p99_s", Quantile(totals.queue_delay, 0.99), "s"},
        {"driver.prepare_s", sums.prepare_seconds, "s"},
        {"driver.serial_s", sums.serial_seconds, "s"},
        {"driver.maintenance_s", sums.maintenance_seconds, "s"},
        {"driver.merge_us_per_request", busy_us(C::kMerge), "us/req"},
        {"driver.publish_us_per_request", busy_us(C::kPublish), "us/req"},
        {"driver.prepare_self_us", per_request_us(layers.prepare_self_ns), "us/req"},
        {"driver.serial_unattributed_s",
         traced_sums.serial_seconds - layers.BusySeconds(C::kMerge) -
             layers.BusySeconds(C::kCheckpointWrite),
         "s"},
        {"maintenance.runs", count(sums.maintenance_runs), "count"},
        {"maintenance.plan_ms", mean_ms(C::kMaintenancePlan), "ms"},
        {"maintenance.apply_ms", mean_ms(C::kMaintenanceApply), "ms"},
        {"maintenance.stalled_windows", count(sums.maintenance_stalled_windows), "count"},
        {"maintenance.replayed_examples", count(sums.replayed_examples), "count"},
        {"persist.checkpoints", count(sums.checkpoints_taken), "count"},
        {"persist.checkpoint_write_ms", mean_ms(C::kCheckpointWrite), "ms"},
        {"persist.snapshot_mb", static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0), "MB"},
        {"persist.replay_save_s", save_s, "s"},
        {"persist.replay_restore_s", restore_s, "s"},
        {"service.request_us", service_request_us, "us/req"},
        {"service.self_us", service_self_us, "us/req"},
        {"obs.tracing_overhead",
         untraced_n > 0.0 && totals.untraced_cpu_s > 0.0
             ? (totals.traced_cpu_s / traced_n) / (totals.untraced_cpu_s / untraced_n) - 1.0
             : 0.0,
         "ratio"},
        {"obs.dropped_spans", count(layers.dropped), "count"},
    };
    checks.Expect(layers.dropped == 0, "no span dropped in the traced run");
  }
  PrintResult(checks.ok, ops.attempted(), ops.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
