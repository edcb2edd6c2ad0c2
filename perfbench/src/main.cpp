// perfbench — the layered benchmark of the paper's join-project queries.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size F] [--cold-probe]
//
// Workloads (see Workloads() below for the exact query lists):
//   paper-dense    closed loop, one client, threads = nproc: two-path, SSJ,
//                  SCJ and star over the dense presets; the heavy matrix
//                  product does most of the work.
//   paper-sparse   the same loop over the sparse presets, where the
//                  optimizer runs the worst-case-optimal join and the
//                  matrix layers stay idle.
//   service-mixed  4 client threads through one QueryService (batching
//                  and the result cache on) with a Zipf-skewed read mix and
//                  a fixed share of catalog writes.
// Every workload runs every query kind, so each reports every end-to-end
// metric. In the closed loops the service_* metrics describe the one
// client's stream of executions, and write_ms is the set-up's AddRelation
// of every relation (median over the set-up repetitions). In service-mixed
// the per-kind metrics (twopath_ms, ...) are medians over the reads that
// executed their query, neither served from the result cache nor batched
// behind another read: a kind's reads mix microsecond hits with
// millisecond executions, and the median of that mix jumps between the
// two as the hit share drifts around one half. Hits show in
// service_p50_ms and service_qps.
//
// Inputs are generated from --seed only; every execution's output is
// fingerprinted after its timer stops and compared against a reference
// computed once, outside every timed region, with a forced strategy.
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 splits the
// time into an untraced and a traced half and reports the per-layer
// metrics, read from the spans the engine records under
// ExecOptions::trace, plus the tracing overhead between the halves.
// --cold-probe times only the first Execute of a fresh process (kernel
// calibration and the first plan included); the runner script starts
// several probes and reports their median as cold_query_ms.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics, machine, notes. Diagnostics go to stderr.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/cpu_features.h"
#include "core/optimizer.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "datagen/presets.h"
#include "layers.h"
#include "matrix/calibration.h"
#include "storage/stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using jpmm::BinaryRelation;
using jpmm::DatasetPreset;
using jpmm::ExecOptions;
using jpmm::ExecStats;
using jpmm::PreparedQuery;
using jpmm::QueryEngine;
using jpmm::QueryKind;
using jpmm::QuerySpec;
using jpmm::QueryStatus;
using jpmm::Strategy;
using jpmm::VectorSink;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- Workload definitions ------------------------------------------------

struct RelDef {
  std::string name;
  DatasetPreset preset;
  double scale;
};

struct QueryDef {
  std::string label;
  QueryKind kind;
  std::string rel;
  // Closed loop: executions per round, interleaved with the other queries,
  // so the short queries collect as many samples as the long ones take
  // time. Fixed per query, so the mix never depends on measured speed.
  int repeat = 1;
};

struct WorkloadDef {
  std::string name;
  bool service = false;
  std::vector<RelDef> rels;
  std::vector<QueryDef> queries;  // service: in Zipf rank order
  int setup_reps = 11;
};

// Service-mixed constants: closed loop of kClients, writes as a fixed share
// of operations, kVersions pre-generated versions of every relation (a
// write swaps one in), Zipf exponent over the read specs, and a per-entry
// cache limit that the larger results exceed.
constexpr int kClients = 4;
constexpr double kWriteShare = 0.025;
constexpr int kVersions = 3;
constexpr double kZipfS = 1.0;
constexpr uint64_t kCacheEntryBytes = 256ull << 10;
constexpr double kServiceWarmupS = 1.0;
// service_tail_ms: p99, or the 11th-largest execution when there are
// fewer than 1100 (ReportedTail).
constexpr size_t kTailBeyond = 10;

std::vector<WorkloadDef> Workloads(double size) {
  using P = DatasetPreset;
  const QueryKind tp = QueryKind::kTwoPath;
  const QueryKind ssj = QueryKind::kSsj;
  const QueryKind scj = QueryKind::kScj;
  const QueryKind star = QueryKind::kStar;
  std::vector<WorkloadDef> w(3);

  w[0].name = "paper-dense";
  w[0].rels = {{"jokes", P::kJokes, 1.0},     {"protein", P::kProtein, 1.0},
               {"image", P::kImage, 1.0},     {"words", P::kWords, 1.0},
               {"image_star", P::kImage, 0.1}};
  w[0].queries = {{"twopath/jokes", tp, "jokes", 8},
                  {"twopath/protein", tp, "protein", 8},
                  {"twopath/image", tp, "image", 8},
                  {"twopath/words", tp, "words", 1},
                  {"ssj/jokes", ssj, "jokes", 8},
                  {"ssj/image", ssj, "image", 8},
                  {"ssj/words", ssj, "words", 1},
                  {"scj/jokes", scj, "jokes", 8},
                  {"scj/image", scj, "image", 8},
                  {"star3/image", star, "image_star", 6}};

  w[1].name = "paper-sparse";
  w[1].rels = {{"dblp", P::kDblp, 1.0},
               {"roadnet", P::kRoadNet, 3.0},
               {"roadnet_star", P::kRoadNet, 0.25}};
  w[1].queries = {{"twopath/dblp", tp, "dblp", 1},
                  {"twopath/roadnet", tp, "roadnet", 3},
                  {"ssj/dblp", ssj, "dblp", 2},
                  {"ssj/roadnet", ssj, "roadnet", 2},
                  {"scj/roadnet", scj, "roadnet", 2},
                  {"scj/dblp", scj, "dblp", 2},
                  {"star3/roadnet", star, "roadnet_star", 2}};

  w[2].name = "service-mixed";
  w[2].service = true;
  w[2].setup_reps = 9;
  w[2].rels = {{"s_jokes", P::kJokes, 0.1},
               {"s_dblp", P::kDblp, 0.02},
               {"s_roadnet", P::kRoadNet, 0.05},
               {"s_words", P::kWords, 0.05},
               {"s_protein", P::kProtein, 0.06}};
  w[2].queries = {{"ssj/s_jokes", ssj, "s_jokes"},
                  {"twopath/s_roadnet", tp, "s_roadnet"},
                  {"twopath/s_dblp", tp, "s_dblp"},
                  {"scj/s_dblp", scj, "s_dblp"},
                  {"twopath/s_jokes", tp, "s_jokes"},
                  {"twopath/s_words", tp, "s_words"},
                  {"ssj/s_dblp", ssj, "s_dblp"},
                  {"star3/s_protein", star, "s_protein"},
                  {"scj/s_jokes", scj, "s_jokes"}};
  for (auto& wd : w) {
    for (auto& r : wd.rels) r.scale *= size;
  }
  return w;
}

const char* KindKey(QueryKind k) {
  switch (k) {
    case QueryKind::kTwoPath: return "twopath";
    case QueryKind::kSsj: return "ssj";
    case QueryKind::kScj: return "scj";
    case QueryKind::kStar: return "star";
    default: return "other";
  }
}

bool IsPairFamily(QueryKind k) { return k != QueryKind::kStar; }

QuerySpec SpecOf(const QueryDef& q, Strategy strategy = Strategy::kAuto) {
  QuerySpec spec;
  spec.kind = q.kind;
  spec.strategy = strategy;
  spec.relations = q.kind == QueryKind::kStar
                       ? std::vector<std::string>{q.rel, q.rel, q.rel}
                       : std::vector<std::string>{q.rel};
  spec.ssj_c = 2;
  return spec;
}

// The reference strategy: the worst-case-optimal join for the two-path
// family, the combinatorial join for stars.
Strategy ReferenceStrategy(QueryKind k) {
  return k == QueryKind::kStar ? Strategy::kNonMmJoin : Strategy::kWcojFull;
}

uint64_t NameHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

// The generator returns a finalized relation; the engine is handed the same
// tuples in a shuffled arrival order, as a loader would deliver them, so
// AddRelation pays its finalization (sort + dedup) like a real write.
BinaryRelation Generate(const RelDef& r, uint64_t seed, int version) {
  const uint64_t s =
      Mix(Mix(seed) ^ NameHash(r.name) ^ (0x51ed27ULL * (version + 1)));
  std::vector<jpmm::Tuple> tuples =
      jpmm::MakePreset(r.preset, r.scale, s).tuples();
  std::shuffle(tuples.begin(), tuples.end(), std::mt19937_64(Mix(s)));
  BinaryRelation rel;
  for (const auto& t : tuples) rel.Add(t.x, t.y);
  return rel;
}

Fingerprint FingerprintOf(VectorSink& sink) {
  Fingerprint fp;
  for (const auto& p : sink.pairs()) fp.AddPair(p.x, p.z);
  for (const auto& c : sink.counted()) fp.AddCounted(c.x, c.z, c.count);
  const auto& t = sink.tuple_data();
  const size_t a = sink.tuple_arity();
  for (size_t i = 0; a > 0 && i + a <= t.size(); i += a) {
    fp.AddRow(t.begin() + static_cast<std::ptrdiff_t>(i),
              t.begin() + static_cast<std::ptrdiff_t>(i + a));
  }
  return fp;
}

// Result size as the result cache accounts it (query_batcher.cpp).
uint64_t ResultBytes(VectorSink& sink) {
  return sink.pairs().size() * sizeof(jpmm::OutPair) +
         sink.counted().size() * sizeof(jpmm::CountedPair) +
         sink.tuple_data().size() * sizeof(jpmm::Value) + 256;
}

// ---- Outcome accounting ----------------------------------------------------

struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> errors{0};  // non-Ok statuses, shed included
  std::atomic<uint64_t> wrong{0};   // Ok but the fingerprint differs

  uint64_t failed() const { return errors.load() + wrong.load(); }
};

struct Reference {
  Fingerprint fp;
  uint64_t bytes = 0;
};

// Executes through the engine with the reference strategy and returns the
// result's fingerprint. Runs outside every timed region.
Reference ComputeReference(QueryEngine& engine, const QueryDef& q,
                           int threads) {
  PreparedQuery pq;
  QueryStatus st = engine.Prepare(SpecOf(q, ReferenceStrategy(q.kind)), &pq);
  if (!st.ok()) {
    std::fprintf(stderr, "reference prepare failed for %s: %s\n",
                 q.label.c_str(), st.message().c_str());
    std::exit(2);
  }
  VectorSink sink;
  ExecOptions opts;
  opts.threads = threads;
  st = engine.Execute(pq, sink, opts);
  if (!st.ok()) {
    std::fprintf(stderr, "reference execute failed for %s: %s\n",
                 q.label.c_str(), st.message().c_str());
    std::exit(2);
  }
  return Reference{FingerprintOf(sink), ResultBytes(sink)};
}

// Wall time of the first root span (the one ChildCoverage() measures).
double RootMs(const std::vector<jpmm::TraceSpan>& spans) {
  for (const auto& s : spans) {
    if (s.parent < 0) return s.Seconds() * 1e3;
  }
  return 0.0;
}

// One timed engine execution, checked against `ref` after the timer stops.
struct ExecResult {
  double ms = 0.0;
  bool ok = false;
  ExecStats stats;
  double root_ms = 0.0;     // traced only: first root span's wall
  double covered_ms = 0.0;  // traced only: part covered by its children
};

ExecResult ExecChecked(QueryEngine& engine, PreparedQuery& q,
                       const ExecOptions& base, const Fingerprint& ref,
                       bool traced, Tally* tally) {
  ExecResult r;
  VectorSink sink;
  std::optional<jpmm::TraceRecorder> rec;
  ExecOptions opts = base;
  if (traced) {
    rec.emplace();
    opts.trace = &*rec;
  }
  const auto t0 = Clock::now();
  const QueryStatus st = engine.Execute(q, sink, opts, &r.stats);
  r.ms = MsSince(t0);
  tally->attempted.fetch_add(1);
  if (!st.ok()) {
    tally->errors.fetch_add(1);
    std::fprintf(stderr, "execute failed: %s\n", st.message().c_str());
    return r;
  }
  if (FingerprintOf(sink) != ref) {
    tally->wrong.fetch_add(1);
    std::fprintf(stderr, "wrong result for %s\n",
                 jpmm::QueryKindName(q.spec().kind));
    return r;
  }
  r.ok = true;
  if (traced) {
    r.root_ms = RootMs(r.stats.trace_spans);
    r.covered_ms = rec->ChildCoverage() * r.root_ms;
  }
  return r;
}

// ---- Machine fingerprint and process metrics -------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// glibc adapts its mmap threshold to the history of frees, so identical
// runs retained different amounts of heap: peak RSS and latencies were
// bimodal from run to run. Pinning the threshold at 1 MiB (which also pins
// the trim threshold) gives every run the same allocator policy: blocks of
// 1 MiB and more are mapped per allocation and unmapped on free, so each
// execution pays for the large buffers it touches and peak RSS is the live
// footprint. The engine is unchanged; only the process's allocator is fixed.
void PinAllocatorPolicy() { mallopt(M_MMAP_THRESHOLD, 1 << 20); }

// Resets the kernel's peak-RSS counter (VmHWM) to the current RSS, so the
// next PeakRssMb() reports the peak of the interval in between.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- JSON output -----------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, JsonString(value));
  }
  void Note(const std::string& key, double value) {
    notes_.emplace_back(key, JsonNumber(value));
  }

  std::string Json(const Tally& t) const {
    std::ostringstream o;
    o << "{\"correct\": " << (t.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << t.attempted.load()
      << ", \"failed\": " << t.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      o << (i ? ", " : "") << JsonString(metrics_[i].name)
        << ": {\"value\": " << JsonNumber(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
    }
    o << "}, \"machine\": {\"cpu\": " << JsonString(CpuModel())
      << ", \"isa\": " << JsonString(jpmm::KernelIsaName(jpmm::ActiveIsa()))
      << ", \"nproc\": " << Nproc()
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << "}, \"notes\": {";
    for (size_t i = 0; i < notes_.size(); ++i) {
      o << (i ? ", " : "") << JsonString(notes_[i].first) << ": "
        << notes_[i].second;
    }
    o << "}}";
    return o.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---- Set-up ----------------------------------------------------------------

struct Setup {
  std::unique_ptr<QueryEngine> engine;
  std::vector<PreparedQuery> prepared;     // one per query, last rep
  std::vector<double> setup_s;             // one per rep
  std::map<std::string, std::vector<double>> add_ms_by_rel;  // every call
  std::vector<double> add_all_ms;  // per rep: AddRelation of every relation
  std::vector<std::vector<double>> prepare_ms;  // [query][rep]
};

// AddRelation of every relation + Prepare of every query on a fresh engine,
// `reps` times, appending the timings to `s`; the relation copies are made
// outside the timed region. With `keep`, the last rep's engine and prepared
// queries become s->engine and s->prepared.
//
// The workloads run the first half of their set-up reps before the measured
// loop (keeping the engine it runs on) and the rest after it, so a slow
// spell of the host at either end of a run moves at most half of them.
void RunSetup(const WorkloadDef& w,
              const std::map<std::string, BinaryRelation>& data, int reps,
              bool keep, Setup* s) {
  s->prepare_ms.resize(w.queries.size());
  for (int rep = 0; rep < reps; ++rep) {
    auto engine = std::make_unique<QueryEngine>();
    std::vector<BinaryRelation> copies;
    for (const auto& r : w.rels) copies.push_back(data.at(r.name));
    std::vector<PreparedQuery> prepared(w.queries.size());
    const auto t0 = Clock::now();
    for (size_t i = 0; i < w.rels.size(); ++i) {
      const auto ta = Clock::now();
      engine->AddRelation(w.rels[i].name, std::move(copies[i]));
      const double ms = MsSince(ta);
      s->add_ms_by_rel[w.rels[i].name].push_back(ms);
    }
    s->add_all_ms.push_back(MsSince(t0));
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const auto tp = Clock::now();
      const QueryStatus st =
          engine->Prepare(SpecOf(w.queries[q]), &prepared[q]);
      s->prepare_ms[q].push_back(MsSince(tp));
      if (!st.ok()) {
        std::fprintf(stderr, "prepare failed for %s: %s\n",
                     w.queries[q].label.c_str(), st.message().c_str());
        std::exit(2);
      }
    }
    s->setup_s.push_back(MsSince(t0) / 1e3);
    if (keep) {
      s->engine = std::move(engine);
      s->prepared = std::move(prepared);
    }
  }
}

int EarlySetupReps(const WorkloadDef& w) { return (w.setup_reps + 1) / 2; }

double SumOfMedians(const std::map<std::string, std::vector<double>>& m) {
  double sum = 0.0;
  for (const auto& [k, v] : m) sum += Median(v);
  return sum;
}

double SumOfMedians(const std::vector<std::vector<double>>& m) {
  double sum = 0.0;
  for (const auto& v : m) sum += Median(v);
  return sum;
}

// Times the calibration singletons explicitly, before anything else uses
// them, so the cold cost is its own number.
double CalibrateMs() {
  const auto t0 = Clock::now();
  (void)jpmm::MatMulCalibration::Default();
  (void)jpmm::SparseKernelRates::Default();
  (void)jpmm::BoolKernelRates::Default();
  return MsSince(t0);
}

// Median wall time of ChooseTwoPathPlan on a two-path-family query's
// operands (calibration already done), over `reps` calls.
double PlanMs(QueryEngine& engine, const QueryDef& q, int threads, int reps) {
  const jpmm::IndexedRelation& r = engine.catalog().Index(q.rel);
  const jpmm::TwoPathStats stats(r, r);
  jpmm::OptimizerOptions oo;
  oo.threads = threads;
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    (void)jpmm::ChooseTwoPathPlan(r, r, stats, oo);
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

// ---- Layer metrics (shared by both loop kinds) -----------------------------

struct LayerInputs {
  int threads = 1;
  LayerSample round;  // sum over queries of per-query median samples
  double calibrate_ms = 0.0;
  double plan_ms = 0.0;
  double regret_auto_ms = 0.0;
  double regret_best_ms = 0.0;
  double out_est = 0.0;
  double out_actual = 0.0;
  double heavy_est_ms = 0.0;
  double heavy_actual_ms = 0.0;
  double plan_mismatch = 0.0;
  double blocks_dense = 0.0;
  double blocks_csr_dense = 0.0;
  double blocks_csr_csr = 0.0;
  double block_nnz = 0.0;
  double blocks_scheduled = 0.0;
  double blocks_pruned = 0.0;
  double wcoj_1t_ms = 0.0;
  double wcoj_nt_ms = 0.0;
  double add_relation_ms = 0.0;
  double prepare_ms = 0.0;
  double coverage_root_ms = 0.0;
  double coverage_covered_ms = 0.0;
  double overhead_frac = 0.0;
  // Service only.
  double queue_wait_ms = 0.0;
  double shed = 0.0;
  double degraded = 0.0;
  double overhead_ms = 0.0;
  double batch_wait_ms = 0.0;
  double fanout_ms = 0.0;
  double follower_frac = 0.0;
  double hit_rate = 0.0;
  double probe_ms = 0.0;
  double bypass_frac = 0.0;
};

// Folds one query's traced executions into the layer inputs: the median
// span sample joins the round sum, and the last execution's record gives
// the plan-vs-actual and block counters.
void AddQueryLayers(const QueryDef& q, const std::vector<LayerSample>& samples,
                    const ExecStats& last, uint64_t actual_count,
                    LayerInputs* in) {
  const LayerSample med = MedianSample(samples);
  AddInto(&in->round, med);
  in->blocks_dense += static_cast<double>(last.kernel_counts.dense);
  in->blocks_csr_dense += static_cast<double>(last.kernel_counts.csr_dense);
  in->blocks_csr_csr += static_cast<double>(last.kernel_counts.csr_csr);
  for (const auto& b : last.block_choices) {
    in->block_nnz += static_cast<double>(b.nnz);
  }
  if (!IsPairFamily(q.kind)) return;
  in->blocks_scheduled += static_cast<double>(last.partition_blocks_scheduled);
  in->blocks_pruned += static_cast<double>(last.partition_blocks_pruned);
  const bool ran_mm = last.executed == Strategy::kMmJoin;
  if (q.kind == QueryKind::kTwoPath && !last.plan.use_full_wcoj &&
      last.plan.estimated_output > 0) {
    in->out_est += static_cast<double>(last.plan.estimated_output);
    in->out_actual += static_cast<double>(actual_count);
  }
  if (ran_mm && last.heavy_blocks_total > 0) {
    in->heavy_est_ms += last.plan.est_heavy_seconds * 1e3;
    in->heavy_actual_ms += Get(med, "heavy_wall_ms");
  }
  if (ran_mm && last.plan.density_adaptive != last.partition_used) {
    in->plan_mismatch += 1.0;
  }
}

// Records "num / den" as note base.<key>: the base of a ratio metric.
void NoteBase(Report* rep, const char* key, double num, double den) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g / %.6g", num, den);
  rep->Note(std::string("base.") + key, buf);
}

void EmitLayerMetrics(const LayerInputs& in, Report* rep) {
  const LayerSample& r = in.round;
  const double kernel_ms = Get(r, "kernel_ms");
  const double emit_ms = Get(r, "emit_ms");
  rep->Metric("matrix.calibrate_ms", in.calibrate_ms, "ms");
  rep->Metric("matrix.kernel_ms", kernel_ms, "ms");
  rep->Metric("matrix.kernel_nnz_per_s", Ratio(in.block_nnz, kernel_ms / 1e3),
              "1/s");
  rep->Metric("matrix.blocks.dense", in.blocks_dense, "count");
  rep->Metric("matrix.blocks.csr_dense", in.blocks_csr_dense, "count");
  rep->Metric("matrix.blocks.csr_csr", in.blocks_csr_csr, "count");
  rep->Metric("optimizer.plan_ms", in.plan_ms, "ms");
  rep->Metric("optimizer.regret", Ratio(in.regret_auto_ms, in.regret_best_ms),
              "ratio");
  rep->Metric("optimizer.out_qerror", QError(in.out_est, in.out_actual),
              "ratio");
  rep->Metric("optimizer.heavy_qerror",
              QError(in.heavy_est_ms, in.heavy_actual_ms), "ratio");
  rep->Metric("optimizer.plan_mismatch", in.plan_mismatch, "count");
  rep->Metric("mm_join.threshold_fit_ms", Get(r, "fit_ms"), "ms");
  rep->Metric("mm_join.light_ms", Get(r, "light_ms"), "ms");
  rep->Metric("mm_join.csr_build_ms", Get(r, "csr_build_ms"), "ms");
  rep->Metric("mm_join.degree_remap_ms", Get(r, "degree_remap_ms"), "ms");
  rep->Metric("mm_join.pack_ms", Get(r, "pack_ms"), "ms");
  rep->Metric("mm_join.emit_ms", emit_ms, "ms");
  rep->Metric("mm_join.heavy_wall_ms", Get(r, "heavy_wall_ms"), "ms");
  rep->Metric("mm_join.heavy_share",
              Ratio(Get(r, "heavy_wall_ms"), Get(r, "pair_exec_ms")), "ratio");
  rep->Metric("mm_join.emit_per_kernel", Ratio(emit_ms, kernel_ms), "ratio");
  rep->Metric("mm_join.blocks_pruned_frac",
              Ratio(in.blocks_pruned, in.blocks_scheduled + in.blocks_pruned),
              "ratio");
  rep->Metric("mm_join.parallel_eff",
              Ratio(Get(r, "pe_busy_ms"), Get(r, "pe_capacity_ms")), "ratio");
  rep->Metric("wcoj.ms", Get(r, "wcoj_ms"), "ms");
  rep->Metric("wcoj.parallel_eff",
              Ratio(in.wcoj_1t_ms, in.wcoj_nt_ms * in.threads), "ratio");
  rep->Metric("star_join.plan_ms", Get(r, "star_plan_ms"), "ms");
  rep->Metric("star_join.light_ms", Get(r, "star_light_ms"), "ms");
  rep->Metric("star_join.heavy_ms", Get(r, "star_heavy_ms"), "ms");
  rep->Metric("star_join.sink_finish_ms", Get(r, "star_finish_ms"), "ms");
  rep->Metric("result_sink.finish_ms", Get(r, "finish_ms"), "ms");
  rep->Metric("storage.add_relation_ms", in.add_relation_ms, "ms");
  rep->Metric("storage.prepare_ms", in.prepare_ms, "ms");
  rep->Metric("query_service.queue_wait_ms", in.queue_wait_ms, "ms");
  rep->Metric("query_service.shed", in.shed, "count");
  rep->Metric("query_service.degraded", in.degraded, "count");
  rep->Metric("query_service.overhead_ms", in.overhead_ms, "ms");
  rep->Metric("query_batcher.batch_wait_ms", in.batch_wait_ms, "ms");
  rep->Metric("query_batcher.fanout_ms", in.fanout_ms, "ms");
  rep->Metric("query_batcher.follower_frac", in.follower_frac, "ratio");
  rep->Metric("result_cache.hit_rate", in.hit_rate, "ratio");
  rep->Metric("result_cache.probe_ms", in.probe_ms, "ms");
  rep->Metric("result_cache.bypass_frac", in.bypass_frac, "ratio");
  rep->Metric("trace.coverage",
              Ratio(in.coverage_covered_ms, in.coverage_root_ms), "ratio");
  rep->Metric("trace.overhead_frac", in.overhead_frac, "ratio");

  // The bases of the ratios above, for the stored record.
  NoteBase(rep, "matrix.kernel_nnz_per_s", in.block_nnz, kernel_ms / 1e3);
  NoteBase(rep, "optimizer.regret", in.regret_auto_ms, in.regret_best_ms);
  NoteBase(rep, "optimizer.out_qerror", in.out_est, in.out_actual);
  NoteBase(rep, "optimizer.heavy_qerror", in.heavy_est_ms, in.heavy_actual_ms);
  NoteBase(rep, "mm_join.heavy_share", Get(r, "heavy_wall_ms"),
           Get(r, "pair_exec_ms"));
  NoteBase(rep, "mm_join.emit_per_kernel", emit_ms, kernel_ms);
  NoteBase(rep, "mm_join.blocks_pruned_frac", in.blocks_pruned,
           in.blocks_scheduled + in.blocks_pruned);
  NoteBase(rep, "mm_join.parallel_eff", Get(r, "pe_busy_ms"),
           Get(r, "pe_capacity_ms"));
  NoteBase(rep, "wcoj.parallel_eff", in.wcoj_1t_ms, in.wcoj_nt_ms * in.threads);
  NoteBase(rep, "trace.coverage", in.coverage_covered_ms, in.coverage_root_ms);
}

// Per-kind geometric mean of the per-query medians.
void EmitKindMetrics(const std::vector<QueryDef>& queries,
                     const std::vector<double>& medians, Report* rep) {
  for (QueryKind k : {QueryKind::kTwoPath, QueryKind::kSsj, QueryKind::kScj,
                      QueryKind::kStar}) {
    std::vector<double> v;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].kind == k) v.push_back(medians[i]);
    }
    rep->Metric(std::string(KindKey(k)) + "_ms", Geomean(v), "ms");
  }
}

// ---- paper-dense / paper-sparse: single-client closed loop -----------------

struct QueryState {
  Reference ref;
  std::vector<double> ms;         // untraced warm latencies
  std::vector<double> traced_ms;  // traced warm latencies
  std::vector<LayerSample> layers;
  ExecStats last;
};

// Runs whole rounds over the queries until `seconds` have elapsed (and at
// least `min_rounds`), recording latencies (and span samples when traced).
struct RoundsResult {
  double wall_s = 0.0;
  int rounds = 0;
  std::vector<double> peak_mb;  // per-round peak resident set
};

RoundsResult RunRounds(const WorkloadDef& w, Setup& s,
                       std::vector<QueryState>& qs, int threads, double seconds,
                       int min_rounds, bool traced, Tally* tally) {
  ExecOptions opts;
  opts.threads = threads;
  // One round: slot by slot, every query whose repeat count reaches the
  // slot, so repeats of one query are spread across the round.
  std::vector<size_t> order;
  for (int slot = 0;; ++slot) {
    const size_t before = order.size();
    for (size_t i = 0; i < w.queries.size(); ++i) {
      if (slot < w.queries[i].repeat) order.push_back(i);
    }
    if (order.size() == before) break;
  }
  RoundsResult out;
  const auto start = Clock::now();
  for (; out.rounds < min_rounds || MsSince(start) < seconds * 1e3;
       ++out.rounds) {
    ResetPeakRss();
    for (size_t i : order) {
      ExecResult r = ExecChecked(*s.engine, s.prepared[i], opts, qs[i].ref.fp,
                                 traced, tally);
      if (!r.ok) continue;
      if (!traced) {
        qs[i].ms.push_back(r.ms);
        continue;
      }
      qs[i].traced_ms.push_back(r.ms);
      LayerSample ls = AnalyzeSpans(r.stats.trace_spans,
                                    w.queries[i].kind == QueryKind::kStar,
                                    threads);
      ls["root_ms"] = r.root_ms;
      ls["covered_ms"] = r.covered_ms;
      qs[i].layers.push_back(std::move(ls));
      qs[i].last = std::move(r.stats);
    }
    out.peak_mb.push_back(PeakRssMb());
  }
  out.wall_s = MsSince(start) / 1e3;
  return out;
}

std::map<std::string, BinaryRelation> GenerateAll(const WorkloadDef& w,
                                                  uint64_t seed) {
  std::map<std::string, BinaryRelation> data;
  for (const auto& r : w.rels) data.emplace(r.name, Generate(r, seed, 0));
  return data;
}

int RunClosedLoop(const WorkloadDef& w, uint64_t seed, double seconds,
                  bool trace) {
  const int threads = Nproc();
  Tally tally;
  Report rep;
  LayerInputs li;
  li.threads = threads;
  if (trace) li.calibrate_ms = CalibrateMs();

  const std::map<std::string, BinaryRelation> data = GenerateAll(w, seed);
  Setup s;
  RunSetup(w, data, EarlySetupReps(w), true, &s);
  std::vector<QueryState> qs(w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    qs[i].ref = ComputeReference(*s.engine, w.queries[i], threads);
  }

  // Warm-up round: plans, grid caches and lazily built state; discarded.
  std::vector<QueryState> scratch = qs;
  RunRounds(w, s, scratch, threads, 0.0, 1, false, &tally);

  const double untraced_s = trace ? seconds / 2 : seconds;
  const RoundsResult measured =
      RunRounds(w, s, qs, threads, untraced_s, 3, false, &tally);
  RunSetup(w, data, w.setup_reps - EarlySetupReps(w), false, &s);
  std::vector<double> medians;
  std::vector<double> all_ms;
  for (const auto& q : qs) {
    medians.push_back(Median(q.ms));
    all_ms.insert(all_ms.end(), q.ms.begin(), q.ms.end());
  }
  const Tail tail = ReportedTail(all_ms, kTailBeyond);

  if (!trace) {
    rep.Metric("setup_s", Median(s.setup_s), "s");
    EmitKindMetrics(w.queries, medians, &rep);
    rep.Metric("service_qps",
               static_cast<double>(all_ms.size()) / measured.wall_s, "1/s");
    rep.Metric("service_p50_ms", Median(all_ms), "ms");
    rep.Metric("service_tail_ms", tail.value, "ms");
    rep.Metric("write_ms", Median(s.add_all_ms), "ms");
    rep.Metric("peak_rss_mb", Median(measured.peak_mb), "MB");
    for (size_t i = 0; i < qs.size(); ++i) {
      std::fprintf(stderr,
                   "# %-18s median %8.2f ms (min %.2f, max %.2f) over %zu, "
                   "%llu rows\n",
                   w.queries[i].label.c_str(), medians[i],
                   *std::min_element(qs[i].ms.begin(), qs[i].ms.end()),
                   *std::max_element(qs[i].ms.begin(), qs[i].ms.end()),
                   qs[i].ms.size(),
                   static_cast<unsigned long long>(qs[i].ref.fp.count()));
    }
  } else {
    RunRounds(w, s, qs, threads, seconds - untraced_s, 2, true, &tally);
    std::vector<double> traced_medians;
    for (size_t i = 0; i < qs.size(); ++i) {
      traced_medians.push_back(Median(qs[i].traced_ms));
      AddQueryLayers(w.queries[i], qs[i].layers, qs[i].last,
                     qs[i].ref.fp.count(), &li);
    }
    li.overhead_frac = Geomean(traced_medians) / Geomean(medians) - 1.0;
    li.coverage_root_ms = Get(li.round, "root_ms");
    li.coverage_covered_ms = Get(li.round, "covered_ms");
    li.add_relation_ms = SumOfMedians(s.add_ms_by_rel);
    li.prepare_ms = SumOfMedians(s.prepare_ms);

    ExecOptions opts;
    opts.threads = threads;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      const QueryDef& q = w.queries[i];
      if (!IsPairFamily(q.kind)) continue;
      li.plan_ms += PlanMs(*s.engine, q, threads, 5);
      // Plan regret of the two-path queries: the chosen strategy's median
      // against the best of the forced strategies (one warm-up each).
      if (q.kind == QueryKind::kTwoPath) {
        double best = 0.0;
        for (Strategy f : {Strategy::kMmJoin, Strategy::kNonMmJoin,
                           Strategy::kWcojFull}) {
          PreparedQuery pq;
          if (!s.engine->Prepare(SpecOf(q, f), &pq).ok()) continue;
          std::vector<double> ms;
          for (int rpt = 0; rpt < 3; ++rpt) {
            ExecResult r =
                ExecChecked(*s.engine, pq, opts, qs[i].ref.fp, false, &tally);
            if (rpt > 0 && r.ok) ms.push_back(r.ms);
          }
          const double m = Median(ms);
          if (m > 0.0 && (best == 0.0 || m < best)) best = m;
        }
        li.regret_auto_ms += medians[i];
        li.regret_best_ms += best;
      }
      // Thread-pool efficiency of the worst-case-optimal path, measured
      // from outside: its span at one thread against `threads` threads.
      if (qs[i].last.executed == Strategy::kWcojFull) {
        PreparedQuery pq;
        if (!s.engine->Prepare(SpecOf(q, Strategy::kWcojFull), &pq).ok()) {
          continue;
        }
        ExecOptions one;
        one.threads = 1;
        std::vector<double> ms;
        for (int rpt = 0; rpt < 2; ++rpt) {
          ExecResult r = ExecChecked(*s.engine, pq, one, qs[i].ref.fp, true,
                                     &tally);
          if (r.ok) {
            ms.push_back(Get(AnalyzeSpans(r.stats.trace_spans, false, 1),
                             "wcoj_ms"));
          }
        }
        li.wcoj_1t_ms += Median(ms);
        li.wcoj_nt_ms += Get(MedianSample(qs[i].layers), "wcoj_ms");
      }
    }
    EmitLayerMetrics(li, &rep);

    // Per-query breakdown (diagnostic).
    for (size_t i = 0; i < qs.size(); ++i) {
      const LayerSample med = MedianSample(qs[i].layers);
      std::fprintf(stderr, "# %-18s %-10s med %8.2f ms |",
                   w.queries[i].label.c_str(),
                   jpmm::StrategyName(qs[i].last.executed),
                   Median(qs[i].traced_ms));
      for (const auto& [k, v] : med) {
        if (v != 0.0) std::fprintf(stderr, " %s=%.3g", k.c_str(), v);
      }
      const jpmm::HeavyKernelCounts& kc = qs[i].last.kernel_counts;
      std::fprintf(stderr, " | blocks d=%llu cd=%llu cc=%llu rows=%llu\n",
                   static_cast<unsigned long long>(kc.dense),
                   static_cast<unsigned long long>(kc.csr_dense),
                   static_cast<unsigned long long>(kc.csr_csr),
                   static_cast<unsigned long long>(qs[i].ref.fp.count()));
    }
  }

  rep.Note("workload", w.name);
  rep.Note("threads", threads);
  rep.Note("rounds", measured.rounds);
  rep.Note("tail_percentile", tail.percentile);
  rep.Note("tail_samples", static_cast<double>(tail.samples));
  rep.Note("failed_frac", Ratio(static_cast<double>(tally.failed()),
                                static_cast<double>(tally.attempted.load())));
  std::printf("%s\n", rep.Json(tally).c_str());
  return tally.failed() == 0 ? 0 : 1;
}

// ---- service-mixed: 4 clients through one QueryService ---------------------

jpmm::QueryServiceOptions ServiceOptions() {
  jpmm::QueryServiceOptions o;
  o.max_inflight = kClients;
  o.enable_batching = true;
  o.enable_result_cache = true;
  o.result_cache_max_entry_bytes = kCacheEntryBytes;
  return o;
}

struct ReadRecord {
  int spec = 0;
  double ms = 0.0;       // re-Prepare (if any) + service Execute
  double exec_ms = 0.0;  // service Execute alone
  double engine_ms = 0.0;  // ExecStats::seconds
  bool cache_hit = false;
  bool follower = false;
  bool oversized = false;  // result above the cache's per-entry limit
  uint64_t rows = 0;       // reference row count
  LayerSample layers;
  double root_ms = 0.0;
  double covered_ms = 0.0;
  ExecStats stats;  // traced executions only
};

struct ServicePhase {
  std::vector<ReadRecord> reads;
  std::vector<double> write_ms;
  double wall_s = 0.0;
  std::vector<double> peak_mb;  // per-window peak resident set
  jpmm::ServiceStats before;
  jpmm::ServiceStats after;
};

class ServiceLoop {
 public:
  ServiceLoop(const WorkloadDef& w, uint64_t seed,
              std::vector<std::vector<BinaryRelation>> versions,
              std::vector<std::vector<Reference>> refs, QueryEngine* engine)
      : w_(w),
        seed_(seed),
        versions_(std::move(versions)),
        refs_(std::move(refs)),
        engine_(engine),
        service_(engine, ServiceOptions()),
        current_(w.rels.size(), 0) {
    double total = 0.0;
    for (size_t i = 0; i < w.queries.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    version_map_[engine_->catalog().version()] = current_;
  }

  // Runs the clients for `seconds`; `phase_id` varies the client seeds.
  ServicePhase Run(double seconds, bool traced, int phase_id, Tally* tally) {
    ServicePhase ph;
    ph.before = service_.stats();
    std::vector<std::vector<ReadRecord>> reads(kClients);
    std::vector<std::vector<double>> writes(kClients);
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Client(c, phase_id, end, traced, &reads[c], &writes[c], tally);
      });
    }
    // Peak resident set per window, while the clients run.
    while (Clock::now() < end) {
      ResetPeakRss();
      std::this_thread::sleep_until(
          std::min(end, Clock::now() + std::chrono::milliseconds(250)));
      ph.peak_mb.push_back(PeakRssMb());
    }
    for (auto& t : clients) t.join();
    ph.wall_s = MsSince(start) / 1e3;
    ph.after = service_.stats();
    for (int c = 0; c < kClients; ++c) {
      for (auto& r : reads[c]) ph.reads.push_back(std::move(r));
      ph.write_ms.insert(ph.write_ms.end(), writes[c].begin(), writes[c].end());
    }
    return ph;
  }

 private:
  void Client(int id, int phase_id, Clock::time_point end, bool traced,
              std::vector<ReadRecord>* reads, std::vector<double>* writes,
              Tally* tally) {
    std::mt19937_64 rng(Mix(seed_ ^ (0x9e37ULL * (id + 1)) ^
                            (0x7f4aULL * (phase_id + 1))));
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<PreparedQuery> prepared(w_.queries.size());
    std::vector<bool> have(w_.queries.size(), false);
    while (Clock::now() < end) {
      if (u(rng) < kWriteShare) {
        Write(rng, writes);
        continue;
      }
      const int spec = static_cast<int>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u(rng)) - cdf_.begin());
      const int qi = std::min(spec, static_cast<int>(w_.queries.size()) - 1);
      ReadRecord rec;
      rec.spec = qi;
      VectorSink sink;
      std::optional<jpmm::TraceRecorder> trec;
      jpmm::ServiceRequest req;
      req.exec.threads = 1;
      if (traced) {
        trec.emplace();
        req.exec.trace = &*trec;
      }
      const auto t0 = Clock::now();
      // An embedder re-Prepares once a write has changed the catalog.
      if (!have[qi] ||
          prepared[qi].prepared_version() != engine_->catalog().version()) {
        const QueryStatus pst =
            engine_->Prepare(SpecOf(w_.queries[qi]), &prepared[qi]);
        have[qi] = pst.ok();
      }
      const auto t1 = Clock::now();
      const QueryStatus st =
          have[qi] ? service_.Execute(prepared[qi], sink, req, &rec.stats)
                   : QueryStatus::Internal("prepare failed");
      rec.exec_ms = MsSince(t1);
      rec.ms = MsSince(t0);
      tally->attempted.fetch_add(1);
      if (!st.ok()) {
        tally->errors.fetch_add(1);
        continue;
      }
      const Reference& ref = RefFor(qi, prepared[qi].prepared_version());
      if (FingerprintOf(sink) != ref.fp) {
        tally->wrong.fetch_add(1);
        continue;
      }
      rec.engine_ms = rec.stats.seconds * 1e3;
      rec.cache_hit = rec.stats.result_cache_hit;
      rec.follower = rec.stats.batch_follower;
      rec.oversized = ref.bytes > kCacheEntryBytes;
      rec.rows = ref.fp.count();
      if (traced) {
        rec.layers = AnalyzeSpans(rec.stats.trace_spans,
                                  w_.queries[qi].kind == QueryKind::kStar, 1);
        rec.root_ms = RootMs(rec.stats.trace_spans);
        rec.covered_ms = trec->ChildCoverage() * rec.root_ms;
        rec.stats.trace_spans.clear();
      } else {
        rec.stats = ExecStats();
      }
      reads->push_back(std::move(rec));
    }
  }

  // Replaces one relation with another pre-generated version; the copy is
  // made before the timer starts. Writes are serialized so the catalog
  // version after each one identifies the data every later Prepare sees.
  void Write(std::mt19937_64& rng, std::vector<double>* writes) {
    std::lock_guard<std::mutex> lock(write_mu_);
    const size_t r = rng() % w_.rels.size();
    const int step = 1 + static_cast<int>(rng() % (kVersions - 1));
    const int next = (current_[r] + step) % kVersions;
    BinaryRelation copy = versions_[r][static_cast<size_t>(next)];
    const auto t0 = Clock::now();
    engine_->AddRelation(w_.rels[r].name, std::move(copy));
    writes->push_back(MsSince(t0));
    current_[r] = next;
    version_map_[engine_->catalog().version()] = current_;
  }

  const Reference& RefFor(int qi, uint64_t catalog_version) {
    std::lock_guard<std::mutex> lock(write_mu_);
    const auto& cur = version_map_.at(catalog_version);
    size_t r = 0;
    while (w_.rels[r].name != w_.queries[static_cast<size_t>(qi)].rel) ++r;
    return refs_[static_cast<size_t>(qi)][static_cast<size_t>(cur[r])];
  }

  const WorkloadDef& w_;
  const uint64_t seed_;
  const std::vector<std::vector<BinaryRelation>> versions_;  // [rel][version]
  const std::vector<std::vector<Reference>> refs_;  // [query][version]
  QueryEngine* const engine_;
  jpmm::QueryService service_;
  std::vector<double> cdf_;

  std::mutex write_mu_;
  std::vector<int> current_;                            // guarded by write_mu_
  std::map<uint64_t, std::vector<int>> version_map_;    // guarded by write_mu_
};

int RunService(const WorkloadDef& w, uint64_t seed, double seconds,
               bool trace) {
  Tally tally;
  Report rep;
  LayerInputs li;
  li.threads = 1;
  if (trace) li.calibrate_ms = CalibrateMs();

  std::vector<std::vector<BinaryRelation>> versions(w.rels.size());
  for (size_t r = 0; r < w.rels.size(); ++r) {
    for (int v = 0; v < kVersions; ++v) {
      versions[r].push_back(Generate(w.rels[r], seed, v));
    }
  }
  std::map<std::string, BinaryRelation> base;
  for (size_t r = 0; r < w.rels.size(); ++r) {
    base.emplace(w.rels[r].name, versions[r][0]);
  }
  Setup s;
  RunSetup(w, base, EarlySetupReps(w), true, &s);

  // References for every (query, version of its relation).
  std::vector<std::vector<Reference>> refs(w.queries.size());
  for (int v = 0; v < kVersions; ++v) {
    QueryEngine ref_engine;
    for (size_t r = 0; r < w.rels.size(); ++r) {
      ref_engine.AddRelation(w.rels[r].name,
                             versions[r][static_cast<size_t>(v)]);
    }
    for (size_t q = 0; q < w.queries.size(); ++q) {
      refs[q].push_back(ComputeReference(ref_engine, w.queries[q], 1));
    }
  }
  std::vector<double> ref_bytes_v0;
  for (const auto& r : refs) {
    ref_bytes_v0.push_back(static_cast<double>(r[0].bytes));
  }

  if (trace) {
    for (const auto& q : w.queries) {
      if (IsPairFamily(q.kind)) li.plan_ms += PlanMs(*s.engine, q, 1, 5);
    }
  }

  ServiceLoop loop(w, seed, std::move(versions), refs, s.engine.get());
  loop.Run(kServiceWarmupS, false, 0, &tally);
  const double untraced_s = trace ? seconds / 2 : seconds;
  ServicePhase ph = loop.Run(untraced_s, false, 1, &tally);
  RunSetup(w, base, w.setup_reps - EarlySetupReps(w), false, &s);

  std::vector<std::vector<double>> by_spec(w.queries.size());
  std::vector<std::vector<double>> executed(w.queries.size());
  std::vector<double> all_ms;
  for (const auto& r : ph.reads) {
    const size_t q = static_cast<size_t>(r.spec);
    by_spec[q].push_back(r.ms);
    if (!r.cache_hit && !r.follower) executed[q].push_back(r.ms);
    all_ms.push_back(r.ms);
  }
  std::vector<double> medians;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    medians.push_back(Median(executed[q].empty() ? by_spec[q] : executed[q]));
  }
  const Tail tail = ReportedTail(all_ms, kTailBeyond);
  const double p50 = Median(all_ms);

  if (!trace) {
    rep.Metric("setup_s", Median(s.setup_s), "s");
    EmitKindMetrics(w.queries, medians, &rep);
    rep.Metric("service_qps", static_cast<double>(ph.reads.size()) / ph.wall_s,
               "1/s");
    rep.Metric("service_p50_ms", p50, "ms");
    rep.Metric("service_tail_ms", tail.value, "ms");
    rep.Metric("write_ms", Median(ph.write_ms), "ms");
    rep.Metric("peak_rss_mb", Median(ph.peak_mb), "MB");
    for (size_t q = 0; q < w.queries.size(); ++q) {
      std::fprintf(stderr,
                   "# %-18s reads %6zu executed %6zu median %8.3f ms "
                   "(all reads %.3f ms)\n",
                   w.queries[q].label.c_str(), by_spec[q].size(),
                   executed[q].size(), medians[q], Median(by_spec[q]));
    }
  } else {
    ServicePhase tr = loop.Run(seconds - untraced_s, true, 2, &tally);
    std::vector<double> traced_all;
    std::vector<std::vector<LayerSample>> exec_layers(w.queries.size());
    std::vector<ExecStats> last(w.queries.size());
    std::vector<uint64_t> last_rows(w.queries.size(), 0);
    std::vector<double> overhead;
    double queue = 0, batch = 0, fanout = 0, probe = 0, hits = 0;
    double bypass = 0;
    for (auto& r : tr.reads) {
      traced_all.push_back(r.ms);
      queue += Get(r.layers, "queue_wait_ms");
      batch += Get(r.layers, "batch_wait_ms");
      fanout += Get(r.layers, "fanout_ms");
      probe += Get(r.layers, "probe_ms");
      hits += r.cache_hit ? 1 : 0;
      bypass += r.oversized ? 1 : 0;
      li.coverage_root_ms += r.root_ms;
      li.coverage_covered_ms += r.covered_ms;
      if (!r.cache_hit && !r.follower) {
        overhead.push_back(r.exec_ms - r.engine_ms);
        exec_layers[static_cast<size_t>(r.spec)].push_back(r.layers);
        last[static_cast<size_t>(r.spec)] = r.stats;
        last_rows[static_cast<size_t>(r.spec)] = r.rows;
      }
    }
    const double n = static_cast<double>(std::max<size_t>(1, tr.reads.size()));
    for (size_t q = 0; q < w.queries.size(); ++q) {
      if (exec_layers[q].empty()) continue;
      AddQueryLayers(w.queries[q], exec_layers[q], last[q], last_rows[q], &li);
    }
    li.add_relation_ms = SumOfMedians(s.add_ms_by_rel);
    li.prepare_ms = SumOfMedians(s.prepare_ms);
    li.queue_wait_ms = queue / n;
    li.batch_wait_ms = batch / n;
    li.fanout_ms = fanout / n;
    li.probe_ms = probe / n;
    li.hit_rate = hits / n;
    li.bypass_frac = bypass / n;
    li.overhead_ms = Median(overhead);
    li.shed = static_cast<double>(ph.after.shed - ph.before.shed +
                                  tr.after.shed - tr.before.shed);
    li.degraded = static_cast<double>(ph.after.degraded - ph.before.degraded +
                                      tr.after.degraded - tr.before.degraded);
    const double followers = static_cast<double>(tr.after.batch_followers -
                                                 tr.before.batch_followers);
    const double admitted =
        static_cast<double>(tr.after.admitted - tr.before.admitted);
    li.follower_frac = Ratio(followers, admitted);
    li.overhead_frac = Median(traced_all) / p50 - 1.0;
    EmitLayerMetrics(li, &rep);
    NoteBase(&rep, "result_cache.hit_rate", hits, n);
    NoteBase(&rep, "result_cache.bypass_frac", bypass, n);
    NoteBase(&rep, "query_batcher.follower_frac", followers, admitted);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      std::fprintf(stderr, "# %-18s reads %zu executed %zu result %.0f B\n",
                   w.queries[q].label.c_str(), by_spec[q].size(),
                   exec_layers[q].size(), ref_bytes_v0[q]);
    }
  }
  rep.Note("workload", w.name);
  rep.Note("reads", static_cast<double>(ph.reads.size()));
  rep.Note("writes", static_cast<double>(ph.write_ms.size()));
  rep.Note("tail_percentile", tail.percentile);
  rep.Note("tail_samples", static_cast<double>(tail.samples));
  rep.Note("failed_frac", Ratio(static_cast<double>(tally.failed()),
                                static_cast<double>(tally.attempted.load())));
  std::printf("%s\n", rep.Json(tally).c_str());
  return tally.failed() == 0 ? 0 : 1;
}

// ---- Cold probe ------------------------------------------------------------

// The first Execute of a fresh process on the workload's first query: the
// only timed call, so calibration and the first plan land in it.
int RunColdProbe(const WorkloadDef& w, uint64_t seed) {
  const QueryDef& q = w.queries.front();
  QueryEngine engine;
  for (const auto& r : w.rels) {
    if (r.name == q.rel) engine.AddRelation(r.name, Generate(r, seed, 0));
  }
  PreparedQuery pq;
  if (!engine.Prepare(SpecOf(q), &pq).ok()) return 2;
  VectorSink sink;
  QueryStatus st;
  double ms = 0.0;
  if (w.service) {
    jpmm::QueryService service(&engine, ServiceOptions());
    jpmm::ServiceRequest req;
    req.exec.threads = 1;
    const auto t0 = Clock::now();
    st = service.Execute(pq, sink, req);
    ms = MsSince(t0);
  } else {
    ExecOptions opts;
    opts.threads = Nproc();
    const auto t0 = Clock::now();
    st = engine.Execute(pq, sink, opts);
    ms = MsSince(t0);
  }
  const bool correct =
      st.ok() &&
      FingerprintOf(sink) ==
          ComputeReference(engine, q, w.service ? 1 : Nproc()).fp;
  std::printf("{\"cold_ms\": %s, \"correct\": %s}\n", JsonNumber(ms).c_str(),
              correct ? "true" : "false");
  return correct ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload paper-dense|paper-sparse|"
               "service-mixed --seed N --seconds S --trace 0|1 [--size F] "
               "[--cold-probe]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  PinAllocatorPolicy();
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool cold_probe = false;
  double size = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--cold-probe") {
      cold_probe = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--size" && has_value) {
      size = std::strtod(argv[++i], nullptr);
    } else {
      return Usage(("unknown or incomplete argument: " + a).c_str());
    }
  }
  if (!(seconds > 0.0) || !(size > 0.0)) {
    return Usage("bad --seconds or --size");
  }
  for (const auto& w : Workloads(size)) {
    if (w.name != workload) continue;
    if (cold_probe) return RunColdProbe(w, seed);
    return w.service ? RunService(w, seed, seconds, trace)
                     : RunClosedLoop(w, seed, seconds, trace);
  }
  return Usage(("unknown workload: " + workload).c_str());
}
