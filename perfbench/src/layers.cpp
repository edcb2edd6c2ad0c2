#include "layers.h"

#include <string_view>
#include <utility>

#include "bench_math.h"

namespace perfbench {

namespace {

double Ms(const jpmm::TraceSpan& s) { return s.Seconds() * 1e3; }

}  // namespace

LayerSample AnalyzeSpans(const std::vector<jpmm::TraceSpan>& spans, bool star,
                         int threads) {
  LayerSample out;
  auto add = [&out](const char* key, double v) { out[key] += v; };
  // Children of the parallel stages (light pass, heavy product) feed the
  // parallel-efficiency terms: summed child time against the union of
  // the child intervals times the worker count.
  std::map<int32_t, std::vector<std::pair<double, double>>> stage_children;

  for (size_t i = 0; i < spans.size(); ++i) {
    const jpmm::TraceSpan& s = spans[i];
    const std::string_view name(s.name);
    const double ms = Ms(s);
    if (name == "execute") {
      add("exec_ms", ms);
      if (!star) add("pair_exec_ms", ms);
    } else if (name == "request") {
      add("request_ms", ms);
    } else if (name == "queue-wait") {
      add("queue_wait_ms", ms);
    } else if (name == "batch-wait") {
      add("batch_wait_ms", ms);
    } else if (name == "fanout-emit") {
      add("fanout_ms", ms);
    } else if (name == "cache-probe") {
      add("probe_ms", ms);
    } else if (name.substr(0, 6) == "block:") {
      add("kernel_ms", ms);
    } else if (name == "wcoj-full") {
      add("wcoj_ms", ms);
    } else if (star) {
      if (name == "plan" || name == "threshold-fit") add("star_plan_ms", ms);
      if (name == "light-pass") add("star_light_ms", ms);
      if (name == "heavy") add("star_heavy_ms", ms);
      if (name == "sink-finish") add("star_finish_ms", ms);
    } else if (name == "threshold-fit") {
      add("fit_ms", ms);
    } else if (name == "light-pass") {
      add("light_ms", ms);
    } else if (name == "csr-build") {
      add("csr_build_ms", ms);
    } else if (name == "degree-remap") {
      add("degree_remap_ms", ms);
    } else if (name == "pack") {
      add("pack_ms", ms);
    } else if (name == "emit-inverse-remap") {
      add("emit_ms", ms);
    } else if (name == "heavy") {
      add("heavy_wall_ms", ms);
    } else if (name == "sink-finish") {
      add("finish_ms", ms);
    }
    if (star || s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const std::string_view parent(spans[static_cast<size_t>(s.parent)].name);
    if (parent == "light-pass" || parent == "heavy") {
      stage_children[s.parent].emplace_back(s.begin_s, s.end_s);
    }
  }
  for (const auto& [stage, iv] : stage_children) {
    (void)stage;
    double busy = 0.0;
    for (const auto& [b, e] : iv) busy += e > b ? e - b : 0.0;
    add("pe_busy_ms", busy * 1e3);
    add("pe_capacity_ms", UnionLength(iv) * 1e3 * threads);
  }
  return out;
}

LayerSample MedianSample(const std::vector<LayerSample>& samples) {
  LayerSample keys;
  for (const auto& s : samples) {
    for (const auto& [k, v] : s) keys[k] = 0.0;
  }
  for (auto& [k, v] : keys) {
    std::vector<double> vals;
    vals.reserve(samples.size());
    for (const auto& s : samples) vals.push_back(Get(s, k));
    v = Median(std::move(vals));
  }
  return keys;
}

void AddInto(LayerSample* a, const LayerSample& b) {
  for (const auto& [k, v] : b) (*a)[k] += v;
}

double Get(const LayerSample& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
