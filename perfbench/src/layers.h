// Turns the span tree of one traced execution (ExecStats::trace_spans)
// into per-layer quantities, and sums per-query samples into the layer
// metrics the benchmark reports.
//
// Every quantity is additive (milliseconds or counts), so a workload's
// value is the sum over one round of its queries; ratios are formed from
// those sums at the end (LayerTotals::Ratio).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "core/trace.h"

namespace perfbench {

/// Named additive quantities of one execution (or one workload round).
using LayerSample = std::map<std::string, double>;

/// Extracts the layer quantities of one execution from its spans.
///   star     the spans come from a star query (its stages are the
///            star_join layer, not mm_join)
///   threads  worker count, the capacity term of parallel efficiency
///
/// Keys: exec_ms; pair_exec_ms, kernel_ms, fit_ms, light_ms, csr_build_ms,
/// degree_remap_ms, pack_ms, emit_ms, heavy_wall_ms, finish_ms, wcoj_ms,
/// pe_busy_ms, pe_capacity_ms (two-path family); star_plan_ms,
/// star_light_ms, star_heavy_ms, star_finish_ms (star); request_ms,
/// queue_wait_ms, batch_wait_ms, fanout_ms, probe_ms (service). Absent
/// stages leave their key at 0.
LayerSample AnalyzeSpans(const std::vector<jpmm::TraceSpan>& spans, bool star,
                         int threads);

/// Element-wise median over several samples of one query (missing keys
/// count as 0).
LayerSample MedianSample(const std::vector<LayerSample>& samples);

/// Adds `b` into `a` key by key.
void AddInto(LayerSample* a, const LayerSample& b);

/// Value of `key`, 0 when absent.
double Get(const LayerSample& s, const std::string& key);

/// num / den, 0 when den is 0.
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
