// Self-test of the benchmark's own arithmetic: median, geometric mean, the
// tail rule, the interval union behind parallel efficiency, the fingerprint's
// order independence, and span extraction on a hand-built span tree.
// Exits 0 when every check passes; prints each failure otherwise.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "core/trace.h"
#include "layers.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

bool Near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps * std::max(1.0, std::fabs(b));
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

void TestMedian() {
  using perfbench::Median;
  CHECK(Median({}) == 0.0);
  CHECK(Median({3.0}) == 3.0);
  CHECK(Median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestGeomean() {
  using perfbench::Geomean;
  CHECK(Geomean({}) == 0.0);
  CHECK(Near(Geomean({2.0, 8.0}), 4.0));
  CHECK(Near(Geomean({1.0, 10.0, 100.0}), 10.0));
  CHECK(Near(Geomean({7.0, 7.0, 7.0}), 7.0));
  // Equal relative weight: scaling one query by k scales the mean by
  // k^(1/n), whichever query it is.
  CHECK(Near(Geomean({2.0, 100.0}) / Geomean({1.0, 100.0}),
             Geomean({1.0, 200.0}) / Geomean({1.0, 100.0})));
  CHECK(Geomean({1.0, 0.0}) == 0.0);
}

void TestTail() {
  using perfbench::TailBeyond;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  // 100 samples: the 11th largest (90) has exactly 10 samples beyond it.
  perfbench::Tail t = TailBeyond(v, 10);
  CHECK(t.value == 90.0);
  CHECK(Near(t.percentile, 90.0));
  CHECK(t.samples == 100);
  const size_t beyond =
      static_cast<size_t>(std::count_if(v.begin(), v.end(),
                                        [&](double x) { return x > t.value; }));
  CHECK(beyond == 10);
  // 1000 samples: p99 (value 990), 10 beyond.
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = TailBeyond(v, 10);
  CHECK(t.value == 990.0);
  CHECK(Near(t.percentile, 99.0));
  // 11 samples: the minimum is the only rank with 10 beyond.
  v.assign({5, 1, 9, 3, 7, 11, 2, 4, 6, 8, 10});
  t = TailBeyond(v, 10);
  CHECK(t.value == 1.0);
  // Too few samples: no percentile qualifies; the maximum is reported.
  v.assign({1, 2, 3});
  t = TailBeyond(v, 10);
  CHECK(t.value == 3.0);
  CHECK(t.percentile == 0.0);
  // The reported tail: TailBeyond(10) up to 1099 samples, p99 beyond.
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(perfbench::ReportedTail(v, 10).value == 990.0);
  v.clear();
  for (int i = 1; i <= 40000; ++i) v.push_back(i);
  std::shuffle(v.begin(), v.end(), std::mt19937(11));
  t = perfbench::ReportedTail(v, 10);
  CHECK(t.value == 39600.0);
  CHECK(Near(t.percentile, 99.0));
}

void TestUnion() {
  using perfbench::UnionLength;
  CHECK(UnionLength({}) == 0.0);
  CHECK(Near(UnionLength({{0, 1}, {2, 3}}), 2.0));
  CHECK(Near(UnionLength({{0, 2}, {1, 3}}), 3.0));
  CHECK(Near(UnionLength({{0, 4}, {1, 2}, {3, 5}}), 5.0));
  CHECK(Near(UnionLength({{1, 2}, {0, 1}}), 2.0));  // touching, unsorted
  CHECK(Near(UnionLength({{0, 1}, {5, 4}}), 1.0));  // empty interval ignored
  // Summed time is 3 but the wall is 2: a renderer summing spans would
  // show 150% of wall here.
  CHECK(Near(UnionLength({{0, 2}, {0, 1}}), 2.0));
}

void TestQError() {
  using perfbench::QError;
  CHECK(Near(QError(10, 40), 4.0));
  CHECK(Near(QError(40, 10), 4.0));
  CHECK(Near(QError(5, 5), 1.0));
  CHECK(QError(0, 5) == 0.0);
}

void TestFingerprint() {
  using perfbench::Fingerprint;
  std::vector<std::pair<uint32_t, uint32_t>> rows;
  std::mt19937 rng(11);
  for (int i = 0; i < 1000; ++i) rows.emplace_back(rng() % 97, rng() % 89);
  Fingerprint a;
  for (const auto& [x, z] : rows) a.AddPair(x, z);
  std::shuffle(rows.begin(), rows.end(), rng);
  Fingerprint b;
  for (const auto& [x, z] : rows) b.AddPair(x, z);
  CHECK(a == b);
  CHECK(a.count() == 1000);
  // A changed row, a dropped row, a duplicated row and a swapped pair all
  // change it.
  Fingerprint c;
  for (size_t i = 0; i < rows.size(); ++i) {
    c.AddPair(rows[i].first, rows[i].second + (i == 17 ? 1u : 0u));
  }
  CHECK(c != b);
  Fingerprint d;
  for (size_t i = 1; i < rows.size(); ++i) {
    d.AddPair(rows[i].first, rows[i].second);
  }
  CHECK(d != b);
  Fingerprint e = b;
  e.AddPair(rows[0].first, rows[0].second);
  CHECK(e != b);
  Fingerprint p;
  Fingerprint q;
  p.AddPair(1, 2);
  q.AddPair(2, 1);
  CHECK(p != q);
  // Counted rows differ from plain pairs, and tuples hash as whole rows.
  Fingerprint r;
  r.AddCounted(1, 2, 1);
  CHECK(r != p);
  const uint32_t t1[3] = {1, 2, 3};
  const uint32_t t2[3] = {3, 2, 1};
  Fingerprint s1;
  Fingerprint s2;
  s1.AddRow(t1, t1 + 3);
  s1.AddRow(t2, t2 + 3);
  s2.AddRow(t2, t2 + 3);
  s2.AddRow(t1, t1 + 3);
  CHECK(s1 == s2);
}

jpmm::TraceSpan Span(const char* name, int32_t parent, double b, double e) {
  jpmm::TraceSpan s;
  s.name = name;
  s.parent = parent;
  s.begin_s = b;
  s.end_s = e;
  return s;
}

void TestAnalyzeSpans() {
  // execute [0,10): plan, light-pass [1,3) with two chunks, heavy [3,9)
  // with two kernel blocks on two workers and one emit, sink-finish.
  std::vector<jpmm::TraceSpan> spans = {
      Span("execute", -1, 0.0, 0.010),       // 0
      Span("plan", 0, 0.0, 0.001),           // 1
      Span("light-pass", 0, 0.001, 0.003),   // 2
      Span("light-chunk", 2, 0.001, 0.003),  // 3
      Span("light-chunk", 2, 0.001, 0.002),  // 4
      Span("heavy", 0, 0.003, 0.009),        // 5
      Span("block:dense", 5, 0.003, 0.007),  // 6
      Span("block:csr-csr", 5, 0.003, 0.005),  // 7
      Span("emit-inverse-remap", 5, 0.007, 0.009),  // 8
      Span("sink-finish", 0, 0.009, 0.010),  // 9
  };
  const perfbench::LayerSample s = perfbench::AnalyzeSpans(spans, false, 2);
  using perfbench::Get;
  CHECK(Near(Get(s, "exec_ms"), 10.0));
  CHECK(Near(Get(s, "pair_exec_ms"), 10.0));
  CHECK(Near(Get(s, "light_ms"), 2.0));
  CHECK(Near(Get(s, "heavy_wall_ms"), 6.0));
  CHECK(Near(Get(s, "kernel_ms"), 6.0));  // 4 + 2, summed worker time
  CHECK(Near(Get(s, "emit_ms"), 2.0));
  CHECK(Near(Get(s, "finish_ms"), 1.0));
  // Busy: light 2 + 1, heavy 4 + 2 + 2 = 11 ms; capacity: unions 2 and 6
  // times two workers = 16 ms.
  CHECK(Near(Get(s, "pe_busy_ms"), 11.0));
  CHECK(Near(Get(s, "pe_capacity_ms"), 16.0));
  CHECK(Get(s, "star_heavy_ms") == 0.0);
  // The same tree from a star query lands in the star_join keys.
  const perfbench::LayerSample st = perfbench::AnalyzeSpans(spans, true, 2);
  CHECK(Near(Get(st, "star_heavy_ms"), 6.0));
  CHECK(Near(Get(st, "star_plan_ms"), 1.0));
  CHECK(Get(st, "heavy_wall_ms") == 0.0);
  CHECK(Get(st, "pair_exec_ms") == 0.0);

  const perfbench::LayerSample m = perfbench::MedianSample(
      {{{"a", 1.0}}, {{"a", 5.0}, {"b", 2.0}}, {{"a", 3.0}}});
  CHECK(Near(Get(m, "a"), 3.0));
  CHECK(Near(Get(m, "b"), 0.0));  // missing counts as 0
}

}  // namespace

int main() {
  TestMedian();
  TestGeomean();
  TestTail();
  TestUnion();
  TestQError();
  TestFingerprint();
  TestAnalyzeSpans();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
