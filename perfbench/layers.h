// Per-layer accounting from the program's flight-recorder spans.
//
// Busy time of a span category is the length of the union of its intervals on
// each thread, summed over threads, so batched or overlapping spans (the
// per-request prepare spans of one chunk, interleaved HNSW groups) count once.
// A parent's self time is its busy time minus the part of it that its child
// categories cover on the same thread.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <unordered_set>

#include "src/obs/trace.h"

namespace perfbench {

constexpr size_t kNumCategories = static_cast<size_t>(iccache::TraceCategory::kNumCategories);

struct LayerTotals {
  // Nanoseconds of busy time and span counts per category.
  uint64_t busy_ns[kNumCategories] = {};
  uint64_t spans[kNumCategories] = {};
  // Stage-1: the batched ANN sweep plus the per-request candidate build.
  uint64_t stage1_ns = 0;
  // Stage-0: the per-query probe spans plus the HNSW searches that feed them
  // (the batched stage-0 index search runs before, not inside, its probe
  // spans: an HNSW span outside the stage-1 sweep whose next span on the
  // thread is a stage-0 probe).
  uint64_t stage0_probe_ns = 0;
  // Every other HNSW search outside the stage-1 sweep: in the driver, the
  // admission dedupe probe (one unbatched top-1 search per request).
  uint64_t admission_search_ns = 0;
  // Prepare and ServeRequest time not covered by their child stages.
  uint64_t prepare_self_ns = 0;
  uint64_t service_self_ns = 0;
  uint64_t dropped = 0;
  // Requests whose per-request stage-1 span was recorded.
  std::unordered_set<uint64_t> stage1_request_ids;

  double BusySeconds(iccache::TraceCategory category) const {
    return 1e-9 * static_cast<double>(busy_ns[static_cast<size_t>(category)]);
  }
  uint64_t Spans(iccache::TraceCategory category) const {
    return spans[static_cast<size_t>(category)];
  }
};

// Folds one recorder snapshot into `totals`.
void Accumulate(const iccache::TraceRecorder::Snapshot& snapshot, LayerTotals* totals);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
