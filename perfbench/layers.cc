#include "perfbench/layers.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using iccache::TraceCategory;
using Intervals = std::vector<std::pair<uint64_t, uint64_t>>;  // sorted, disjoint

Intervals Union(Intervals spans) {
  std::sort(spans.begin(), spans.end());
  Intervals out;
  for (const auto& span : spans) {
    if (!out.empty() && span.first <= out.back().second) {
      out.back().second = std::max(out.back().second, span.second);
    } else {
      out.push_back(span);
    }
  }
  return out;
}

Intervals UnionOf(std::initializer_list<const Intervals*> lists) {
  Intervals all;
  for (const Intervals* list : lists) {
    all.insert(all.end(), list->begin(), list->end());
  }
  return Union(std::move(all));
}

uint64_t Length(const Intervals& spans) {
  uint64_t total = 0;
  for (const auto& span : spans) {
    total += span.second - span.first;
  }
  return total;
}

// Length of the intersection of two sorted, disjoint interval lists.
uint64_t Overlap(const Intervals& a, const Intervals& b) {
  uint64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint64_t lo = std::max(a[i].first, b[j].first);
    const uint64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) {
      total += hi - lo;
    }
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

void Accumulate(const iccache::TraceRecorder::Snapshot& snapshot, LayerTotals* totals) {
  totals->dropped += snapshot.dropped;
  for (const auto& thread : snapshot.threads) {
    std::vector<Intervals> raw(kNumCategories);
    for (const iccache::TraceEvent& event : thread.events) {
      const size_t c = static_cast<size_t>(event.category);
      if (c >= kNumCategories) {
        continue;
      }
      raw[c].emplace_back(event.begin_ns, event.end_ns);
      ++totals->spans[c];
      if (event.category == TraceCategory::kStage1Retrieval) {
        totals->stage1_request_ids.insert(event.request_id);
      }
    }
    std::vector<Intervals> u(kNumCategories);
    for (size_t c = 0; c < kNumCategories; ++c) {
      u[c] = Union(std::move(raw[c]));
      totals->busy_ns[c] += Length(u[c]);
    }
    const auto& at = [&u](TraceCategory category) -> const Intervals& {
      return u[static_cast<size_t>(category)];
    };

    const Intervals& hnsw = at(TraceCategory::kHnswSearch);
    const Intervals& batch = at(TraceCategory::kStage1Batch);
    totals->stage1_ns += Length(UnionOf({&batch, &at(TraceCategory::kStage1Retrieval)}));

    // Split the HNSW searches outside the stage-1 sweep by the span that
    // follows them on this thread.
    std::vector<const iccache::TraceEvent*> order;
    order.reserve(thread.events.size());
    for (const iccache::TraceEvent& event : thread.events) {
      order.push_back(&event);
    }
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
      return a->begin_ns < b->begin_ns;
    });
    Intervals stage0_search;
    Intervals admission_search;
    for (size_t i = 0; i < order.size(); ++i) {
      const iccache::TraceEvent& event = *order[i];
      if (event.category != TraceCategory::kHnswSearch ||
          Overlap({{event.begin_ns, event.end_ns}}, batch) > 0) {
        continue;
      }
      bool feeds_probe = false;
      for (size_t j = i + 1; j < order.size(); ++j) {
        if (order[j]->category != TraceCategory::kHnswSearch &&
            order[j]->begin_ns >= event.end_ns) {
          feeds_probe = order[j]->category == TraceCategory::kStage0Probe;
          break;
        }
      }
      (feeds_probe ? stage0_search : admission_search).emplace_back(event.begin_ns, event.end_ns);
    }
    stage0_search = Union(std::move(stage0_search));
    admission_search = Union(std::move(admission_search));
    totals->stage0_probe_ns +=
        Length(UnionOf({&at(TraceCategory::kStage0Probe), &stage0_search}));
    totals->admission_search_ns += Length(admission_search) -
                                   Overlap(admission_search, at(TraceCategory::kStage0Probe));

    const Intervals children = UnionOf({&at(TraceCategory::kStage0Probe), &hnsw,
                                        &at(TraceCategory::kStage1Retrieval),
                                        &at(TraceCategory::kStage2Scoring)});
    const Intervals prepare_children =
        UnionOf({&children, &at(TraceCategory::kEmbed), &batch});
    const Intervals& prepare = at(TraceCategory::kPrepare);
    totals->prepare_self_ns += Length(prepare) - Overlap(prepare, prepare_children);
    const Intervals& service = at(TraceCategory::kServiceRequest);
    totals->service_self_ns += Length(service) - Overlap(service, children);
  }
}

}  // namespace perfbench
