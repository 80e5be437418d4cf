#include "spans.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

thread_local std::uint32_t tlsCurrent = 0;

double between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Length of the union of [start, end) intervals.
double unionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double coveredTo = -1e300;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, coveredTo);
    if (end > from) total += end - from;
    coveredTo = std::max(coveredTo, end);
  }
  return total;
}

}  // namespace

std::string_view SpanRecord::layer() const {
  const std::string_view view = name;
  return view.substr(0, view.find('.'));
}

double SpanRecord::seconds() const { return between(start, end); }

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

std::uint32_t SpanRecorder::open(std::string_view name,
                                 std::uint32_t parent) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord record;
  record.name = std::string(name);
  record.id = nextId_++;
  record.parent = parent;
  record.start = now;
  record.end = now;
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint32_t id, std::uint64_t items) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are handed out in push order, so the record sits at a known slot
  // relative to the first id still held.
  if (spans_.empty() || id < spans_.front().id) return;  // taken while open
  SpanRecord& record = spans_[id - spans_.front().id];
  record.end = now;
  record.items = items;
  record.closed = true;
}

void SpanRecorder::count(std::string_view name, std::uint64_t value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[std::string(name)] += value;
}

Recorded SpanRecorder::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return Recorded{std::exchange(spans_, {}), std::exchange(counts_, {})};
}

Span::Span(std::string_view name) : Span(name, tlsCurrent) {}

Span::Span(std::string_view name, std::uint32_t parent) {
  SpanRecorder& recorder = SpanRecorder::global();
  if (!recorder.enabled()) return;
  id_ = recorder.open(name, parent);
  previous_ = tlsCurrent;
  tlsCurrent = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecorder::global().close(id_, items_);
  tlsCurrent = previous_;
}

PhaseAccount account(const std::vector<SpanRecord>& spans,
                     std::uint32_t rootId) {
  std::unordered_map<std::uint32_t, const SpanRecord*> byId;
  for (const SpanRecord& span : spans) byId[span.id] = &span;
  const SpanRecord& root = *byId.at(rootId);

  // The root's subtree, in recording order (parents precede children).
  std::unordered_map<std::uint32_t, std::size_t> index;
  std::vector<const SpanRecord*> tree;
  for (const SpanRecord& span : spans) {
    if (span.id == rootId || index.count(span.parent) != 0) {
      index[span.id] = tree.size();
      tree.push_back(&span);
    }
  }

  PhaseAccount out;
  out.rootSeconds = root.seconds();
  out.strays = spans.size() - tree.size();
  const auto at = [&](Clock::time_point t) { return between(root.start, t); };

  std::map<std::string, std::vector<std::pair<double, double>>> outer;
  std::map<std::string, std::vector<std::pair<double, double>>> byName;
  for (const SpanRecord* span : tree) {
    out.nameSeconds[span->name] += span->seconds();
    byName[span->name].emplace_back(at(span->start), at(span->end));
    ++out.nameCount[span->name];
    out.nameItems[span->name] += span->items;
    if (!span->closed) ++out.unclosed;
    if (span->id != rootId) {
      const SpanRecord& parent = *byId.at(span->parent);
      if (span->start < parent.start || span->end > parent.end) ++out.escaped;
    }
    const std::string layer(span->layer());
    out.layers[layer];  // every layer seen gets a row
    const bool outermost =
        span->id == rootId || byId.at(span->parent)->layer() != layer;
    if (outermost) {
      out.layers[layer].busy += span->seconds();
      outer[layer].emplace_back(at(span->start), at(span->end));
    }
    if (span->name == "core.fold") {
      out.foldSeconds.push_back(span->seconds());
      const SpanRecord& submitter = *byId.at(span->parent);
      if (submitter.layer() == "runtime") {
        out.queueWait += between(submitter.start, span->start);
      }
    }
  }
  for (auto& [layer, intervals] : outer) {
    out.layers[layer].wall = unionLength(std::move(intervals));
  }
  for (auto& [name, intervals] : byName) {
    out.nameWall[name] = unionLength(std::move(intervals));
  }

  // Exclusive time: sweep the elementary intervals between span
  // boundaries and split each one among the active leaves.
  std::vector<double> cuts;
  cuts.reserve(tree.size() * 2);
  for (const SpanRecord* span : tree) {
    cuts.push_back(at(span->start));
    cuts.push_back(at(span->end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<double> starts(tree.size()), ends(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    starts[i] = at(tree[i]->start);
    ends[i] = at(tree[i]->end);
  }
  std::vector<char> active(tree.size()), hasActiveChild(tree.size());
  const double rootEnd = out.rootSeconds;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const double from = cuts[c];
    const double to = std::min(cuts[c + 1], rootEnd);
    if (from < 0 || to <= from) continue;
    std::fill(hasActiveChild.begin(), hasActiveChild.end(), 0);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      active[i] = starts[i] <= from && ends[i] >= to;
      if (active[i] && tree[i]->id != rootId) {
        hasActiveChild[index.at(tree[i]->parent)] = 1;
      }
    }
    std::size_t leaves = 0;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      if (active[i] && hasActiveChild[i] == 0) ++leaves;
    }
    if (leaves == 0) continue;
    const double share = (to - from) / static_cast<double>(leaves);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      if (active[i] && hasActiveChild[i] == 0) {
        out.layers[std::string(tree[i]->layer())].self += share;
      }
    }
  }
  return out;
}

}  // namespace perfbench
