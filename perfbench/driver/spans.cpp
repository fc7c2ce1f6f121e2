#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr unsigned kThreadShift = 40;

// Length of the union of [a, b) intervals clipped to [lo, hi).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = 0;
  bool have = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (have && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (have) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    have = true;
  }
  if (have) total += cur_b - cur_a;
  return total;
}

}  // namespace

SpanLog::SpanLog(unsigned num_threads) : bufs_(num_threads) {}

std::uint32_t SpanLog::intern(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

std::uint64_t SpanLog::open(unsigned t, std::uint32_t name,
                            std::uint64_t cross_parent) {
  Buffer& b = bufs_.at(t);
  Span s;
  s.id = (static_cast<std::uint64_t>(t + 1) << kThreadShift) | b.next++;
  s.parent = b.open.empty() ? cross_parent : b.open.back().id;
  s.name = name;
  s.thread = t;
  s.t0_ns = now_ns();
  b.open.push_back(s);
  return s.id;
}

void SpanLog::close(unsigned t, std::uint64_t id) {
  const std::int64_t t1 = now_ns();
  Buffer& b = bufs_.at(t);
  if (b.open.empty() || b.open.back().id != id) {
    throw std::logic_error("spans closed out of order");
  }
  Span s = b.open.back();
  b.open.pop_back();
  s.t1_ns = t1;
  b.done.push_back(s);
}

const Span& SpanLog::find(std::uint64_t id) const {
  const unsigned t = static_cast<unsigned>((id >> kThreadShift) - 1);
  for (const Span& s : bufs_.at(t).done) {
    if (s.id == id) return s;
  }
  throw std::logic_error("span not found");
}

std::vector<LayerRow> SpanLog::rows(std::uint64_t root) const {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> kids;
  for (const Buffer& b : bufs_) {
    for (const Span& s : b.done) kids[s.parent].push_back(&s);
  }
  std::vector<LayerRow> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  std::vector<const Span*> stack{&find(root)};
  while (!stack.empty()) {
    const Span* s = stack.back();
    stack.pop_back();
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    const auto it = kids.find(s->id);
    if (it != kids.end()) {
      for (const Span* k : it->second) {
        iv.emplace_back(k->t0_ns, k->t1_ns);
        stack.push_back(k);
      }
    }
    const std::int64_t dur = s->t1_ns - s->t0_ns;
    LayerRow& r = out[s->name];
    ++r.count;
    r.total_s += static_cast<double>(dur) * 1e-9;
    r.self_s += static_cast<double>(dur - covered(std::move(iv), s->t0_ns,
                                                  s->t1_ns)) * 1e-9;
  }
  std::vector<LayerRow> used;
  for (LayerRow& r : out) {
    if (r.count > 0) used.push_back(std::move(r));
  }
  return used;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  const auto it = index_.find(name);
  if (it == index_.end()) return out;
  for (const Buffer& b : bufs_) {
    for (const Span& s : b.done) {
      if (s.name == it->second) {
        out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9);
      }
    }
  }
  return out;
}

void SpanLog::clear() {
  for (Buffer& b : bufs_) {
    b.done.clear();
    b.open.clear();
  }
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::int64_t base = 0;
  bool have = false;
  for (const Buffer& b : bufs_) {
    for (const Span& s : b.done) {
      if (!have || s.t0_ns < base) base = s.t0_ns;
      have = true;
    }
  }
  os << "{\"unit\": \"ns\", \"spans\": [";
  bool first = true;
  for (const Buffer& b : bufs_) {
    for (const Span& s : b.done) {
      os << (first ? "\n" : ",\n") << "{\"id\": " << s.id
         << ", \"parent\": " << s.parent << ", \"name\": \"" << names_[s.name]
         << "\", \"thread\": " << s.thread << ", \"start\": "
         << s.t0_ns - base << ", \"dur\": " << s.t1_ns - s.t0_ns << "}";
      first = false;
    }
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace perfbench
