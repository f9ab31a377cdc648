#include "accounting.h"

#include <algorithm>
#include <cstring>

#include "driver/pipeline.h"

namespace fsbench {

namespace {

using fsopt::obs::SpanEvent;
using fsopt::obs::ThreadLog;

/// Slot of a worker span that names no layer of its own and has no
/// parent on its thread (a pool job body): it works for whatever layer
/// the benchmark thread is waiting in.
constexpr size_t kCaller = kLayers;

struct Class {
  size_t slot = kCaller;
  bool wrapper = false;  // a benchmark span, not a library one
  bool known = false;
};

size_t slot(Layer l) { return static_cast<size_t>(l); }

Class classify(const SpanEvent& s, const std::vector<std::string>& front) {
  const char* cat = s.category;
  auto is = [&](const char* c) { return std::strcmp(cat, c) == 0; };
  auto named = [&](Layer l, bool wrapper = false) {
    return Class{slot(l), wrapper, true};
  };
  if (is("bench")) {
    if (s.name == "front") return named(Layer::kFront, true);
    if (s.name == "back") return named(Layer::kBack, true);
    if (s.name == "record") return named(Layer::kRecord, true);
    if (s.name == "replay") return named(Layer::kReplay, true);
    if (s.name == "search") return named(Layer::kSearch, true);
    if (s.name == "baseline" || s.name == "sweep")
      return named(Layer::kKsr, true);
    return named(Layer::kUnaccounted, true);
  }
  if (is("pass")) {
    bool is_front =
        std::find(front.begin(), front.end(), s.name) != front.end();
    return named(is_front ? Layer::kFront : Layer::kBack);
  }
  if (is("record")) return named(Layer::kRecord);
  if (is("replay")) return named(Layer::kReplay);
  if (is("sweep")) return named(Layer::kKsr);
  return {};  // "pool" and anything new: inherits its parent
}

/// One stretch of a thread's timeline and the innermost span open in it.
struct Segment {
  u64 t0 = 0;
  u64 t1 = 0;
  size_t slot = kCaller;
  bool wrapper = false;
};

/// Flatten one thread's (properly nested) spans into innermost-span
/// segments; gaps between root spans produce no segment.
std::vector<Segment> flatten(const ThreadLog& log,
                             const std::vector<std::string>& front) {
  std::vector<const SpanEvent*> spans;
  spans.reserve(log.spans.size());
  for (const SpanEvent& s : log.spans) spans.push_back(&s);
  std::sort(spans.begin(), spans.end(),
            [](const SpanEvent* a, const SpanEvent* b) {
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->dur_ns > b->dur_ns;  // parent before child
            });
  struct Open {
    u64 end;
    size_t slot;
    bool wrapper;
  };
  std::vector<Open> stack;
  std::vector<Segment> out;
  u64 cursor = 0;
  auto emit = [&](u64 a, u64 b, const Open& o) {
    if (b > a) out.push_back({a, b, o.slot, o.wrapper});
  };
  auto close_until = [&](u64 t) {
    while (!stack.empty() && stack.back().end <= t) {
      emit(cursor, stack.back().end, stack.back());
      cursor = stack.back().end;
      stack.pop_back();
    }
  };
  for (const SpanEvent* s : spans) {
    const u64 start = s->start_ns;
    close_until(start);
    if (!stack.empty()) emit(cursor, start, stack.back());
    Class c = classify(*s, front);
    Open o{start + s->dur_ns, c.slot, c.wrapper};
    if (!c.known && !stack.empty()) {
      o.slot = stack.back().slot;
      o.wrapper = stack.back().wrapper;
    }
    if (!stack.empty()) o.end = std::min(o.end, stack.back().end);
    stack.push_back(o);
    cursor = start;
  }
  close_until(~u64{0});
  return out;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kFront: return "compile.front";
    case Layer::kBack: return "compile.back";
    case Layer::kRecord: return "record";
    case Layer::kReplay: return "replay";
    case Layer::kSearch: return "search.self";
    case Layer::kKsr: return "ksr";
    case Layer::kUnaccounted: return "unaccounted";
    case Layer::kCount: break;
  }
  return "?";
}

double LayerTimes::total() const {
  double t = 0.0;
  for (double s : seconds) t += s;
  return t;
}

bool in_windows(const std::vector<Window>& windows, u64 t) {
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](u64 v, const Window& w) { return v < w.t1; });
  return it != windows.end() && it->t0 <= t;
}

LayerTimes account(const fsopt::obs::TraceData& data, u32 main_tid,
                   const std::vector<Window>& windows) {
  const std::vector<std::string> front =
      fsopt::front_pipeline().pass_names();

  struct Event {
    u64 t;
    int delta;
    size_t slot;
  };
  std::vector<Segment> main;
  std::vector<Event> events;
  std::vector<u64> times;
  for (const ThreadLog& log : data.threads) {
    std::vector<Segment> segs = flatten(log, front);
    for (const Segment& s : segs) {
      times.push_back(s.t0);
      times.push_back(s.t1);
      if (log.tid != main_tid) {
        events.push_back({s.t0, +1, s.slot});
        events.push_back({s.t1, -1, s.slot});
      }
    }
    if (log.tid == main_tid) main = std::move(segs);
  }
  for (const Window& w : windows) {
    times.push_back(w.t0);
    times.push_back(w.t1);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  LayerTimes out;
  std::array<long, kLayers + 1> busy{};  // worker threads per slot
  size_t ei = 0, mi = 0, wi = 0;
  for (size_t k = 0; k + 1 < times.size(); ++k) {
    const u64 ta = times[k];
    const u64 tb = times[k + 1];
    for (; ei < events.size() && events[ei].t <= ta; ++ei)
      busy[events[ei].slot] += events[ei].delta;
    while (mi < main.size() && main[mi].t1 <= ta) ++mi;
    while (wi < windows.size() && windows[wi].t1 <= ta) ++wi;
    if (wi == windows.size() || windows[wi].t0 > ta) continue;

    const double dt = static_cast<double>(tb - ta) * 1e-9;
    const Segment* m =
        mi < main.size() && main[mi].t0 <= ta && main[mi].slot != kCaller
            ? &main[mi]
            : nullptr;
    if (m != nullptr && !m->wrapper) {
      out.seconds[m->slot] += dt;
      continue;
    }
    const size_t home = m != nullptr ? m->slot : slot(Layer::kUnaccounted);
    long n = 0;
    for (long b : busy) n += b;
    if (n <= 0) {
      out.seconds[home] += dt;
      continue;
    }
    for (size_t s = 0; s < kLayers; ++s)
      out.seconds[s] += dt * static_cast<double>(busy[s]) /
                        static_cast<double>(n);
    out.seconds[home] += dt * static_cast<double>(busy[kCaller]) /
                         static_cast<double>(n);
  }
  return out;
}

}  // namespace fsbench
