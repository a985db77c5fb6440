#include "obs/trace.h"

#include <cstdio>

#include "common/json.h"

namespace protean::obs {
namespace {

void append_string(std::string& out, std::string_view text) {
  out += '"';
  append_json_escaped(out, text);
  out += '"';
}

void append_args(std::string& out, Tracer::Args args) {
  out += ",\"args\":{";
  bool first = true;
  for (const Tracer::Arg& a : args) {
    if (!first) out += ',';
    first = false;
    append_string(out, a.key);
    out += ':';
    if (a.is_num) {
      out += format_double(a.num);
    } else {
      append_string(out, a.str);
    }
  }
  out += '}';
}

constexpr double kMicrosPerSecond = 1e6;

}  // namespace

const char* category_name(Category category) noexcept {
  switch (category) {
    case kSpans: return "spans";
    case kCounters: return "counters";
    case kSched: return "sched";
  }
  return "?";
}

Tracer::Tracer(sim::Simulator& simulator, unsigned categories)
    : sim_(simulator), categories_(categories & kAllCategories) {}

void Tracer::push_event(std::string_view ph, std::string_view name,
                        std::string_view cat, int pid, int tid, SimTime at,
                        Duration dur, const std::uint64_t* id, Args args) {
  std::string e = "{\"ph\":";
  append_string(e, ph);
  e += ",\"name\":";
  append_string(e, name);
  e += ",\"cat\":";
  append_string(e, cat);
  e += ",\"pid\":" + std::to_string(pid);
  e += ",\"tid\":" + std::to_string(tid);
  e += ",\"ts\":" + format_double(at * kMicrosPerSecond);
  if (ph == "X") e += ",\"dur\":" + format_double(dur * kMicrosPerSecond);
  if (id != nullptr) {
    char idbuf[32];
    std::snprintf(idbuf, sizeof(idbuf), ",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(*id));
    e += idbuf;
  }
  if (ph == "i") e += ",\"s\":\"p\"";  // process-scoped instant
  if (args.size() != 0 || ph == "M") append_args(e, args);
  e += '}';
  events_.push_back(std::move(e));
}

void Tracer::complete(Category category, std::string_view name, int pid,
                      int tid, SimTime start, SimTime end, Args args) {
  if (!wants(category)) return;
  push_event("X", name, category_name(category), pid, tid, start, end - start,
             nullptr, args);
}

void Tracer::async_begin(Category category, std::string_view name,
                         std::uint64_t id, int pid, SimTime at, Args args) {
  if (!wants(category)) return;
  push_event("b", name, category_name(category), pid, 0, at, 0.0, &id, args);
}

void Tracer::async_end(Category category, std::string_view name,
                       std::uint64_t id, int pid, SimTime at, Args args) {
  if (!wants(category)) return;
  push_event("e", name, category_name(category), pid, 0, at, 0.0, &id, args);
}

void Tracer::instant(Category category, std::string_view name, int pid,
                     Args args) {
  if (!wants(category)) return;
  push_event("i", name, category_name(category), pid, 0, sim_.now(), 0.0,
             nullptr, args);
}

void Tracer::counter(Category category, std::string_view name, int pid,
                     Args args) {
  if (!wants(category)) return;
  push_event("C", name, category_name(category), pid, 0, sim_.now(), 0.0,
             nullptr, args);
}

void Tracer::process_name(int pid, std::string_view name) {
  const std::string key = "p" + std::to_string(pid);
  if (!metadata_seen_.insert(key).second) return;
  push_event("M", "process_name", "__metadata", pid, 0, 0.0, 0.0, nullptr,
             {Arg("name", std::string(name))});
}

void Tracer::thread_name(int pid, int tid, std::string_view name) {
  const std::string key = "t" + std::to_string(pid) + "." + std::to_string(tid);
  if (!metadata_seen_.insert(key).second) return;
  // Metadata thread events carry the tid they label.
  std::string e = "{\"ph\":\"M\",\"name\":\"thread_name\","
                  "\"cat\":\"__metadata\",\"pid\":" + std::to_string(pid) +
                  ",\"tid\":" + std::to_string(tid) + ",\"ts\":0";
  e += ",\"args\":{\"name\":";
  append_string(e, name);
  e += "}}";
  events_.push_back(std::move(e));
}

void Tracer::set_summary(std::string_view key, double value) {
  for (auto& [k, v] : summary_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  summary_.emplace_back(std::string(key), value);
}

std::string Tracer::to_json() const {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out += events_[i];
    if (i + 1 < events_.size()) out += ',';
    out += '\n';
  }
  out += "],\n\"displayTimeUnit\":\"ms\",\n\"categories\":";
  std::string cats;
  for (Category c : {kSpans, kCounters, kSched}) {
    if ((categories_ & c) == 0) continue;
    if (!cats.empty()) cats += ',';
    cats += category_name(c);
  }
  append_string(out, cats);
  out += ",\n\"collector\":{";
  for (std::size_t i = 0; i < summary_.size(); ++i) {
    if (i != 0) out += ',';
    append_string(out, summary_[i].first);
    out += ':';
    out += format_double(summary_[i].second);
  }
  out += "}\n}";
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_json();
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace protean::obs
