#include "spans.hpp"

#include <fstream>

#include "json.hpp"

namespace mcsdbench {

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

void SpanLog::record(Span span) {
  std::lock_guard lock{mutex_};
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock{mutex_};
  return spans_;
}

bool SpanLog::write_chrome_trace(const std::filesystem::path& path,
                                 const std::string& metadata_json) const {
  std::ofstream out{path};
  out << "{\"displayTimeUnit\": \"ms\", \"mcsdbench\": " << metadata_json
      << ",\n\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans()) {
    JsonObject args;
    args.add_string("id", s.id);
    if (!s.cache.empty()) args.add_string("cache", s.cache);
    JsonObject e;
    e.add_string("name", s.name);
    e.add_string("cat", s.name.substr(0, s.name.find(':')));
    e.add_string("ph", "X");
    e.add_number("ts", static_cast<double>(s.start_ns) / 1e3);
    e.add_number("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e.add_number("pid", 1);
    e.add_number("tid", s.tid);
    e.add_raw("args", args.str());
    out << (first ? "" : ",\n") << e.str();
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

mcsd::Result<mcsd::KeyValueMap> TracedModule::invoke(
    const mcsd::KeyValueMap& params) {
  if (!log_.enabled()) return inner_->invoke(params);
  Span span;
  span.start_ns = log_.now_ns();
  auto result = inner_->invoke(params);
  span.end_ns = log_.now_ns();
  span.name = "module:" + std::string{inner_->name()};
  span.id = params.serialize();
  span.tid = this_thread_tid();
  log_.record(std::move(span));
  return result;
}

}  // namespace mcsdbench
