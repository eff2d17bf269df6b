#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

int64_t PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // Linux reports KiB
}

int64_t CurrentRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size_pages = 0, resident_pages = 0;
  const int n = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(f);
  if (n != 2) return -1;
  return static_cast<int64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

double TailPercentile(size_t n) {
  // Highest first; the tail beyond p holds n * (100 - p) / 100 samples.
  // Compared in thousandths so 99.9 stays exact.
  for (int p_milli : {99900, 99000, 95000, 90000, 75000, 50000}) {
    if (static_cast<uint64_t>(n) * static_cast<uint64_t>(100000 - p_milli) >=
        10u * 100000u) {
      return p_milli / 1000.0;
    }
  }
  return 0.0;
}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(),
                        WallSeconds(), 0.0});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end = WallSeconds();
  // Spans close in LIFO order; tolerate a caller closing an outer span
  // first by dropping everything above it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

int SpanRecorder::Add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::AddChild(const std::string& name, double start,
                            double seconds) {
  Add(Span{name, open_.empty() ? -1 : open_.back(), start,
           start + std::max(seconds, 0.0)});
}

double SpanRecorder::SelfSeconds(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent != id) continue;
    const double a = std::max(c.start, s.start);
    const double b = std::min(c.end, s.end);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double cur_a = 0.0, cur_b = 0.0;
  bool have = false;
  for (const auto& [a, b] : kids) {
    if (have && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (have) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    have = true;
  }
  if (have) covered += cur_b - cur_a;
  return (s.end - s.start) - covered;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName(
    size_t first) const {
  std::map<std::string, double> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += SelfSeconds(static_cast<int>(i));
  }
  return out;
}

void Json::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

Json& Json::BeginObject() {
  Separate();
  out_ += '{';
  return *this;
}

Json& Json::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::BeginArray() {
  Separate();
  out_ += '[';
  return *this;
}

Json& Json::EndArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Json& Json::Key(const std::string& key) {
  Str(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::Str(const std::string& value) {
  Separate();
  out_ += '"';
  for (const char ch : value) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += ch;
    }
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Json& Json::Num(double value) {
  Separate();
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
  } else {
    out_ += "null";
  }
  need_comma_ = true;
  return *this;
}

Json& Json::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}

Json& Json::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}

}  // namespace perfbench
