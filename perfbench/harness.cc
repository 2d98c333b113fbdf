#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace rasql::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

std::vector<double> WindowRates(const std::vector<double>& event_s,
                                double seconds, int windows) {
  std::vector<double> rates(static_cast<size_t>(std::max(windows, 0)), 0);
  if (rates.empty() || seconds <= 0) return rates;
  const double width = seconds / windows;
  for (double t : event_s) {
    if (t < 0 || t >= seconds) continue;
    const size_t w = std::min(rates.size() - 1, static_cast<size_t>(t / width));
    rates[w] += 1;
  }
  for (double& rate : rates) rate /= width;
  return rates;
}

Percentile PercentileOf(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.percentile = p;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  // The epsilon keeps 0.99 * 1000 (not exact in binary) at rank 990.
  const double exact = p / 100.0 * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

Percentile HighestSupported(const std::vector<double>& sorted,
                            const std::vector<double>& ladder) {
  Percentile best = PercentileOf(sorted, ladder.front());
  for (double p : ladder) {
    Percentile candidate = PercentileOf(sorted, p);
    if (candidate.supported) best = candidate;
  }
  return best;
}

void Tally::Record(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      ++ok_;
      break;
    case Outcome::kError:
      ++errors_;
      break;
    case Outcome::kWrong:
      ++wrong_;
      break;
    case Outcome::kTruncated:
      ++truncated_;
      break;
  }
}

void Tally::Merge(const Tally& other) {
  ok_ += other.ok_;
  errors_ += other.errors_;
  wrong_ += other.wrong_;
  truncated_ += other.truncated_;
}

double Tally::FailedFrac() const {
  if (attempted() == 0) return 0;
  return static_cast<double>(failed()) / static_cast<double>(attempted());
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[span.parent];
    const double begin = std::max(span.start, parent.start);
    const double end = std::min(span.end, parent.end);
    if (end > begin) children[span.parent].emplace_back(begin, end);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_begin = 0;
    double run_end = -1;
    bool open = false;
    for (const auto& [begin, end] : kids) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start = Now();
  span.end = span.start;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimes(all);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %lld, \"request\": %llu, \"self\": %.9f}\n",
                 s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), self[i]);
  }
  return std::fclose(file) == 0;
}

}  // namespace rasql::perfbench
