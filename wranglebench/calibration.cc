#include "calibration.h"

#include <algorithm>
#include <cstdio>
#include <memory_resource>
#include <string>
#include <unordered_map>

namespace wranglebench {
namespace {

constexpr int kStrings = 3000;
constexpr int kProbes = 40000;

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

}  // namespace

HostCalibration::HostCalibration()
    : arena_(4u << 20),
      table_(1u << 19),
      keys_(1u << 13),
      last_(Clock::now()) {}

// Two halves, like the wrangler's own work: short strings hashed into a
// node map and sorted, then integer sorting and random probes into a
// table larger than the per-core caches.
double HostCalibration::Kernel() {
  Clock::time_point t0 = Clock::now();
  uint64_t x = 12345;
  size_t sink = 0;
  {
    std::pmr::monotonic_buffer_resource pool(arena_.data(), arena_.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::vector<std::pmr::string> words(&pool);
    words.reserve(kStrings);
    std::pmr::unordered_map<std::pmr::string, int> index(&pool);
    index.reserve(kStrings);
    for (int i = 0; i < kStrings; ++i) {
      x = Lcg(x);
      char buf[32];
      int n = std::snprintf(buf, sizeof(buf), "k%llu",
                            static_cast<unsigned long long>(x >> 20));
      words.emplace_back(buf, static_cast<size_t>(n));
      index[words.back()] = i;
    }
    std::sort(words.begin(), words.end());
    sink += index.size() + words[kStrings / 2].size();
  }
  for (uint64_t& k : keys_) {
    x = Lcg(x);
    k = x >> 11;
  }
  std::sort(keys_.begin(), keys_.end());
  uint64_t mask = table_.size() - 1;
  uint64_t acc = keys_[7];
  for (int i = 0; i < kProbes; ++i) {
    x = Lcg(x);
    uint64_t& slot = table_[(x >> 20) & mask];
    acc += slot;
    slot = acc ^ static_cast<uint64_t>(i);
  }
  sink += static_cast<size_t>(acc);
  volatile size_t keep = sink;
  (void)keep;
  return std::chrono::duration<double, std::milli>(
             Clock::now() - t0)
      .count();
}

void HostCalibration::Sample() {
  auto at = Clock::now();
  samples_.push_back({at, Kernel()});
  last_ = Clock::now();
}

void HostCalibration::MaybeSample() {
  if (Clock::now() - last_ >= kInterval) Sample();
}

double HostCalibration::ScaleAt(Clock::time_point at) const {
  if (samples_.empty()) return 1.0;
  auto next = std::lower_bound(
      samples_.begin(), samples_.end(), at,
      [](const Point& p, Clock::time_point t) { return p.at < t; });
  size_t i = static_cast<size_t>(next - samples_.begin());
  size_t first = i > kNearest / 2 ? i - kNearest / 2 : 0;
  first = std::min(first, samples_.size() > kNearest
                              ? samples_.size() - kNearest
                              : size_t{0});
  return kReferenceMs / MedianMs(first, first + kNearest);
}

double HostCalibration::MedianMs(size_t first, size_t last) const {
  last = std::min(last, samples_.size());
  if (first >= last) return kReferenceMs;
  std::vector<double> v;
  for (size_t i = first; i < last; ++i) v.push_back(samples_[i].ms);
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace wranglebench
