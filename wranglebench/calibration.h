// Host-speed calibration. The benchmark's host is shared: within tens of
// seconds its speed moves by a third or more, and a run that lands in a
// fast stretch reads as much faster as any optimisation would. So every
// run also times a fixed kernel of the benchmark's own code between its
// ops, and reports each time scaled to a host on which that kernel takes
// kReferenceMs:
//
//   reported = measured * kReferenceMs / median(kernel times nearby)
//
// "Nearby" is the kNearest samples closest in time, so a run that spans
// a change of host speed scales each op by the speed it ran at. The
// kernel uses only memory it owns (no global heap), so nothing the
// program does changes its work. The raw figures stay on the summary
// line.
#ifndef WRANGLEBENCH_CALIBRATION_H_
#define WRANGLEBENCH_CALIBRATION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wranglebench {

class HostCalibration {
 public:
  using Clock = std::chrono::steady_clock;

  /// Kernel time on the reference host.
  static constexpr double kReferenceMs = 2.0;

  HostCalibration();
  HostCalibration(const HostCalibration&) = delete;
  HostCalibration& operator=(const HostCalibration&) = delete;

  /// Times one run of the kernel.
  void Sample();
  /// Samples when at least kInterval has passed since the last sample.
  void MaybeSample();

  /// Multiply a time measured at `at` by this: kReferenceMs over the
  /// median of the kNearest samples closest to `at` (1 before any
  /// sample).
  double ScaleAt(Clock::time_point at) const;
  /// Median kernel time over samples [first, last) (clamped to the
  /// samples taken); kReferenceMs when that range is empty.
  double MedianMs(size_t first = 0, size_t last = SIZE_MAX) const;
  size_t samples() const { return samples_.size(); }

 private:
  static constexpr std::chrono::milliseconds kInterval{50};
  static constexpr size_t kNearest = 5;

  struct Point {
    Clock::time_point at;
    double ms = 0;
  };

  double Kernel();

  std::vector<std::byte> arena_;
  std::vector<uint64_t> table_;
  std::vector<uint64_t> keys_;
  std::vector<Point> samples_;  ///< in time order
  Clock::time_point last_;
};

}  // namespace wranglebench

#endif  // WRANGLEBENCH_CALIBRATION_H_
