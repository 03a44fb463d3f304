// Low-overhead runtime telemetry: a registry of named counters, gauges and
// fixed-bucket histograms (paper-level observability for the C_u/C_v
// trade-off: where the signalling and the cycles actually go).
//
// Hot-path design.  Every counter and histogram bucket is an array of
// kShards cache-line-padded atomic cells; a writer touches only
// cells[shard & kShardMask] with relaxed atomics, so concurrent simulator
// shards never contend and an increment costs about one uncontended atomic
// add.  Snapshots sum the cells with relaxed loads — writers are never
// blocked and never take a lock (registering a *new* metric takes the
// registry mutex, but handles are resolved once, off the hot path).
//
// Handles (Counter, Gauge, Histogram) are trivially copyable pointers into
// node-stable registry storage and stay valid for the registry's lifetime.
// A default-constructed handle is null; add()/observe() through it is a
// no-op, which lets instrumented code keep unconditional call sites and pay
// only a predicted branch when telemetry is detached.
//
// Naming scheme (see docs/observability.md): lowercase dotted paths,
// `<subsystem>.<object>.<property>`, e.g. `sim.page.polled_cells`,
// `costmodel.solve.miss`.  Durations are counters in nanoseconds with a
// `.ns` suffix.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pcn::obs {

/// Number of accumulation cells per metric (power of two).  Shard indices
/// from callers are folded with `& (kShards - 1)`, so any worker count
/// works; distinct shards below kShards never share a cell.
inline constexpr std::size_t kShards = 16;
inline constexpr std::size_t kShardMask = kShards - 1;

namespace detail {

/// One cache line per cell so concurrent shards never false-share.
struct alignas(64) Cell {
  std::atomic<std::int64_t> value{0};
};

struct CounterImpl {
  std::string name;
  Cell cells[kShards];
};

struct GaugeImpl {
  std::string name;
  std::atomic<double> value{0.0};
};

struct HistogramImpl {
  std::string name;
  /// Upper bounds, strictly increasing; observation x lands in the first
  /// bucket with x <= bounds[i] (Prometheus `le` semantics), or in the
  /// overflow bucket at index bounds.size().
  std::vector<double> bounds;
  /// bounds.size() + 1 bucket rows, each kShards cells.
  std::vector<Cell> cells;
  /// Sum of observed values, accumulated per shard without contention.
  struct alignas(64) SumCell {
    std::atomic<double> value{0.0};
  };
  std::vector<SumCell> sums;  // kShards entries
};

}  // namespace detail

/// Monotonically increasing integer metric.
class Counter {
 public:
  Counter() = default;

  void add(std::int64_t delta, std::size_t shard = 0) noexcept {
    if (impl_ == nullptr) return;
    impl_->cells[shard & kShardMask].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void increment(std::size_t shard = 0) noexcept { add(1, shard); }

  /// Sum over all shards (relaxed; concurrent writers allowed).
  std::int64_t value() const noexcept;

  bool valid() const noexcept { return impl_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterImpl* impl) : impl_(impl) {}
  detail::CounterImpl* impl_ = nullptr;
};

/// Last-write-wins floating-point level (occupancy, rates, config echoes).
class Gauge {
 public:
  Gauge() = default;

  void set(double value) noexcept {
    if (impl_ != nullptr) {
      impl_->value.store(value, std::memory_order_relaxed);
    }
  }
  double value() const noexcept {
    return impl_ == nullptr ? 0.0
                            : impl_->value.load(std::memory_order_relaxed);
  }
  bool valid() const noexcept { return impl_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeImpl* impl) : impl_(impl) {}
  detail::GaugeImpl* impl_ = nullptr;
};

/// Fixed-bucket histogram; bucket layout is chosen at registration and
/// never reallocated, so observation is lock-free like Counter::add.
class Histogram {
 public:
  Histogram() = default;

  void observe(double value, std::size_t shard = 0) noexcept;
  /// `count` observations of `value` at once (no-op for count <= 0): one
  /// bucket add and one sum add of value * count.  Bit-identical to
  /// `count` observe() calls whenever the partial sums are exact, e.g.
  /// for integer values with sums below 2^53.
  void observe_n(double value, std::int64_t count,
                 std::size_t shard = 0) noexcept;

  /// Total observations / sum of observed values across shards.
  std::int64_t count() const noexcept;
  double sum() const noexcept;

  bool valid() const noexcept { return impl_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramImpl* impl) : impl_(impl) {}
  detail::HistogramImpl* impl_ = nullptr;
};

// --- Snapshots ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;            ///< upper bounds (le)
  std::vector<std::int64_t> counts;      ///< bounds.size() + 1 entries
  std::int64_t count = 0;                ///< total observations
  double sum = 0.0;                      ///< sum of observed values

  double mean() const { return count == 0 ? 0.0 : sum / double(count); }
};

/// A point-in-time copy of every metric, sorted by name within each kind.
/// Taken with relaxed loads while writers keep writing: each individual
/// cell read is atomic, so totals are consistent up to increments that
/// land mid-snapshot (no torn values, no writer stalls).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* find_counter(std::string_view name) const;
  const GaugeSample* find_gauge(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;
  /// find_counter(name)->value, or 0 when absent.
  std::int64_t counter_value(std::string_view name) const;
  /// find_histogram(name)->mean(), or 0 when absent.
  double histogram_mean(std::string_view name) const;
};

// --- Registry ----------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create.  Names must be non-empty lowercase dotted paths over
  /// [a-z0-9_.]; a second registration of the same name returns a handle to
  /// the same metric (for histograms the bucket bounds must then match).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Registered metric count (all kinds), for tests and sanity checks.
  std::size_t size() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Exponential bucket upper bounds: start, start*factor, ... (`count`
/// entries) — the usual latency-histogram layout.
std::vector<double> exponential_buckets(double start, double factor,
                                        int count);
/// Linear bucket upper bounds: start, start+width, ... (`count` entries).
std::vector<double> linear_buckets(double start, double width, int count);

}  // namespace pcn::obs
