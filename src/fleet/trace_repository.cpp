#include "fleet/trace_repository.h"

#include "base/metrics.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"

namespace rispp::fleet {

const TraceEntry& TraceRepository::get(const SessionSpec& spec) {
  static MetricCounter& hit_metric = metric_counter("fleet.trace_cache.hits");
  static MetricCounter& miss_metric = metric_counter("fleet.trace_cache.misses");

  const Key key{static_cast<int>(spec.content), spec.frames, spec.width, spec.height};
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    hit_metric.add();
    return *it->second;
  }
  ++misses_;
  miss_metric.add();

  // The SI set and forecast seeds are cheap to rebuild in-process; only the
  // recorded trace (the encoder / compressor run) is worth persisting, and
  // each family's load_or_generate shares its cache files with the bench
  // harness and the tools, so one warm cache serves all of them.
  static MetricCounter& disk_hit_metric = metric_counter("fleet.trace_cache.disk_hits");
  std::unique_ptr<TraceEntry> entry;
  bool from_disk = false;
  if (spec.content == Content::kH264) {
    entry = std::make_unique<TraceEntry>(h264sis::build_h264_si_set());
    h264::WorkloadConfig config;
    config.frames = spec.frames;
    if (spec.width > 0) config.video.width = spec.width;
    if (spec.height > 0) config.video.height = spec.height;
    entry->trace = h264::load_or_generate_h264_trace(entry->set, config, &from_disk);
    entry->seeds = h264::default_forecast_seeds(entry->set);
  } else {
    entry = std::make_unique<TraceEntry>(jpegsis::build_jpeg_si_set());
    jpeg::JpegWorkloadConfig config;
    config.images = spec.frames;
    if (spec.width > 0) config.width = spec.width;
    if (spec.height > 0) config.height = spec.height;
    entry->trace = jpeg::load_or_generate_jpeg_trace(entry->set, config, &from_disk);
    entry->seeds = jpeg::jpeg_forecast_seeds(entry->set);
  }
  if (from_disk) {
    ++disk_hits_;
    disk_hit_metric.add();
  }
  const TraceEntry& ref = *entry;
  entries_.emplace(key, std::move(entry));
  return ref;
}

std::uint64_t TraceRepository::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t TraceRepository::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t TraceRepository::disk_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_hits_;
}

std::size_t TraceRepository::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

TraceRepository& TraceRepository::global() {
  static TraceRepository* repo = new TraceRepository();
  return *repo;
}

}  // namespace rispp::fleet
