#include "h264/workload.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "base/check.h"
#include "base/parallel.h"
#include "isa/h264_si_library.h"

namespace rispp::h264 {

H264SiIds resolve_si_ids(const SpecialInstructionSet& set) {
  auto need = [&](const char* name) {
    const auto id = set.find(name);
    RISPP_CHECK_MSG(id.has_value(), "SI " << name << " missing from instruction set");
    return *id;
  };
  H264SiIds ids;
  ids.sad = need(h264sis::kSad);
  ids.satd = need(h264sis::kSatd);
  ids.dct = need(h264sis::kDct);
  ids.ht2x2 = need(h264sis::kHt2x2);
  ids.ht4x4 = need(h264sis::kHt4x4);
  ids.mc = need(h264sis::kMc);
  ids.ipred_hdc = need(h264sis::kIpredHdc);
  ids.ipred_vdc = need(h264sis::kIpredVdc);
  ids.lf_bs4 = need(h264sis::kLfBs4);
  return ids;
}

WorkloadResult generate_h264_workload(const SpecialInstructionSet& set,
                                      const WorkloadConfig& config) {
  const H264SiIds ids = resolve_si_ids(set);

  WorkloadResult result;
  WorkloadTrace& trace = result.trace;
  trace.hot_spots.resize(3);
  trace.hot_spots[kHotSpotMe] = {"ME", {ids.sad, ids.satd}, config.per_execution_overhead};
  trace.hot_spots[kHotSpotEe] = {"EE",
                                 {ids.dct, ids.ht2x2, ids.ht4x4, ids.mc, ids.ipred_hdc,
                                  ids.ipred_vdc},
                                 config.per_execution_overhead};
  trace.hot_spots[kHotSpotLf] = {"LF", {ids.lf_bs4}, config.per_execution_overhead};

  SyntheticVideo video(config.video);
  Encoder encoder(config.encoder, config.video.width, config.video.height, ids);
  std::unique_ptr<ThreadPool> own_pool;
  if (config.encode_threads > 0) {
    own_pool = std::make_unique<ThreadPool>(static_cast<unsigned>(config.encode_threads));
    encoder.set_thread_pool(own_pool.get());
  }

  double psnr_sum = 0.0;
  std::uint64_t total_bits = 0;
  for (int f = 0; f < config.frames; ++f) {
    const Frame input = video.next();
    FrameSiTrace frame_trace;
    const FrameResult fr = encoder.encode_frame(input, &frame_trace);
    psnr_sum += fr.psnr;
    total_bits += fr.bits;
    result.intra_mbs += fr.intra_mbs;
    result.inter_mbs += fr.inter_mbs;

    // Each frame's events are run-encoded as soon as the frame is done, so
    // no flat whole-trace execution array ever exists.
    if (!frame_trace.me.empty())
      trace.instances.emplace_back(kHotSpotMe, frame_trace.me, config.hot_spot_entry_overhead);
    trace.instances.emplace_back(kHotSpotEe, frame_trace.ee, config.hot_spot_entry_overhead);
    trace.instances.emplace_back(kHotSpotLf, frame_trace.lf, config.hot_spot_entry_overhead);
  }
  result.mean_psnr = config.frames > 0 ? psnr_sum / config.frames : 0.0;
  result.mean_bitrate_kbps =
      config.frames > 0
          ? static_cast<double>(total_bits) * 30.0 / config.frames / 1000.0
          : 0.0;
  return result;
}

std::vector<std::vector<std::uint64_t>> default_forecast_seeds(
    const SpecialInstructionSet& set) {
  const H264SiIds ids = resolve_si_ids(set);
  std::vector<std::vector<std::uint64_t>> seeds(3,
                                                std::vector<std::uint64_t>(set.si_count(), 0));
  // Rough offline profile of one CIF frame (396 MBs).
  seeds[kHotSpotMe][ids.sad] = 24'000;
  seeds[kHotSpotMe][ids.satd] = 3'600;
  seeds[kHotSpotEe][ids.mc] = 1'400;
  seeds[kHotSpotEe][ids.dct] = 2'000;
  seeds[kHotSpotEe][ids.ht2x2] = 400;
  seeds[kHotSpotEe][ids.ht4x4] = 40;
  seeds[kHotSpotEe][ids.ipred_hdc] = 400;
  seeds[kHotSpotEe][ids.ipred_vdc] = 400;
  seeds[kHotSpotLf][ids.lf_bs4] = 400;
  return seeds;
}

std::uint64_t workload_fingerprint(const SpecialInstructionSet& set,
                                   const WorkloadConfig& config) {
  std::uint64_t hash = fingerprint(set);
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.frames));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.video.width));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.video.height));
  hash = fingerprint_mix(hash, config.video.seed);
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.video.object_count));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.video.cut_period));
  hash = fingerprint_mix(hash,
                         static_cast<std::uint64_t>(config.video.noise_stddev * 1024.0));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.encoder.qp));
  hash = fingerprint_mix(hash,
                         static_cast<std::uint64_t>(config.encoder.search.search_range));
  hash = fingerprint_mix(hash, config.encoder.search.early_exit);
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.encoder.deblock.alpha));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.encoder.deblock.beta));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.encoder.intra_bias_num));
  hash = fingerprint_mix(
      hash, static_cast<std::uint64_t>(config.encoder.strong_edge_threshold));
  hash = fingerprint_mix(hash, config.per_execution_overhead);
  hash = fingerprint_mix(hash, config.hot_spot_entry_overhead);
  return hash;
}

std::filesystem::path trace_cache_path(const SpecialInstructionSet& set,
                                       const WorkloadConfig& config) {
  char key[32];
  std::snprintf(key, sizeof key, "%016" PRIx64, workload_fingerprint(set, config));
  return trace_cache_dir() /
         ("rispp_h264_trace_v" + std::to_string(kWorkloadTraceVersion) + "_" +
          std::to_string(config.frames) + "_" + key + ".rtrc");
}

WorkloadTrace load_or_generate_h264_trace(const SpecialInstructionSet& set,
                                          const WorkloadConfig& config, bool* from_cache) {
  return load_or_generate_trace(
      trace_cache_path(set, config), set.si_count(),
      [&] { return generate_h264_workload(set, config).trace; }, from_cache);
}

}  // namespace rispp::h264
