#include "h264/motion_search.h"

#include <array>

#include "h264/kernels.h"

namespace rispp::h264 {
namespace {

/// The search itself: sad(fx, fy) costs the full-pel candidate (fx, fy),
/// satd(mv) the half-pel one.
template <typename Sad, typename Satd>
MotionSearchResult search(const MotionVector& prediction, const MotionSearchConfig& config,
                          const KernelHook& hook, const Sad& sad, const Satd& satd) {
  MotionSearchResult result;

  auto eval_sad = [&](int fx, int fy) {
    ++result.sad_evaluations;
    if (hook) hook(false);
    return sad(fx, fy);
  };

  // Start at the prediction (full-pel part) and at (0,0); keep the better.
  int best_x = prediction.x >> 1;
  int best_y = prediction.y >> 1;
  if (best_x > config.search_range) best_x = config.search_range;
  if (best_x < -config.search_range) best_x = -config.search_range;
  if (best_y > config.search_range) best_y = config.search_range;
  if (best_y < -config.search_range) best_y = -config.search_range;

  std::uint32_t best = eval_sad(best_x, best_y);
  if (best_x != 0 || best_y != 0) {
    const std::uint32_t zero = eval_sad(0, 0);
    if (zero < best) {
      best = zero;
      best_x = 0;
      best_y = 0;
    }
  }

  // Dense 7x7 full-pel scan around the seed (UMHexagonS-style windowed
  // pass), then diamond refinement.
  const int cx = best_x, cy = best_y;
  for (int dy = -3; dy <= 3; ++dy) {
    for (int dx = -3; dx <= 3; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int fx = cx + dx, fy = cy + dy;
      if (fx < -config.search_range || fx > config.search_range ||
          fy < -config.search_range || fy > config.search_range)
        continue;
      const std::uint32_t s = eval_sad(fx, fy);
      if (s < best) {
        best = s;
        best_x = fx;
        best_y = fy;
      }
    }
  }

  // Large diamond until the center wins, then small diamond once.
  static constexpr std::array<std::pair<int, int>, 8> kLarge{
      {{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}};
  static constexpr std::array<std::pair<int, int>, 4> kSmall{
      {{0, -1}, {1, 0}, {0, 1}, {-1, 0}}};

  bool moved = true;
  int rounds = 0;
  while (moved && best > config.early_exit && rounds < 2 * config.search_range) {
    moved = false;
    ++rounds;
    for (const auto& [dx, dy] : kLarge) {
      const int fx = best_x + dx, fy = best_y + dy;
      if (fx < -config.search_range || fx > config.search_range ||
          fy < -config.search_range || fy > config.search_range)
        continue;
      const std::uint32_t s = eval_sad(fx, fy);
      if (s < best) {
        best = s;
        best_x = fx;
        best_y = fy;
        moved = true;
        break;  // greedy: re-center immediately (keeps counts data-dependent)
      }
    }
  }
  for (const auto& [dx, dy] : kSmall) {
    const int fx = best_x + dx, fy = best_y + dy;
    if (fx < -config.search_range || fx > config.search_range ||
        fy < -config.search_range || fy > config.search_range)
      continue;
    const std::uint32_t s = eval_sad(fx, fy);
    if (s < best) {
      best = s;
      best_x = fx;
      best_y = fy;
    }
  }
  result.sad = best;

  // Half-pel refinement with SATD around the full-pel winner (8 neighbours +
  // center, the classic 9-point refinement).
  MotionVector best_mv{2 * best_x, 2 * best_y};
  auto eval_satd = [&](const MotionVector& mv) {
    ++result.satd_evaluations;
    if (hook) hook(true);
    return satd(mv);
  };
  std::uint32_t best_cost = eval_satd(best_mv);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const MotionVector mv{2 * best_x + dx, 2 * best_y + dy};
      const std::uint32_t c = eval_satd(mv);
      if (c < best_cost) {
        best_cost = c;
        best_mv = mv;
      }
    }
  }
  result.mv = best_mv;
  result.satd = best_cost;
  return result;
}

}  // namespace

MotionSearchResult motion_search_16x16(const Plane& cur, const Plane& ref, int mb_px_x,
                                       int mb_px_y, const MotionVector& prediction,
                                       const MotionSearchConfig& config,
                                       const KernelHook& hook) {
  return search(
      prediction, config, hook,
      [&](int fx, int fy) {
        return sad_16x16_scalar(cur, mb_px_x, mb_px_y, ref, mb_px_x + fx, mb_px_y + fy);
      },
      [&](const MotionVector& mv) {
        Pixel pred[16 * 16];
        motion_compensate_16x16_scalar(ref, mb_px_x, mb_px_y, mv, pred);
        return satd_16x16_pred_scalar(cur, mb_px_x, mb_px_y, pred);
      });
}

MotionSearchResult motion_search_16x16(const Plane& cur, const RefPlanes& ref, int mb_px_x,
                                       int mb_px_y, const MotionVector& prediction,
                                       const MotionSearchConfig& config,
                                       const KernelHook& hook) {
  const Pixel* mb = cur.row(mb_px_y) + mb_px_x;
  const int stride = cur.width();
  const PaddedPlane& full = ref.full();
  return search(
      prediction, config, hook,
      [&](int fx, int fy) {
        return sad_16x16(mb, stride, full.block16(mb_px_x + fx, mb_px_y + fy), full.stride());
      },
      [&](const MotionVector& mv) {
        const BlockRef pred = ref.prediction(mb_px_x, mb_px_y, mv);
        return satd_16x16(mb, stride, pred.data, pred.stride);
      });
}

}  // namespace rispp::h264
