#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace protean::trace {

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kConstant: return "constant";
    case TraceKind::kWiki: return "wiki";
    case TraceKind::kTwitter: return "twitter";
    case TraceKind::kTable: return "table";
  }
  return "?";
}

RateTrace::RateTrace(const TraceConfig& config) : config_(config) {
  if (config_.kind == TraceKind::kTable) {
    PROTEAN_CHECK_MSG(!config_.table.empty(), "kTable needs a rate table");
    config_.horizon = static_cast<Duration>(config_.table.size());
  }
  PROTEAN_CHECK_MSG(config_.horizon > 0.0, "horizon must be positive");
  // Synthetic kinds need a target rate; kTable may keep its raw rates
  // (target_rps <= 0 means "as loaded").
  PROTEAN_CHECK_MSG(config_.target_rps > 0.0 ||
                        config_.kind == TraceKind::kTable,
                    "rate must be positive");
  Rng rng(config_.seed);
  build(rng);
}

void RateTrace::build(Rng& rng) {
  const auto n = static_cast<std::size_t>(std::ceil(config_.horizon));
  rates_.assign(std::max<std::size_t>(n, 1), 0.0);

  switch (config_.kind) {
    case TraceKind::kConstant: {
      std::fill(rates_.begin(), rates_.end(), 1.0);
      break;
    }
    case TraceKind::kTable: {
      rates_ = config_.table;
      break;
    }
    case TraceKind::kWiki: {
      // Smooth sinusoid (the compressed "day") plus mild multiplicative
      // noise. Amplitude chosen so peak:mean lands near the paper's
      // 316:303 ≈ 1.043.
      const double amplitude = 0.035;
      for (std::size_t i = 0; i < rates_.size(); ++i) {
        const double t = static_cast<double>(i);
        const double phase = 2.0 * M_PI * t / kDiurnalPeriod;
        const double noise = 1.0 + 0.004 * rng.normal(0.0, 1.0);
        rates_[i] = (1.0 + amplitude * std::sin(phase)) * std::max(0.2, noise);
      }
      break;
    }
    case TraceKind::kTwitter: {
      // Erratic: lognormal-ish jitter with occasional sharp spikes so the
      // peak:mean ratio lands near the paper's 4561:2969 ≈ 1.54.
      double level = 1.0;
      for (std::size_t i = 0; i < rates_.size(); ++i) {
        // AR(1) baseline wander.
        level = 0.85 * level + 0.15 * (1.0 + 0.25 * rng.normal(0.0, 1.0));
        level = std::clamp(level, 0.4, 1.35);
        double r = level;
        if (rng.bernoulli(0.06)) {
          r *= rng.uniform(1.35, 1.65);  // surge second
        }
        rates_[i] = r;
      }
      break;
    }
  }

  // Normalize to the requested mean (or peak for scale_to_peak).
  if (config_.target_rps > 0.0) {
    const double sum = std::accumulate(rates_.begin(), rates_.end(), 0.0);
    const double mean = sum / static_cast<double>(rates_.size());
    const double peak = *std::max_element(rates_.begin(), rates_.end());
    PROTEAN_CHECK_MSG(peak > 0.0, "cannot rescale an all-zero trace");
    const double scale = config_.scale_to_peak ? config_.target_rps / peak
                                               : config_.target_rps / mean;
    for (double& r : rates_) r *= scale;
  }

  const double total = std::accumulate(rates_.begin(), rates_.end(), 0.0);
  mean_ = total / static_cast<double>(rates_.size());
  peak_ = *std::max_element(rates_.begin(), rates_.end());
}

double RateTrace::rate_at(SimTime t) const noexcept {
  if (t < 0.0) return rates_.front();
  auto idx = static_cast<std::size_t>(t);
  if (idx >= rates_.size()) idx = rates_.size() - 1;
  return rates_[idx];
}

}  // namespace protean::trace
