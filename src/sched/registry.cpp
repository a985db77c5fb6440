#include "sched/registry.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sched/baselines.h"

namespace protean::sched {

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kMoleculeBeta: return "Molecule (beta)";
    case Scheme::kInflessLlama: return "INFless/Llama";
    case Scheme::kNaiveSlicing: return "Naive Slicing";
    case Scheme::kMigOnly: return "MIG Only";
    case Scheme::kMpsMig: return "MPS+MIG";
    case Scheme::kSmartMpsMig: return "'Smart' MPS+MIG";
    case Scheme::kGpulet: return "GPUlet";
    case Scheme::kProtean: return "PROTEAN";
    case Scheme::kProteanNoReorder: return "PROTEAN (no reorder)";
    case Scheme::kProteanStatic: return "PROTEAN (static)";
    case Scheme::kProteanNoEta: return "PROTEAN (no eta)";
    case Scheme::kOracle: return "Oracle";
    case Scheme::kProteanSoft: return "PROTEAN (softmig)";
    case Scheme::kProteanPipe: return "PROTEAN-Pipe";
  }
  return "?";
}

const char* scheme_cli_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kMoleculeBeta: return "molecule";
    case Scheme::kInflessLlama: return "infless";
    case Scheme::kNaiveSlicing: return "naive";
    case Scheme::kMigOnly: return "mig-only";
    case Scheme::kMpsMig: return "mps-mig";
    case Scheme::kSmartMpsMig: return "smart";
    case Scheme::kGpulet: return "gpulet";
    case Scheme::kProtean: return "protean";
    case Scheme::kProteanNoReorder: return "protean-no-reorder";
    case Scheme::kProteanStatic: return "protean-static";
    case Scheme::kProteanNoEta: return "protean-no-eta";
    case Scheme::kOracle: return "oracle";
    case Scheme::kProteanSoft: return "protean-soft";
    case Scheme::kProteanPipe: return "protean-pipe";
  }
  return "?";
}

namespace {

std::string fold(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

std::optional<Scheme> parse_scheme(std::string_view text) {
  const std::string needle = fold(text);
  for (Scheme scheme : all_schemes()) {
    if (needle == fold(scheme_cli_name(scheme)) ||
        needle == fold(scheme_name(scheme))) {
      return scheme;
    }
  }
  return std::nullopt;
}

const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kMoleculeBeta,     Scheme::kInflessLlama,
      Scheme::kNaiveSlicing,     Scheme::kMigOnly,
      Scheme::kMpsMig,           Scheme::kSmartMpsMig,
      Scheme::kGpulet,           Scheme::kProtean,
      Scheme::kProteanNoReorder, Scheme::kProteanStatic,
      Scheme::kProteanNoEta,     Scheme::kOracle,
      Scheme::kProteanSoft,      Scheme::kProteanPipe,
  };
  return schemes;
}

std::unique_ptr<cluster::Scheduler> make_scheduler(Scheme scheme) {
  switch (scheme) {
    case Scheme::kMoleculeBeta:
      return std::make_unique<MoleculeBetaScheduler>();
    case Scheme::kInflessLlama:
      return std::make_unique<InflessLlamaScheduler>();
    case Scheme::kNaiveSlicing:
      return std::make_unique<NaiveSlicingScheduler>();
    case Scheme::kMigOnly:
      return std::make_unique<MigOnlyScheduler>();
    case Scheme::kMpsMig:
      return std::make_unique<MpsMigScheduler>();
    case Scheme::kSmartMpsMig:
      return std::make_unique<SmartMpsMigScheduler>();
    case Scheme::kGpulet:
      return std::make_unique<GpuletScheduler>();
    case Scheme::kProtean:
      return std::make_unique<core::ProteanScheduler>();
    case Scheme::kProteanNoReorder: {
      core::ProteanOptions options;
      options.reorder = false;
      return std::make_unique<core::ProteanScheduler>(options);
    }
    case Scheme::kProteanStatic: {
      core::ProteanOptions options;
      options.dynamic_reconfig = false;
      return std::make_unique<core::ProteanScheduler>(options);
    }
    case Scheme::kProteanNoEta: {
      core::ProteanOptions options;
      options.use_eta = false;
      return std::make_unique<core::ProteanScheduler>(options);
    }
    case Scheme::kOracle: {
      core::ProteanOptions options;
      options.oracle = true;
      return std::make_unique<core::ProteanScheduler>(options);
    }
    case Scheme::kProteanSoft: {
      core::ProteanOptions options;
      options.softmig = true;
      // Repartitioning is free on the soft substrate: no downtime to
      // hedge against, so Algorithm 2 acts on the first crossing tick.
      options.reconfig.wait_limit = 1;
      return std::make_unique<core::ProteanScheduler>(options);
    }
    case Scheme::kProteanPipe: {
      core::ProteanOptions options;
      options.pipeline = true;
      return std::make_unique<core::ProteanScheduler>(options);
    }
  }
  throw std::invalid_argument("unknown scheme");
}

std::vector<Scheme> paper_schemes() {
  return {Scheme::kMoleculeBeta, Scheme::kNaiveSlicing, Scheme::kInflessLlama,
          Scheme::kProtean};
}

}  // namespace protean::sched
