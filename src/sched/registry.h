// Scheme registry: names and factories for every evaluated policy, so the
// harness and benches can enumerate them the way the paper's figures do.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/scheduler.h"
#include "core/protean.h"

namespace protean::sched {

enum class Scheme {
  kMoleculeBeta,   ///< "Molecule (beta)" / "No MPS or MIG"
  kInflessLlama,   ///< "INFless/Llama" / "MPS Only"
  kNaiveSlicing,
  kMigOnly,
  kMpsMig,
  kSmartMpsMig,
  kGpulet,
  kProtean,
  kProteanNoReorder,  ///< ablation: reordering disabled
  kProteanStatic,     ///< ablation: dynamic reconfiguration disabled
  kProteanNoEta,      ///< ablation: Eq. 2 placement replaced by largest-first
  kOracle,
  kProteanSoft,       ///< PROTEAN on the software slicing substrate
  kProteanPipe,       ///< PROTEAN with pipeline-conscious DAG placement
};

const char* scheme_name(Scheme scheme) noexcept;

/// Canonical CLI identifier ("protean", "mig-only", ...). Every scheme has
/// exactly one; `parse_scheme` accepts all of them, so the name list printed
/// by tools can never drift from the enum.
const char* scheme_cli_name(Scheme scheme) noexcept;

/// Parses either a CLI identifier or a display name (`scheme_name` output),
/// case-insensitively. Round-trips: parse_scheme(scheme_name(s)) == s and
/// parse_scheme(scheme_cli_name(s)) == s for every scheme.
std::optional<Scheme> parse_scheme(std::string_view text);

std::unique_ptr<cluster::Scheduler> make_scheduler(Scheme scheme);

/// Every scheme, in enum declaration order.
const std::vector<Scheme>& all_schemes();

/// The four schemes of the paper's primary evaluation (Figs. 5–15 order).
std::vector<Scheme> paper_schemes();

}  // namespace protean::sched
