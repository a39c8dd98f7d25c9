#pragma once
// Workload registry: one table, one entry per workload, giving its name,
// its integer params (required, and optional with the kernel's default),
// the engines it accepts and the kernels::*_cost call it dispatches to.
// Name and param validation, --list-workloads and dispatch all read it,
// and so does the bench harness: a spec-declared cell's local body is
// run_spec, so it cannot disagree with its spec.
//
// Validation is strict — unknown workload, unknown or duplicate param,
// missing required param, a value the kernel would narrow, or a
// workload/engine mismatch are all typed errors. Strictness is part of
// cache soundness: a request the registry would quietly "fix up" would
// be cached under a key that doesn't describe what actually ran.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "runtime/sweep.hpp"

namespace parbounds::service {

/// The engines a request can name ("qsm", "sqsm", "qsm-crfree",
/// "crcw-like", "erew", "bsp"), one bit each.
enum EngineBit : unsigned {
  kQsm = 1, kSQsm = 2, kQsmCrFree = 4, kCrcwLike = 8, kErew = 16, kBsp = 32,
  kSharedMemory = kQsm | kSQsm | kQsmCrFree | kCrcwLike | kErew,
};

/// The engines in `set`, '|'-joined in EngineBit order ("qsm|sqsm|...").
std::string engine_names(unsigned set);

/// A request's integer params; one the workload does not declare is 0.
struct Params {
  std::uint64_t n = 0, g = 0, p = 0, L = 0, h = 0, ones = 0, fanin = 0;
};

/// One declared param: the Params field it fills, the value it takes
/// when optional and absent, and the largest value its kernel takes
/// without narrowing.
struct ParamDecl {
  const char* name;
  std::uint64_t Params::*field;
  std::uint64_t fallback = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

struct WorkloadInfo {
  std::string name;
  std::vector<ParamDecl> required;
  std::vector<ParamDecl> optional;
  unsigned engines;  ///< set of EngineBit
  /// The BSP kernels ignore the cost model.
  double (*kernel)(CostModel model, Params args, std::uint64_t seed);
};

/// The table, in a fixed documentation order.
const std::vector<WorkloadInfo>& workloads();

/// Execute `spec` with the given derived seed. Returns true and fills
/// `cost`, or returns false and fills `err` with the validation error or
/// the message of what the kernel threw (g = 0, ones > n, ...). Never
/// throws on bad input — bad input is the common case for a
/// network-facing service.
bool run_spec(const runtime::ServiceSpec& spec, std::uint64_t seed,
              double& cost, std::string& err);

}  // namespace parbounds::service
