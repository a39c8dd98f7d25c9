#include "runtime/sweep_service/registry.hpp"

#include <exception>

#include "algos/cost_kernels.hpp"

namespace parbounds::service {

namespace {

struct EngineEntry {
  const char* name;
  unsigned bit;
  CostModel model;
};

constexpr EngineEntry kEngines[] = {
    {"qsm", kQsm, CostModel::Qsm},
    {"sqsm", kSQsm, CostModel::SQsm},
    {"qsm-crfree", kQsmCrFree, CostModel::QsmCrFree},
    {"crcw-like", kCrcwLike, CostModel::CrcwLike},
    {"erew", kErew, CostModel::Erew},
    {"bsp", kBsp, CostModel::Qsm},
};

// The generators draw a 32-bit permutation of n, and parity_tree and
// lac_prefix take an `unsigned` fan-in.
constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr ParamDecl kN{"n", &Params::n};
constexpr ParamDecl kN32{"n", &Params::n, 0, kU32};
constexpr ParamDecl kG{"g", &Params::g};
constexpr ParamDecl kP{"p", &Params::p};
constexpr ParamDecl kL{"L", &Params::L};
constexpr ParamDecl kH{"h", &Params::h};
constexpr ParamDecl kOnes{"ones", &Params::ones};
constexpr ParamDecl kFanin32{"fanin", &Params::fanin, 0, kU32};
constexpr ParamDecl kFaninOr4{"fanin", &Params::fanin, 4, kU32};
constexpr ParamDecl kFaninOr0{"fanin", &Params::fanin, 0};

/// Fill `out` from the request's params: every name checked against the
/// entry, duplicates and narrowing values rejected, required ones present.
bool parse_params(const WorkloadInfo& w, const runtime::ServiceSpec& spec,
                  Params& out, std::string& err) {
  const std::size_t nreq = w.required.size();
  const std::size_t ndecl = nreq + w.optional.size();
  const auto decl = [&](std::size_t i) -> const ParamDecl& {
    return i < nreq ? w.required[i] : w.optional[i - nreq];
  };
  for (const ParamDecl& d : w.optional) out.*d.field = d.fallback;
  unsigned seen = 0;  // bit i: decl(i) was given
  for (const auto& [name, value] : spec.params) {
    std::size_t i = 0;
    while (i < ndecl && name != decl(i).name) ++i;
    if (i == ndecl) {
      err = "workload '" + w.name + "' has no param '" + name + "'";
      return false;
    }
    if ((seen >> i & 1u) != 0) {
      err = "duplicate param '" + name + "'";
      return false;
    }
    if (value > decl(i).max) {
      err = "workload '" + w.name + "' param '" + name + "' = " +
            std::to_string(value) + " exceeds " +
            std::to_string(decl(i).max) + ", the largest its kernel takes";
      return false;
    }
    seen |= 1u << i;
    out.*decl(i).field = value;
  }
  for (std::size_t i = 0; i < nreq; ++i) {
    if ((seen >> i & 1u) == 0) {
      err = "workload '" + w.name + "' requires param '" + decl(i).name + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string engine_names(unsigned set) {
  std::string out;
  for (const EngineEntry& e : kEngines) {
    if ((set & e.bit) == 0) continue;
    if (!out.empty()) out += '|';
    out += e.name;
  }
  return out;
}

const std::vector<WorkloadInfo>& workloads() {
  using namespace kernels;
  using M = CostModel;
  using A = Params;
  using S = std::uint64_t;
  static const std::vector<WorkloadInfo> kTable = {
      {"parity_tree", {kN, kG, kFanin32}, {}, kSharedMemory,
       [](M m, A a, S s) {
         return parity_tree_cost(m, a.n, a.g, static_cast<unsigned>(a.fanin),
                                 s);
       }},
      {"parity_circuit", {kN, kG}, {}, kSharedMemory,
       [](M m, A a, S s) { return parity_circuit_cost(m, a.n, a.g, s); }},
      {"or_fanin", {kN32, kG, kOnes}, {}, kSharedMemory,
       [](M m, A a, S s) { return or_fanin_cost(m, a.n, a.g, a.ones, s); }},
      {"or_rand_cr", {kN32, kG, kOnes}, {}, kQsmCrFree,
       [](M, A a, S s) { return or_rand_cr_cost(a.n, a.g, a.ones, s); }},
      {"lac_prefix", {kN32, kG, kH}, {kFaninOr4}, kSharedMemory,
       [](M m, A a, S s) {
         return lac_prefix_cost(m, a.n, a.g, a.h, s,
                                static_cast<unsigned>(a.fanin));
       }},
      {"lac_dart", {kN32, kG, kH}, {}, kSharedMemory,
       [](M m, A a, S s) { return lac_dart_cost(m, a.n, a.g, a.h, s); }},
      {"padded_sort", {kN, kG}, {}, kSharedMemory,
       [](M m, A a, S s) { return padded_sort_cost(m, a.n, a.g, s); }},
      {"broadcast", {kN, kG}, {kFaninOr0}, kSharedMemory,
       [](M m, A a, S) { return broadcast_cost(m, a.n, a.g, a.fanin); }},
      {"parity_bsp", {kN, kP, kG, kL}, {}, kBsp,
       [](M, A a, S s) { return parity_bsp_cost(a.n, a.p, a.g, a.L, s); }},
      {"or_bsp", {kN32, kP, kG, kL, kOnes}, {}, kBsp,
       [](M, A a, S s) {
         return or_bsp_cost(a.n, a.p, a.g, a.L, a.ones, s);
       }},
      {"lac_bsp", {kN32, kP, kG, kL, kH}, {kFaninOr0}, kBsp,
       [](M, A a, S s) {
         return lac_bsp_cost(a.n, a.p, a.g, a.L, a.h, s, a.fanin);
       }},
  };
  return kTable;
}

bool run_spec(const runtime::ServiceSpec& spec, std::uint64_t seed,
              double& cost, std::string& err) {
  const WorkloadInfo* w = nullptr;
  for (const WorkloadInfo& entry : workloads())
    if (entry.name == spec.workload) w = &entry;
  if (w == nullptr) {
    err = "unknown workload '" + spec.workload + "'";
    return false;
  }

  Params args;
  if (!parse_params(*w, spec, args, err)) return false;

  const EngineEntry* engine = nullptr;
  for (const EngineEntry& e : kEngines)
    if (spec.engine == e.name) engine = &e;
  const unsigned bit = engine == nullptr ? 0 : engine->bit;
  if (w->engines == kBsp && bit != kBsp) {
    err = "workload '" + w->name + "' requires engine 'bsp', got '" +
          spec.engine + "'";
    return false;
  }
  if (w->engines != kBsp && (bit & kSharedMemory) == 0) {
    err = "unknown engine '" + spec.engine + "' (expected " +
          engine_names(w->engines) + ")";
    return false;
  }
  if ((bit & w->engines) == 0) {
    err = "workload '" + w->name + "' requires engine '" +
          engine_names(w->engines) + "'";
    return false;
  }

  try {
    cost = w->kernel(engine->model, args, seed);
  } catch (const std::exception& e) {
    err = e.what();
    return false;
  }
  return true;
}

}  // namespace parbounds::service
