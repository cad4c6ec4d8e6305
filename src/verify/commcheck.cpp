#include "verify/commcheck.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cholesky/cholesky_common.hpp"
#include "lu/lu_common.hpp"
#include "models/cost_model.hpp"
#include "simnet/trace.hpp"
#include "support/assert.hpp"

namespace conflux::verify {

namespace {

/// RAII collector for the buffer-ownership debug hook: while alive, misuse
/// reports append here instead of throwing; the previous handler is
/// restored on destruction.
class MisuseCollector {
 public:
  MisuseCollector() {
    previous_ = simnet::set_buffer_misuse_handler(
        [this](const std::string& what) {
          const std::lock_guard<std::mutex> lock(mutex_);
          reports_.push_back(what);
        });
  }
  ~MisuseCollector() {
    (void)simnet::set_buffer_misuse_handler(std::move(previous_));
  }
  MisuseCollector(const MisuseCollector&) = delete;
  MisuseCollector& operator=(const MisuseCollector&) = delete;

  [[nodiscard]] std::vector<std::string> reports() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> reports_;
  simnet::BufferMisuseHandler previous_;
};

}  // namespace

factor::FactorResult Backend::run(const linalg::Matrix* a,
                                  const factor::FactorConfig& cfg) const {
  if (family == "LU") return lu::make_algorithm(name)->run(a, cfg);
  CONFLUX_EXPECTS_MSG(family == "Cholesky",
                      "unknown family '" << family << '\'');
  return cholesky::make_cholesky_algorithm(name)->run(a, cfg);
}

linalg::MatrixKind Backend::input_kind() const {
  return family == "LU" ? linalg::MatrixKind::DiagDominant
                        : linalg::MatrixKind::Spd;
}

double Backend::lower_bound_elements_per_rank(
    const models::Instance& inst) const {
  return family == "LU" ? models::lu_lower_bound_elements_per_rank(inst)
                        : models::cholesky_lower_bound_elements_per_rank(inst);
}

std::unique_ptr<models::CostModel> Backend::volume_model() const {
  // CALU's model stays out of standard_models(), which is Table 2's four.
  if (name == "CALU") return std::make_unique<models::CaluModel>();
  for (auto& m : family == "LU" ? models::standard_models()
                                : models::cholesky_models())
    if (m->name() == name) return std::move(m);
  CONFLUX_EXPECTS_MSG(false, "no volume model for '" << name << '\'');
  return nullptr;
}

std::vector<Backend> registered_backends() {
  return {{"LU", "LibSci"},           {"LU", "SLATE"},
          {"LU", "CANDMC", true},     {"LU", "COnfLUX", true},
          {"LU", "CALU", true},       {"Cholesky", "ScaLAPACK"},
          {"Cholesky", "COnfCHOX", true}};
}

std::vector<Backend> select_backends(const std::string& family,
                                     const std::vector<std::string>& names) {
  const std::vector<Backend> all = registered_backends();
  if (!family.empty() &&
      std::none_of(all.begin(), all.end(),
                   [&](const Backend& b) { return b.family == family; }))
    throw std::invalid_argument("unknown family '" + family + "'");
  std::vector<Backend> out;
  for (const Backend& b : all)
    if ((family.empty() || b.family == family) &&
        (names.empty() ||
         std::find(names.begin(), names.end(), b.name) != names.end()))
      out.push_back(b);
  for (const std::string& name : names)
    if (std::none_of(out.begin(), out.end(),
                     [&](const Backend& b) { return b.name == name; }))
      throw std::invalid_argument("no registered " + family +
                                  (family.empty() ? "" : " ") + "backend '" +
                                  name + "'");
  return out;
}

Backend find_backend(const std::string& name) {
  return select_backends("", {name}).front();
}

simnet::FabricSpec virtual_fabric(const models::Machine& machine) {
  simnet::FabricSpec fabric;
  fabric.mode = simnet::ExecMode::VirtualTime;
  fabric.link = {machine.alpha_s, machine.beta_s_per_byte,
                 machine.gamma_s_per_flop};
  return fabric;
}

std::string CheckResult::describe() const {
  std::ostringstream os;
  os << backend.family << '/' << backend.name << " n=" << config.n
     << " p=" << config.p;
  if (config.force_layers > 0) os << " c=" << config.force_layers;
  os << " grid=" << run.grid << " v=" << run.block << " (" << events
     << " events, " << run.total.messages_sent << " messages, "
     << run.total.bytes_sent << " B)";
  return os.str();
}

CheckResult check_schedule(const Backend& backend,
                           const factor::FactorConfig& config) {
  CheckResult out;
  out.backend = backend;
  out.config = config;

  simnet::TraceRecorder trace;
  MisuseCollector misuse;

  factor::FactorConfig cfg = config;
  cfg.mode = factor::Mode::DryRun;
  cfg.verify = false;
  cfg.trace = &trace;
  out.run = backend.run(nullptr, cfg);
  const double bound_elements_per_rank = backend.lower_bound_elements_per_rank(
      models::max_replication_instance(config.n, config.p));

  // The DAAP bound counts elements each rank must load into its memory; in
  // a distributed run every rank starts with its N^2/P share of the operand
  // already resident, and those loads cost no network traffic. Network
  // volume can therefore legitimately undershoot the raw bound by that
  // share (at small P the effect is first-order), so the floor the volume
  // pass enforces is bound minus residency.
  const double resident = static_cast<double>(config.n) * config.n / config.p;
  const double lower_bound_bytes =
      std::max(0.0, bound_elements_per_rank - resident) * config.p * 8.0;

  out.events = trace.size();
  const CommGraph graph = CommGraph::build(trace);
  VolumeExpectation expect;
  expect.total = out.run.total;
  expect.max_rank_bytes = out.run.max_rank_bytes;
  expect.lower_bound_bytes = lower_bound_bytes;
  out.diags = run_all_passes(graph, expect);

  for (const std::string& what : misuse.reports()) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.pass = "ownership";
    d.message = what;
    out.diags.push_back(std::move(d));
  }
  return out;
}

std::vector<CheckResult> sweep(const std::vector<Backend>& backends,
                               const std::vector<int>& p_list,
                               const std::vector<int>& n_list) {
  std::vector<CheckResult> results;
  for (const Backend& backend : backends) {
    const std::vector<int> layer_choices =
        backend.layered ? std::vector<int>{0, 1, 2} : std::vector<int>{0};
    for (int n : n_list)
      for (int p : p_list)
        for (int c : layer_choices) {
          if (c > p) continue;
          results.push_back(check_schedule(
              backend, {.n = n, .p = p, .force_layers = c}));
        }
  }
  return results;
}

}  // namespace conflux::verify
