#include "rexspeed/store/store_key.hpp"

#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/serialize.hpp"

namespace rexspeed::store {

namespace {

void write_params(ByteWriter& out, const core::ModelParams& params) {
  out.f64(params.lambda_silent);
  out.f64(params.lambda_failstop);
  out.f64(params.checkpoint_s);
  out.f64(params.recovery_s);
  out.f64(params.verification_s);
  out.f64(params.kappa_mw);
  out.f64(params.idle_power_mw);
  out.f64(params.io_power_mw);
  out.u32(static_cast<std::uint32_t>(params.speeds.size()));
  for (const double speed : params.speeds) {
    out.f64(speed);
  }
}

/// The backend identity section shared by every key: mode name, version
/// tag, model parameters, and the segment configuration (a pinned count
/// and a search cap over the same limit solve differently, so both go
/// in). The pinned count lives only on the interleaved backend — every
/// other backend contributes 0.
void write_backend(ByteWriter& out, const core::SolverBackend& backend) {
  out.str(backend.name());
  out.str(backend.capabilities().version);
  write_params(out, backend.params());
  const auto* interleaved =
      dynamic_cast<const core::InterleavedBackend*>(&backend);
  out.u32(interleaved != nullptr ? interleaved->fixed_segments() : 0);
  out.u32(backend.capabilities().max_segments);
}

}  // namespace

std::string panel_key(const core::SolverBackend& backend,
                      const std::string& configuration,
                      sweep::SweepParameter axis,
                      const std::vector<double>& grid,
                      const sweep::SweepOptions& options, double recall) {
  ByteWriter out;
  out.str("rexspeed-panel-v1");
  write_backend(out, backend);
  out.str(configuration);
  out.u32(static_cast<std::uint32_t>(axis));
  out.f64(options.rho);
  out.boolean(options.min_rho_fallback);
  out.boolean(true);  // the retired warm-start-chain switch, always on
  out.f64(recall);
  out.u32(static_cast<std::uint32_t>(grid.size()));
  for (const double value : grid) {
    out.f64(value);
  }
  return to_hex(Sha256::of(out.bytes()));
}

std::string solve_key(const core::SolverBackend& backend, double rho,
                      core::SpeedPolicy policy, bool min_rho_fallback,
                      double recall) {
  ByteWriter out;
  out.str("rexspeed-solve-v1");
  write_backend(out, backend);
  out.f64(rho);
  out.u8(policy == core::SpeedPolicy::kTwoSpeed ? 0 : 1);
  out.boolean(min_rho_fallback);
  out.f64(recall);
  return to_hex(Sha256::of(out.bytes()));
}

std::string cost_key(const core::SolverBackend& backend,
                     sweep::SweepParameter axis) {
  ByteWriter out;
  out.str("rexspeed-cost-v1");
  write_backend(out, backend);
  out.u32(static_cast<std::uint32_t>(axis));
  return to_hex(fnv1a64(out.bytes()));
}

}  // namespace rexspeed::store
