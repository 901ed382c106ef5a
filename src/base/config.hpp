// Environment reads for the few process-level settings that stay
// environment-driven: the fault family (netsim::FaultConfig::from_env),
// tracing (MPICD_TRACE, MPICD_TRACE_FILE), the flight recorder
// (MPICD_FLIGHT_RECORDER) and the log level (MPICD_LOG). The wire model
// is not among them: netsim::WireParams takes its values in code only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mpicd {

// The value of `name` if set and non-empty, otherwise nullopt.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

// The parsed value of `name`, or `fallback` if it is unset, empty or
// malformed (trailing garbage, out of range; warned about once per name).
[[nodiscard]] double env_double_or(const char* name, double fallback);
[[nodiscard]] std::int64_t env_int_or(const char* name, std::int64_t fallback);

} // namespace mpicd
