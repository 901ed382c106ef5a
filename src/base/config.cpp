#include "base/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <set>

#include "base/log.hpp"

namespace mpicd {

namespace {

// A malformed value must not silently alter behaviour: warn once per
// variable (not per read — hot paths may re-read) and let the caller fall
// back to its default.
void warn_malformed(const char* name, const std::string& value,
                    const char* why) {
    static std::mutex mu;
    static std::set<std::string>* warned = new std::set<std::string>();
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (!warned->insert(name).second) return;
    }
    MPICD_LOG_WARN("config: ignoring " << name << "=\"" << value << "\" ("
                                       << why << "); using the default");
}

// After strtod/strtoll, the rest of the string may only be whitespace;
// trailing garbage ("32k", "1.5x") means the value was not what the user
// thinks it was.
[[nodiscard]] bool only_trailing_space(const char* end) {
    while (*end != '\0') {
        if (!std::isspace(static_cast<unsigned char>(*end))) return false;
        ++end;
    }
    return true;
}

} // namespace

std::optional<std::string> env_string(const char* name) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return std::nullopt;
    return std::string(v);
}

double env_double_or(const char* name, double fallback) {
    const auto s = env_string(name);
    if (!s) return fallback;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s->c_str(), &end);
    if (end == s->c_str() || !only_trailing_space(end)) {
        warn_malformed(name, *s, "not a number");
        return fallback;
    }
    if (errno == ERANGE) {
        warn_malformed(name, *s, "out of range");
        return fallback;
    }
    return v;
}

std::int64_t env_int_or(const char* name, std::int64_t fallback) {
    const auto s = env_string(name);
    if (!s) return fallback;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s->c_str(), &end, 10);
    if (end == s->c_str() || !only_trailing_space(end)) {
        warn_malformed(name, *s, "not an integer");
        return fallback;
    }
    if (errno == ERANGE) {
        warn_malformed(name, *s, "out of range");
        return fallback;
    }
    return static_cast<std::int64_t>(v);
}

} // namespace mpicd
