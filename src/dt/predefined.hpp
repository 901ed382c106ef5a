// Predefined (primitive) datatype kinds, mirroring MPI's basic types.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mpicd::dt {

enum class Predef : std::uint8_t {
    byte_,
    char_,
    int8,
    uint8,
    int16,
    uint16,
    int32,
    uint32,
    int64,
    uint64,
    float32,
    float64,
};

[[nodiscard]] constexpr std::size_t predef_size(Predef p) noexcept {
    switch (p) {
        case Predef::byte_:
        case Predef::char_:
        case Predef::int8:
        case Predef::uint8: return 1;
        case Predef::int16:
        case Predef::uint16: return 2;
        case Predef::int32:
        case Predef::uint32:
        case Predef::float32: return 4;
        case Predef::int64:
        case Predef::uint64:
        case Predef::float64: return 8;
    }
    return 0;
}

[[nodiscard]] constexpr const char* predef_name(Predef p) noexcept {
    switch (p) {
        case Predef::byte_: return "byte";
        case Predef::char_: return "char";
        case Predef::int8: return "int8";
        case Predef::uint8: return "uint8";
        case Predef::int16: return "int16";
        case Predef::uint16: return "uint16";
        case Predef::int32: return "int32";
        case Predef::uint32: return "uint32";
        case Predef::int64: return "int64";
        case Predef::uint64: return "uint64";
        case Predef::float32: return "float";
        case Predef::float64: return "double";
    }
    return "?";
}

} // namespace mpicd::dt
