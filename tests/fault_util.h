// Test helpers for code that returns simulated faults as values: gtest
// printers for Fault/MaybeFault, the expected-fault constructor, and reads
// whose success the test asserts.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "sim/addrspace.h"

namespace ballista::sim {

inline void PrintTo(const Fault& f, std::ostream* os) {
  *os << describe_fault(f);
}

inline void PrintTo(const MaybeFault& f, std::ostream* os) {
  *os << (f ? describe_fault(*f) : std::string("no fault"));
}

}  // namespace ballista::sim

namespace ballista::testing {

/// The access violation an access at `a` takes.
inline sim::Fault av(sim::Addr a, bool is_write) {
  return {sim::FaultType::kAccessViolation, a, is_write};
}

/// The fault a read of a T at `a` takes (empty when it completes).
template <typename T>
sim::MaybeFault read_fault(const sim::AddressSpace& mem, sim::Addr a,
                           sim::Access m = sim::Access::kUser) {
  T v{};
  if constexpr (sizeof(T) == 1) return mem.read_u8(a, &v, m);
  if constexpr (sizeof(T) == 2) return mem.read_u16(a, &v, m);
  if constexpr (sizeof(T) == 4) return mem.read_u32(a, &v, m);
  if constexpr (sizeof(T) == 8) return mem.read_u64(a, &v, m);
}

/// A read the test expects to complete: a fault fails the test.
template <typename T>
T read_ok(const sim::AddressSpace& mem, sim::Addr a,
          sim::Access m = sim::Access::kUser) {
  T v{};
  sim::MaybeFault f;
  if constexpr (sizeof(T) == 1) f = mem.read_u8(a, &v, m);
  if constexpr (sizeof(T) == 2) f = mem.read_u16(a, &v, m);
  if constexpr (sizeof(T) == 4) f = mem.read_u32(a, &v, m);
  if constexpr (sizeof(T) == 8) f = mem.read_u64(a, &v, m);
  EXPECT_FALSE(f) << "unexpected fault reading 0x" << std::hex << a;
  return v;
}

inline std::uint8_t rd8(const sim::AddressSpace& mem, sim::Addr a,
                        sim::Access m = sim::Access::kUser) {
  return read_ok<std::uint8_t>(mem, a, m);
}
inline std::uint16_t rd16(const sim::AddressSpace& mem, sim::Addr a,
                          sim::Access m = sim::Access::kUser) {
  return read_ok<std::uint16_t>(mem, a, m);
}
inline std::uint32_t rd32(const sim::AddressSpace& mem, sim::Addr a,
                          sim::Access m = sim::Access::kUser) {
  return read_ok<std::uint32_t>(mem, a, m);
}
inline std::uint64_t rd64(const sim::AddressSpace& mem, sim::Addr a,
                          sim::Access m = sim::Access::kUser) {
  return read_ok<std::uint64_t>(mem, a, m);
}

inline std::string rdstr(const sim::AddressSpace& mem, sim::Addr a,
                         std::size_t max_len = 1 << 20,
                         sim::Access m = sim::Access::kUser) {
  std::string s;
  EXPECT_FALSE(mem.read_cstr(a, &s, max_len, m))
      << "unexpected fault reading 0x" << std::hex << a;
  return s;
}

inline std::u16string rdwstr(const sim::AddressSpace& mem, sim::Addr a,
                             std::size_t max_len = 1 << 20,
                             sim::Access m = sim::Access::kUser) {
  std::u16string s;
  EXPECT_FALSE(mem.read_wstr(a, &s, max_len, m))
      << "unexpected fault reading 0x" << std::hex << a;
  return s;
}

}  // namespace ballista::testing
