// Ballista data types and test value pools.
//
// Paper §2: "Parameter test values are distinct values for a parameter of a
// certain data type that are randomly drawn from pools of predefined tests,
// with a separate pool defined for each data type being tested.  These pools
// of values contain exceptional as well as non-exceptional cases..."
//
// A DataType may inherit its parent's pool (paper §3.1: HANDLE tests "largely
// created by inheriting tests from existing types").  A TestValue's factory
// materializes the value inside the test task — allocating simulated memory,
// creating files, opening handles — so that each test case starts from the
// documented constructor-built state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sim/process.h"

namespace ballista::core {

/// Everything a value constructor may need to set up system state.
struct ValueCtx {
  sim::Machine& machine;
  sim::SimProcess& proc;

  /// Inserts `obj` into the task's handle table.  Materialization runs
  /// outside the module window, where nothing announces, so no cut fires.
  std::uint64_t insert_handle(std::shared_ptr<sim::KernelObject> obj) const {
    return proc.handles().insert(std::move(obj)).value;
  }
};

/// All argument values travel as raw 64-bit payloads: addresses, handles,
/// integers, or bit-cast doubles (C math).
using RawArg = std::uint64_t;

using ValueFactory = std::function<RawArg(ValueCtx&)>;

struct TestValue {
  std::string name;
  /// True when the API contract clearly forbids the value (NULL where a
  /// pointer is required, a closed handle, ...).  Used by the silent-failure
  /// oracle; borderline-legal values stay non-exceptional.
  bool exceptional = false;
  ValueFactory make;
};

class DataType {
 public:
  explicit DataType(std::string name, const DataType* parent = nullptr)
      : name_(std::move(name)), parent_(parent) {}

  DataType(const DataType&) = delete;
  DataType& operator=(const DataType&) = delete;

  const std::string& name() const noexcept { return name_; }
  const DataType* parent() const noexcept { return parent_; }

  DataType& add(std::string value_name, bool exceptional, ValueFactory f) {
    own_.push_back({std::move(value_name), exceptional, std::move(f)});
    return *this;
  }

  /// Flattened pool: inherited values first, then this type's own.
  std::vector<const TestValue*> values() const {
    std::vector<const TestValue*> out;
    collect(out);
    return out;
  }

  std::size_t value_count() const noexcept {
    std::size_t n = own_.size();
    for (const DataType* p = parent_; p != nullptr; p = p->parent_)
      n += p->own_.size();
    return n;
  }

 private:
  void collect(std::vector<const TestValue*>& out) const {
    if (parent_ != nullptr) parent_->collect(out);
    for (const auto& v : own_) out.push_back(&v);
  }

  std::string name_;
  const DataType* parent_;
  std::vector<TestValue> own_;
};

}  // namespace ballista::core
