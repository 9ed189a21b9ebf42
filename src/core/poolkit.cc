#include "core/poolkit.h"

#include "sim/filesystem.h"
#include "sim/machine.h"
#include "sim/process.h"

namespace ballista::core::poolkit {

// Value materialization runs outside the module window, where nothing
// announces, so the close below always reports kUp.

std::uint64_t insert_closed_handle(ValueCtx& c,
                                   std::shared_ptr<sim::KernelObject> obj) {
  const std::uint64_t h = c.insert_handle(std::move(obj));
  (void)c.proc.handles().close(h);
  return h;
}

std::uint64_t insert_fixture_file_handle(ValueCtx& c) {
  auto& fs = c.machine.fs();
  auto node = fs.resolve(fs.parse("/tmp/fixture.dat", c.proc.cwd()));
  return c.insert_handle(std::make_shared<sim::FileObject>(
      node, sim::FileObject::kAccessRead, false));
}

DataType& add_bad_pointer_values(DataType& t,
                                 std::initializer_list<BadPtrSpec> specs) {
  for (const BadPtrSpec& s : specs) {
    const std::uint64_t arg = s.arg;
    switch (s.kind) {
      case BadPtr::kNull:
        t.add(std::string(s.name), true, [](ValueCtx&) { return RawArg{0}; });
        break;
      case BadPtr::kDangling:
        t.add(std::string(s.name), true,
              [arg](ValueCtx& c) { return c.proc.mem().alloc_dangling(arg); });
        break;
      case BadPtr::kKernel:
        t.add(std::string(s.name), true,
              [arg](ValueCtx&) { return RawArg{arg}; });
        break;
      case BadPtr::kUnaligned:
        t.add(std::string(s.name), true,
              [arg](ValueCtx& c) { return c.proc.mem().alloc(arg) + 1; });
        break;
      case BadPtr::kGarbage:
        t.add(std::string(s.name), true,
              [arg](ValueCtx&) { return RawArg{arg}; });
        break;
    }
  }
  return t;
}

}  // namespace ballista::core::poolkit
