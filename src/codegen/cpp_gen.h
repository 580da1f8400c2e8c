// C++ code generation from compiled trigger programs — the paper's headline
// artifact: "recursively compiling view maintenance queries into simple C++
// functions for evaluating database updates".
//
// The emitted source is self-contained (depends only on
// dbtoaster_runtime.h) and exposes:
//   * typed event handlers  on_<REL>(..., sign), +1 insert / -1 delete
//   * batch dispatch        on_batch(const dbt::EventBatch&), one
//                           on_batch_<REL> columnar handler per relation
//   * view accessors        view_<name>() returning materialised rows
// so it can run standalone or be embedded in application logic (§2's two
// modes; ahead-of-time compilation stands in for the LLVM JIT).
#ifndef DBTOASTER_CODEGEN_CPP_GEN_H_
#define DBTOASTER_CODEGEN_CPP_GEN_H_

#include <string>

#include "src/common/status.h"
#include "src/compiler/program.h"

namespace dbtoaster::codegen {

struct GenOptions {
  std::string class_name = "Program";
  std::string name_space = "dbtoaster_gen";
  /// Include path of the support header in the emitted #include directive.
  std::string runtime_header = "dbtoaster_runtime.h";
};

/// Emit a complete C++ header implementing `program`.
Result<std::string> GenerateCpp(const compiler::Program& program,
                                const GenOptions& options = {});

}  // namespace dbtoaster::codegen

#endif  // DBTOASTER_CODEGEN_CPP_GEN_H_
