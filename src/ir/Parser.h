//===- ir/Parser.h - Textual IR parser --------------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the LLVM-like textual IR (the format the
/// printer emits; see README for the grammar). Forward references to blocks
/// and to SSA values defined in later blocks are supported.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_IR_PARSER_H
#define ALIVE2RE_IR_PARSER_H

#include "ir/Function.h"
#include "support/Diag.h"

#include <memory>
#include <string_view>

namespace alive::ir {

/// Parses a whole module. \returns null and fills \p Err on failure.
/// \p Source (e.g. a file path) labels the parse span.
std::unique_ptr<Module> parseModule(const std::string &Text, Diag &Err,
                                    std::string_view Source = {});

/// Convenience: parses a module and aborts on failure (for tests/corpora
/// whose inputs are known-good).
std::unique_ptr<Module> parseModuleOrDie(const std::string &Text);

} // namespace alive::ir

#endif // ALIVE2RE_IR_PARSER_H
