// Text and binary serialization for structures.
//
// Text format (one item per line; '%' starts a comment):
//   pred(arg1, arg2).     — a ground fact; elements are interned on sight
//   element(name).        — declares an isolated element (no facts needed)
// The signature must be supplied by the caller; facts referencing unknown
// predicates are parse errors.
//
// The binary form is self-contained (signature, element names, relations) and
// preserves element/predicate ids exactly; it is the leaf encoding of the
// engine's session files (docs/SESSION_FORMAT.md).
#ifndef TREEDL_STRUCTURE_STRUCTURE_IO_HPP_
#define TREEDL_STRUCTURE_STRUCTURE_IO_HPP_

#include <string>

#include "common/binary_io.hpp"
#include "common/status.hpp"
#include "structure/structure.hpp"

namespace treedl {

/// Parses `text` into a structure over `signature`.
/// perfbench/wrap.cpp times this function by wrapping its mangled name at
/// link time: its signature, out-of-line definition and translation unit
/// (structure/structure_io.cpp) are load-bearing.
StatusOr<Structure> ParseStructure(const Signature& signature,
                                   const std::string& text);

/// Renders all facts (and isolated elements) in the parse format above.
std::string FormatStructure(const Structure& structure);

/// Appends the binary encoding of `structure` (signature + domain +
/// relations, ids preserved) to `writer`.
void SerializeStructure(const Structure& structure, BinaryWriter* writer);

/// Inverse of SerializeStructure. Every length and id is bounds-checked; a
/// corrupted input yields an error Status, never a crash.
StatusOr<Structure> DeserializeStructure(BinaryReader* reader);

}  // namespace treedl

#endif  // TREEDL_STRUCTURE_STRUCTURE_IO_HPP_
