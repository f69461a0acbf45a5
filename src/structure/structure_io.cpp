#include "structure/structure_io.hpp"

#include <string_view>
#include <vector>

#include "common/string_util.hpp"

namespace treedl {

namespace {

// Parses "pred(a, b)" into views of its name and arguments (into `text`), and
// of whatever follows the closing parenthesis. Returns ParseError on malformed
// input.
Status ParseAtomText(std::string_view text, std::string_view* name,
                     std::vector<std::string_view>* args,
                     std::string_view* trailing) {
  args->clear();
  *trailing = {};
  size_t open = text.find('(');
  if (open == std::string_view::npos) {
    // Zero-arity atom: bare identifier.
    std::string_view ident = Trim(text);
    if (!IsIdentifier(ident)) {
      return Status::ParseError("malformed atom: " + std::string(text));
    }
    *name = ident;
    return Status::OK();
  }
  size_t close = text.rfind(')');
  if (close == std::string_view::npos || close < open) {
    return Status::ParseError("unbalanced parentheses in atom: " +
                              std::string(text));
  }
  std::string_view ident = Trim(text.substr(0, open));
  if (!IsIdentifier(ident)) {
    return Status::ParseError("malformed predicate name: " + std::string(text));
  }
  *name = ident;
  *trailing = text.substr(close + 1);
  std::string_view inner = text.substr(open + 1, close - open - 1);
  if (Trim(inner).empty()) return Status::OK();
  for (size_t start = 0;;) {
    size_t comma = inner.find(',', start);
    std::string_view arg = Trim(inner.substr(
        start, comma == std::string_view::npos ? comma : comma - start));
    if (!IsIdentifier(arg)) {
      return Status::ParseError("malformed argument '" + std::string(arg) +
                                "' in atom: " + std::string(text));
    }
    args->push_back(arg);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return Status::OK();
}

Status LineError(int line_no, const std::string& message) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " + message);
}

}  // namespace

// Tokens are views into `text`; the argument list, the tuple and the last
// predicate looked up are reused across facts, so a fact over known elements
// allocates only the tuple the structure stores.
StatusOr<Structure> ParseStructure(const Signature& signature,
                                   const std::string& text) {
  Structure structure(signature);
  std::vector<std::string_view> args;
  Tuple tuple;
  std::string predicate_name;
  PredicateId predicate = -1;
  std::string_view rest = text;
  for (int line_no = 1;; ++line_no) {
    size_t newline = rest.find('\n');
    std::string_view line = Trim(rest.substr(0, newline));
    size_t comment = line.find('%');
    if (comment != std::string_view::npos) line = Trim(line.substr(0, comment));
    if (!line.empty()) {
      if (line.back() != '.') {
        return LineError(line_no, "expected trailing '.'");
      }
      // Several '.'-terminated facts may share a line; identifiers cannot
      // contain '.', so splitting on it is unambiguous.
      for (size_t start = 0; start < line.size();) {
        size_t dot = line.find('.', start);
        std::string_view stmt = Trim(line.substr(start, dot - start));
        start = dot + 1;
        if (stmt.empty()) continue;
        std::string_view name;
        std::string_view trailing;
        Status st = ParseAtomText(stmt, &name, &args, &trailing);
        if (!st.ok()) return LineError(line_no, st.message());
        if (name == "element") {
          if (args.size() != 1) {
            return LineError(line_no, "element/1 expects one argument");
          }
          structure.AddElement(args[0]);
        } else {
          if (predicate < 0 || name != predicate_name) {
            predicate_name.assign(name);
            StatusOr<PredicateId> id = signature.PredicateIdOf(predicate_name);
            if (!id.ok()) return LineError(line_no, id.status().ToString());
            predicate = id.value();
          }
          tuple.clear();
          for (std::string_view arg : args) {
            tuple.push_back(structure.AddElement(arg));
          }
          st = structure.AddFact(predicate, tuple);
          if (!st.ok()) return LineError(line_no, st.ToString());
        }
        // Checked last, so that every atom rejected for another reason keeps
        // that reason's message.
        if (!trailing.empty()) {
          return LineError(line_no, "unexpected text after ')' in atom: " +
                                        std::string(stmt));
        }
      }
    }
    if (newline == std::string_view::npos) break;
    rest.remove_prefix(newline + 1);
  }
  return structure;
}

std::string FormatStructure(const Structure& structure) {
  std::string out;
  // Declare every element up front, in id order, so that a parse round-trip
  // reproduces the domain *and* the id assignment exactly (facts alone would
  // intern elements in predicate order instead).
  for (ElementId e = 0; e < structure.NumElements(); ++e) {
    out += "element(" + structure.ElementName(e) + ").\n";
  }
  for (const Fact& fact : structure.AllFacts()) {
    out += structure.signature().name(fact.predicate);
    if (!fact.args.empty()) {
      out += "(";
      for (size_t i = 0; i < fact.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += structure.ElementName(fact.args[i]);
      }
      out += ")";
    }
    out += ".\n";
  }
  return out;
}

void SerializeStructure(const Structure& structure, BinaryWriter* writer) {
  const Signature& sig = structure.signature();
  writer->U64(static_cast<uint64_t>(sig.size()));
  for (PredicateId p = 0; p < sig.size(); ++p) {
    writer->Str(sig.name(p));
    writer->I32(sig.arity(p));
  }
  writer->U64(structure.NumElements());
  for (ElementId e = 0; e < structure.NumElements(); ++e) {
    writer->Str(structure.ElementName(e));
  }
  for (PredicateId p = 0; p < sig.size(); ++p) {
    const auto& tuples = structure.Relation(p);
    writer->U64(tuples.size());
    for (const Tuple& t : tuples) {
      for (ElementId e : t) writer->U32(e);
    }
  }
}

StatusOr<Structure> DeserializeStructure(BinaryReader* reader) {
  size_t num_predicates = 0;
  TREEDL_RETURN_IF_ERROR(reader->Length(&num_predicates, 8 + 4));
  std::vector<std::pair<std::string, int>> predicates;
  predicates.reserve(num_predicates);
  for (size_t p = 0; p < num_predicates; ++p) {
    std::string name;
    int32_t arity = 0;
    TREEDL_RETURN_IF_ERROR(reader->Str(&name));
    TREEDL_RETURN_IF_ERROR(reader->I32(&arity));
    if (arity < 0) {
      return Status::ParseError("structure: negative predicate arity");
    }
    predicates.emplace_back(std::move(name), arity);
  }
  TREEDL_ASSIGN_OR_RETURN(Signature signature,
                          Signature::Make(std::move(predicates)));

  Structure structure(signature);
  size_t num_elements = 0;
  TREEDL_RETURN_IF_ERROR(reader->Length(&num_elements, 8));
  for (size_t e = 0; e < num_elements; ++e) {
    std::string name;
    TREEDL_RETURN_IF_ERROR(reader->Str(&name));
    // Names were written in id order; re-interning must reproduce dense ids
    // (a duplicate name would silently shift every later id).
    if (structure.AddElement(name) != static_cast<ElementId>(e)) {
      return Status::ParseError("structure: duplicate element name '" + name +
                                "'");
    }
  }
  for (PredicateId p = 0; p < signature.size(); ++p) {
    size_t arity = static_cast<size_t>(signature.arity(p));
    size_t num_tuples = 0;
    TREEDL_RETURN_IF_ERROR(reader->Length(&num_tuples, arity * 4));
    for (size_t t = 0; t < num_tuples; ++t) {
      Tuple args(arity);
      for (size_t i = 0; i < arity; ++i) {
        TREEDL_RETURN_IF_ERROR(reader->U32(&args[i]));
      }
      TREEDL_RETURN_IF_ERROR(structure.AddFact(p, std::move(args)));
    }
  }
  return structure;
}

}  // namespace treedl
