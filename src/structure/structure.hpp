// Finite τ-structures (§2.2): a finite domain plus one relation per predicate.
//
// Elements are interned to dense ids (ElementId). Relations are stored as
// deduplicated tuple lists with a hash index for O(1) membership tests — the
// structure doubles as the extensional database E(A) of §2.4.
#ifndef TREEDL_STRUCTURE_STRUCTURE_HPP_
#define TREEDL_STRUCTURE_STRUCTURE_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "structure/signature.hpp"

namespace treedl {

using ElementId = uint32_t;
using Tuple = std::vector<ElementId>;

struct Fact {
  PredicateId predicate;
  Tuple args;

  bool operator==(const Fact&) const = default;
};

class Structure {
 public:
  explicit Structure(Signature signature) : signature_(std::move(signature)) {
    relations_.resize(static_cast<size_t>(signature_.size()));
    indexes_.resize(static_cast<size_t>(signature_.size()));
  }

  const Signature& signature() const { return signature_; }

  // --- Domain -------------------------------------------------------------

  /// Interns `name`, returning its id (existing id if already present).
  /// Looking up a known name allocates nothing.
  ElementId AddElement(std::string_view name);

  StatusOr<ElementId> ElementByName(const std::string& name) const;
  bool HasElementNamed(const std::string& name) const {
    return element_ids_.count(name) > 0;
  }
  const std::string& ElementName(ElementId id) const {
    return element_names_[id];
  }
  size_t NumElements() const { return element_names_.size(); }

  // --- Facts ---------------------------------------------------------------

  /// Adds a ground atom. Duplicate facts are ignored (set semantics).
  /// Fails if the arity mismatches or any argument id is out of range.
  Status AddFact(PredicateId predicate, Tuple args);

  /// Convenience: interns the named elements and adds the fact.
  Status AddFactNamed(const std::string& predicate,
                      const std::vector<std::string>& args);

  bool HasFact(PredicateId predicate, const Tuple& args) const;

  /// All tuples of one relation, in insertion order.
  const std::vector<Tuple>& Relation(PredicateId predicate) const {
    return relations_[static_cast<size_t>(predicate)];
  }

  size_t NumFacts() const { return num_facts_; }

  /// All facts of all relations (materialized; intended for small structures).
  std::vector<Fact> AllFacts() const;

  // --- Derived structures ----------------------------------------------------

  /// The substructure induced by `keep` (Def 3.2): same signature, domain
  /// restricted to `keep`, and exactly the facts all of whose arguments lie in
  /// `keep`. Element names are preserved. `old_to_new`, if non-null, receives
  /// the id translation (entries for dropped elements are absent).
  Structure InducedSubstructure(
      const std::vector<ElementId>& keep,
      std::unordered_map<ElementId, ElementId>* old_to_new = nullptr) const;

  /// Structural equality: same signature, same element names (by id), same
  /// fact sets.
  bool operator==(const Structure& other) const;

 private:
  struct TupleHash {
    size_t operator()(const Tuple& t) const { return HashRange(t); }
  };
  // Lets element_ids_ be probed with a std::string_view.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  Signature signature_;
  std::vector<std::string> element_names_;
  std::unordered_map<std::string, ElementId, NameHash, std::equal_to<>>
      element_ids_;
  std::vector<std::vector<Tuple>> relations_;
  std::vector<std::unordered_set<Tuple, TupleHash>> indexes_;
  size_t num_facts_ = 0;
};

}  // namespace treedl

#endif  // TREEDL_STRUCTURE_STRUCTURE_HPP_
