#include "structure/structure.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace treedl {

ElementId Structure::AddElement(std::string_view name) {
  auto it = element_ids_.find(name);
  if (it != element_ids_.end()) return it->second;
  ElementId id = static_cast<ElementId>(element_names_.size());
  element_names_.emplace_back(name);
  element_ids_.emplace(element_names_.back(), id);
  return id;
}

StatusOr<ElementId> Structure::ElementByName(const std::string& name) const {
  auto it = element_ids_.find(name);
  if (it == element_ids_.end()) {
    return Status::NotFound("unknown element: " + name);
  }
  return it->second;
}

Status Structure::AddFact(PredicateId predicate, Tuple args) {
  if (predicate < 0 || predicate >= signature_.size()) {
    return Status::InvalidArgument("predicate id out of range");
  }
  if (static_cast<int>(args.size()) != signature_.arity(predicate)) {
    return Status::InvalidArgument(
        "arity mismatch for " + signature_.name(predicate) + ": got " +
        std::to_string(args.size()) + ", want " +
        std::to_string(signature_.arity(predicate)));
  }
  for (ElementId a : args) {
    if (a >= element_names_.size()) {
      return Status::InvalidArgument("fact argument id out of range");
    }
  }
  auto& index = indexes_[static_cast<size_t>(predicate)];
  if (index.insert(args).second) {
    relations_[static_cast<size_t>(predicate)].push_back(std::move(args));
    ++num_facts_;
  }
  return Status::OK();
}

Status Structure::AddFactNamed(const std::string& predicate,
                               const std::vector<std::string>& args) {
  TREEDL_ASSIGN_OR_RETURN(PredicateId pid, signature_.PredicateIdOf(predicate));
  Tuple tuple;
  tuple.reserve(args.size());
  for (const std::string& a : args) tuple.push_back(AddElement(a));
  return AddFact(pid, std::move(tuple));
}

bool Structure::HasFact(PredicateId predicate, const Tuple& args) const {
  if (predicate < 0 || predicate >= signature_.size()) return false;
  return indexes_[static_cast<size_t>(predicate)].count(args) > 0;
}

std::vector<Fact> Structure::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(num_facts_);
  for (PredicateId p = 0; p < signature_.size(); ++p) {
    for (const Tuple& t : relations_[static_cast<size_t>(p)]) {
      out.push_back(Fact{p, t});
    }
  }
  return out;
}

Structure Structure::InducedSubstructure(
    const std::vector<ElementId>& keep,
    std::unordered_map<ElementId, ElementId>* old_to_new) const {
  Structure sub(signature_);
  std::unordered_map<ElementId, ElementId> translation;
  translation.reserve(keep.size());
  for (ElementId old_id : keep) {
    TREEDL_CHECK(old_id < element_names_.size())
        << "induced substructure element out of range";
    if (translation.count(old_id)) continue;
    translation.emplace(old_id, sub.AddElement(element_names_[old_id]));
  }
  for (PredicateId p = 0; p < signature_.size(); ++p) {
    for (const Tuple& t : relations_[static_cast<size_t>(p)]) {
      Tuple mapped;
      mapped.reserve(t.size());
      bool all_kept = true;
      for (ElementId a : t) {
        auto it = translation.find(a);
        if (it == translation.end()) {
          all_kept = false;
          break;
        }
        mapped.push_back(it->second);
      }
      if (all_kept) {
        Status st = sub.AddFact(p, std::move(mapped));
        TREEDL_CHECK(st.ok()) << st.ToString();
      }
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(translation);
  return sub;
}

bool Structure::operator==(const Structure& other) const {
  if (!(signature_ == other.signature_)) return false;
  if (element_names_ != other.element_names_) return false;
  if (num_facts_ != other.num_facts_) return false;
  for (PredicateId p = 0; p < signature_.size(); ++p) {
    const auto& mine = relations_[static_cast<size_t>(p)];
    if (mine.size() != other.relations_[static_cast<size_t>(p)].size()) {
      return false;
    }
    for (const Tuple& t : mine) {
      if (!other.HasFact(p, t)) return false;
    }
  }
  return true;
}

}  // namespace treedl
