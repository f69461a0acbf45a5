#include "core/primality_internal.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hpp"

namespace treedl::core::internal {

PrimalityContext::PrimalityContext(const Schema& schema,
                                   const SchemaEncoding& encoding)
    : encoding_(encoding) {
  rhs_elem_.reserve(static_cast<size_t>(schema.NumFds()));
  lhs_elems_.reserve(static_cast<size_t>(schema.NumFds()));
  for (FdId f = 0; f < schema.NumFds(); ++f) {
    rhs_elem_.push_back(encoding.AttrElement(schema.Fd(f).rhs));
    std::vector<ElementId> lhs;
    for (AttributeId b : schema.Fd(f).lhs) {
      lhs.push_back(encoding.AttrElement(b));
    }
    std::sort(lhs.begin(), lhs.end());
    lhs_elems_.push_back(std::move(lhs));
  }
}

PrimNode PrimalityContext::Node(const std::vector<ElementId>& bag,
                                ElementId moved) const {
  // bag ∪ {moved} in sorted order: the attributes, then the FDs.
  ElementId attrs[kMaxPrimAttrs];
  ElementId fds[kMaxPrimFds];
  PrimNode node;
  auto add = [&](ElementId e) {
    if (IsAttr(e)) {
      TREEDL_CHECK(node.num_attrs < kMaxPrimAttrs);
      attrs[node.num_attrs++] = e;
    } else {
      TREEDL_CHECK(node.num_fds < kMaxPrimFds);
      fds[node.num_fds++] = e;
    }
  };
  bool pending = moved != kNoMove &&
                 !std::binary_search(bag.begin(), bag.end(), moved);
  for (ElementId e : bag) {
    if (pending && moved < e) {
      add(moved);
      pending = false;
    }
    add(e);
  }
  if (pending) add(moved);

  const ElementId* attrs_begin = attrs;
  const ElementId* attrs_end = attrs + node.num_attrs;
  auto attr_bit = [&](ElementId a) -> uint32_t {
    const ElementId* it = std::lower_bound(attrs_begin, attrs_end, a);
    return it != attrs_end && *it == a ? uint32_t{1} << (it - attrs) : 0;
  };
  for (uint32_t j = 0; j < node.num_fds; ++j) {
    node.rhs_bit[j] = attr_bit(RhsElem(fds[j]));
    for (ElementId b : LhsElems(fds[j])) node.lhs[j] |= attr_bit(b);
  }
  if (moved != kNoMove) {
    node.moved_attr = IsAttr(moved);
    if (node.moved_attr) {
      node.rank = static_cast<uint32_t>(
          std::lower_bound(attrs_begin, attrs_end, moved) - attrs);
      for (uint32_t j = 0; j < node.num_fds; ++j) {
        if ((node.lhs[j] >> node.rank) & 1) node.lhs_of_moved |= uint32_t{1} << j;
      }
    } else {
      node.rank = static_cast<uint32_t>(
          std::lower_bound(fds, fds + node.num_fds, moved) - fds);
    }
  }
  return node;
}

Status CheckPrimalityCapacity(const NormalizedTreeDecomposition& ntd,
                              const SchemaEncoding& encoding,
                              bool enumerate_root) {
  auto refuse = [](size_t count, const char* what, uint32_t limit,
                   const char* bound) {
    return Status::CapacityExceeded(
        "bag of " + std::to_string(count) + " " + what + " exceeds the " +
        std::to_string(limit) + " " + what + " of the primality " + bound);
  };
  for (size_t id = 0; id < ntd.NumNodes(); ++id) {
    const NormNode& node = ntd.node(static_cast<TdNodeId>(id));
    // A bag lists its attributes first.
    size_t attrs = static_cast<size_t>(
        std::lower_bound(node.bag.begin(), node.bag.end(),
                         static_cast<ElementId>(encoding.num_attributes)) -
        node.bag.begin());
    size_t fds = node.bag.size() - attrs;
    if (attrs > kMaxPrimAttrs) {
      return refuse(attrs, "attributes", kMaxPrimAttrs, "state word");
    }
    if (fds > kMaxPrimFds) return refuse(fds, "FDs", kMaxPrimFds, "state word");
    bool enumerated =
        node.kind == NormNodeKind::kLeaf ||
        (enumerate_root && static_cast<TdNodeId>(id) == ntd.root());
    if (enumerated && attrs > kMaxLeafAttrs) {
      return refuse(attrs, "attributes", kMaxLeafAttrs, "leaf rule");
    }
  }
  return Status::OK();
}

TreeDecomposition CloseBagsForRhs(const TreeDecomposition& td,
                                  const SchemaEncoding& encoding,
                                  const PrimalityContext& context) {
  TreeDecomposition out;
  std::vector<TdNodeId> translate(td.NumNodes(), kNoTdNode);
  for (TdNodeId id : td.PreOrder()) {
    std::vector<ElementId> bag = td.Bag(id);
    std::vector<ElementId> extra;
    for (ElementId e : bag) {
      if (encoding.IsFdElement(e)) extra.push_back(context.RhsElem(e));
    }
    bag.insert(bag.end(), extra.begin(), extra.end());
    TdNodeId parent = td.node(id).parent;
    TdNodeId new_parent = parent == kNoTdNode
                              ? kNoTdNode
                              : translate[static_cast<size_t>(parent)];
    translate[static_cast<size_t>(id)] = out.AddNode(std::move(bag), new_parent);
  }
  return out;
}

NormalizeOptions PrimalityNormalizeOptions(const SchemaEncoding& encoding,
                                           bool for_enumeration) {
  NormalizeOptions options;
  options.ensure_leaf_coverage = for_enumeration;
  options.copy_above_branches = for_enumeration;
  int num_attributes = encoding.num_attributes;
  options.forget_priority = [num_attributes](ElementId e) {
    // FDs (ids >= num_attributes) are forgotten first / introduced last.
    return e >= static_cast<ElementId>(num_attributes) ? 1 : 0;
  };
  return options;
}

}  // namespace treedl::core::internal
