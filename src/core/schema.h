#ifndef DFLOW_CORE_SCHEMA_H_
#define DFLOW_CORE_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "core/task.h"
#include "expr/condition.h"

namespace dflow::core {

// Static description of one attribute of a decision flow.
struct Attribute {
  std::string name;
  bool is_source = false;
  bool is_target = false;
  // Slash-separated module path from the modular (Fig 1a) specification;
  // empty for attributes declared at top level. Purely descriptive: the
  // stored enabling condition is already flattened (Fig 1b).
  std::string module_path;
};

// A *flattened*, validated decision-flow schema: the 4-tuple
// (Att, Src, Tgt, {cond_A}) of §2 together with the task producing each
// non-source attribute and the derived dependency graph (data edges +
// enabling edges). Instances are immutable once built; construct via
// SchemaBuilder. Well-formedness (§2) — the dependency graph is acyclic —
// is enforced at build time, so every Schema in existence is well-formed.
class Schema {
 public:
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;
  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  int num_attributes() const { return static_cast<int>(attrs_.size()); }
  const Attribute& attribute(AttributeId a) const {
    return attrs_[static_cast<size_t>(a)];
  }
  // Returns kInvalidAttribute when no attribute has this name.
  AttributeId FindAttribute(std::string_view name) const;

  bool is_source(AttributeId a) const { return attribute(a).is_source; }
  bool is_target(AttributeId a) const { return attribute(a).is_target; }

  // The enabling condition of a non-source attribute (sources have the
  // literal-true condition).
  const expr::Condition& enabling_condition(AttributeId a) const {
    return conditions_[static_cast<size_t>(a)];
  }
  // The task computing a non-source attribute. Undefined for sources.
  const Task& task(AttributeId a) const { return tasks_[static_cast<size_t>(a)]; }

  // Dataflow edges: inputs read by a's task / attributes whose task reads a.
  const std::vector<AttributeId>& data_inputs(AttributeId a) const {
    return data_inputs_[static_cast<size_t>(a)];
  }
  const std::vector<AttributeId>& data_consumers(AttributeId a) const {
    return data_consumers_[static_cast<size_t>(a)];
  }
  // Enabling-flow edges: attributes read by a's enabling condition /
  // attributes whose enabling condition reads a.
  const std::vector<AttributeId>& cond_inputs(AttributeId a) const {
    return cond_inputs_[static_cast<size_t>(a)];
  }
  const std::vector<AttributeId>& cond_consumers(AttributeId a) const {
    return cond_consumers_[static_cast<size_t>(a)];
  }

  const std::vector<AttributeId>& sources() const { return sources_; }
  const std::vector<AttributeId>& targets() const { return targets_; }

  // A topological order of the dependency graph (data + enabling edges).
  // Orders the prequalifier's worklists and the Earliest heuristic.
  const std::vector<AttributeId>& topo_order() const { return topo_order_; }
  int topo_index(AttributeId a) const {
    return topo_index_[static_cast<size_t>(a)];
  }

  // Sum of query costs over all non-source attributes: the maximum possible
  // Work of one instance.
  int64_t TotalQueryCost() const;

  // Human-readable multi-line description (attributes, conditions, edges).
  std::string DebugString() const;

 private:
  friend class SchemaBuilder;
  Schema() = default;

  std::vector<Attribute> attrs_;
  std::vector<expr::Condition> conditions_;
  std::vector<Task> tasks_;
  std::vector<std::vector<AttributeId>> data_inputs_;
  std::vector<std::vector<AttributeId>> data_consumers_;
  std::vector<std::vector<AttributeId>> cond_inputs_;
  std::vector<std::vector<AttributeId>> cond_consumers_;
  std::vector<AttributeId> sources_;
  std::vector<AttributeId> targets_;
  std::vector<AttributeId> topo_order_;
  std::vector<int> topo_index_;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_SCHEMA_H_
